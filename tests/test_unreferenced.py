"""Every function and class in the package is used by the package itself.

A definition that only tests call is test code living in ``src/``; it
belongs in ``tests/oracles.py``. The package's ``__init__`` re-exports do
not count as uses, and neither do imports that are never read.
"""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "gridmix"

# name -> why it stays although nothing in src/ calls it
ALLOWED = {
    "to_json": "public RunConfig API; perfbench writes its configs with it",
    "greedy_rollout_fails": "perfbench/tracing.py TARGETS resolves it by name with getattr; "
                            "give-way maps no longer need it, tests check them with it",
}


def test_every_definition_is_used_in_src():
    definitions, uses = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((f"{path.name}:{node.lineno}", node.name))
            elif path.name == "__init__.py":
                continue
            elif isinstance(node, ast.Name):
                uses.add(node.id)
            elif isinstance(node, ast.Attribute):
                uses.add(node.attr)
    # dunder methods are called by the language, not by name
    unused = [f"{where} {name}" for where, name in definitions
              if name not in uses and name not in ALLOWED
              and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, "defined in src/ but used nowhere in src/: " + ", ".join(unused)
    # an allowed name that src/ defines no more, or now uses, leaves the list
    assert set(ALLOWED) <= {name for _, name in definitions} - uses
