"""The benchmark's tracer still finds every gridmix function it times.

perfbench/tracing.py looks each traced function or method up by name, so a
rename in the package would otherwise fail only inside traced benchmark
processes. This installs the tracer against the package and uninstalls it.
"""
import importlib
import pathlib
import sys

import gridmix  # noqa: F401  (loads every module the tracer patches)

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_tracing():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


def resolve(module: str, path: str):
    owner = sys.modules[f"gridmix.{module}"]
    if "." in path:
        cls_name, path = path.split(".")
        owner = getattr(owner, cls_name)
        return owner, path, owner.__dict__[path]
    return owner, path, getattr(owner, path)


def test_every_target_resolves_and_is_restored():
    tracing = load_tracing()
    targets = [resolve(module, path) for _, module, path, _ in tracing.TARGETS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr, original in targets:
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr} not traced"
    finally:
        tracer.uninstall()
    assert tracer.leftovers() == []
    for owner, attr, original in targets:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
