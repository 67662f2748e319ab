"""Outside-in layer tracing for the benchmark.

``Tracer.install`` replaces the public functions of each gridmix layer with
wrappers that record a span (name, start, end, parent, extra) in memory; the
benchmark's untraced runs never call it. ``uninstall`` puts every original
object back. ``layer_metrics`` turns a span list into the per-layer metrics
named in ``PER_LAYER``. Nothing here imports gridmix at module level, so
the orchestrator can use the analysis half with the standard library alone.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import namedtuple

Span = namedtuple("Span", "name start end parent extra")

TRAIN_STEP = "qmix_core.train_step"
FORWARD = "dense_net.forward"
RESET = "harness.reset"
API = ("harness.train", "harness.evaluate")


def _rows(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return x.shape[0] if getattr(x, "ndim", 1) == 2 else 1


def _certified(args, kwargs, result):
    return 1 if result else 0


# (span name, module, attribute path, probe). A probe maps (args, kwargs,
# result) to the span's ``extra`` number. Functions are patched in every
# gridmix module that bound them by name; methods on their class.
TARGETS = (
    ("grid_world.step", "grid_world", "EnvState.step", None),
    ("grid_world.global_state", "grid_world", "EnvState.global_state", None),
    ("grid_world.generate", "grid_world", "generate", None),
    ("grid_world.env_from_record", "grid_world", "env_from_record", None),
    ("grid_world.map_hash", "grid_world", "map_hash", None),
    ("observation.observe", "observation", "observe", None),
    ("mapsets.gen_mapset", "mapsets", "gen_mapset", None),
    ("mapsets.load_mapset", "mapsets", "load_mapset", None),
    ("mapsets.sample_giveway_record", "mapsets", "sample_giveway_record", None),
    ("mapsets.greedy_rollout_fails", "mapsets", "greedy_rollout_fails", _certified),
    ("replay_buffer.push", "replay_buffer", "Buffer.push", None),
    ("replay_buffer.sample", "replay_buffer", "Buffer.sample", None),
    (FORWARD, "dense_net", "forward", _rows),
    ("dense_net.backward", "dense_net", "backward", None),
    ("dense_net.adam_step", "dense_net", "adam_step", None),
    ("dense_net.clip_global_norm", "dense_net", "clip_global_norm", None),
    (TRAIN_STEP, "qmix_core", "train_step", None),
    ("qmix_core.mix_forward_batch", "qmix_core", "mix_forward_batch", None),
    ("qmix_core.mix_backward_batch", "qmix_core", "mix_backward_batch", None),
    ("qmix_core.td_targets", "qmix_core", "td_targets", None),
    ("qmix_core.sync_targets", "qmix_core", "sync_targets", None),
    ("qmix_core.select_actions", "qmix_core", "select_actions", None),
    ("qmix_core.save_bundle", "qmix_core", "save_bundle", None),
    ("qmix_core.load_bundle", "qmix_core", "load_bundle", None),
    ("harness.train", "harness", "train", None),
    ("harness.evaluate", "harness", "evaluate", None),
    (RESET, "harness", "_EnvSlot.reset", None),
)

# Span names with a p99 next to calls/self_s/p50 (the per-step hot paths).
WITH_P99 = ("grid_world.step", "observation.observe", "replay_buffer.push",
            "replay_buffer.sample", "dense_net.forward.act", TRAIN_STEP)


def _timed() -> list[str]:
    """Span names that get calls/self_s/p50 metrics, forward split in two."""
    names = []
    for name, *_ in TARGETS:
        if name == FORWARD:
            names += [f"{FORWARD}.act", f"{FORWARD}.learn"]
        elif name != RESET:
            names.append(name)
    return names


_TIMED = _timed()


def _per_layer() -> dict[str, str]:
    units = {}
    for name in _TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.p50_us"] = "us"
        if name in WITH_P99:
            units[f"{name}.p99_us"] = "us"
    units.update({
        "mapsets.giveway.accept_ratio": "ratio",
        "replay_buffer.bytes_per_entry": "B",
        "dense_net.forward.act.rows_per_call": "rows",
        "harness.cycle.p50_ms": "ms",
        "harness.cycle.p99_ms": "ms",
        "harness.reset.accept_ratio": "ratio",
        "trace.coverage": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    return units


# Every per-layer metric name and its unit, in BENCHMARK.json order.
PER_LAYER = _per_layer()


class Tracer:
    """Wraps gridmix's layer functions; spans accumulate in ``self.spans``."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.buffers: list = []      # replay buffers seen by push, for bytes_per_entry
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        import gridmix  # noqa: F401  (loads every layer module)

        modules = [m for name, m in sys.modules.items()
                   if name == "gridmix" or name.startswith("gridmix.")]
        for span_name, module, path, probe in TARGETS:
            mod = sys.modules[f"gridmix.{module}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(span_name, original, probe))
                continue
            original = getattr(mod, path)
            wrapper = self._wrap(span_name, original, probe)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Patched attributes that do not hold their original object."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patched
                if getattr(owner, attr) is not original]

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn, probe):
        spans, stack, clock = self.spans, self._stack, time.monotonic
        buffers = self.buffers if name == "replay_buffer.push" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                extra = probe(args, kwargs, result) if probe else None
                spans[idx] = Span(name, start, end, parent, extra)
                if buffers is not None and not buffers:
                    buffers.append(args[0])
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time covered by the union of its children.

    Parents precede their children in ``spans`` (a span is appended when
    it starts), so children lists come out sorted by start time.
    """
    children: list[list[int]] = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for c in children[i]:
            lo, hi = max(spans[c].start, s.start), min(spans[c].end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced process, keyed as in ``PER_LAYER``.

    ``dense_net.forward`` splits into ``.learn`` (under a train_step) and
    ``.act`` (everything else). The harness cycle is the gap between the
    starts of successive acting forwards of the top-level API call's own
    loop (the eval rollouts inside train() are excluded). Functions the
    workload never calls report zeros. ``trace.overhead_ratio`` and
    ``replay_buffer.bytes_per_entry`` are filled in by the caller.
    """
    selfs = self_times(spans)
    names = []
    in_train = []
    api_owner = []
    for i, s in enumerate(spans):
        under = s.parent >= 0 and (in_train[s.parent] or names[s.parent] == TRAIN_STEP)
        in_train.append(under)
        names.append(f"{FORWARD}.learn" if s.name == FORWARD and under else
                     f"{FORWARD}.act" if s.name == FORWARD else s.name)
        api_owner.append(i if s.name in API else
                         api_owner[s.parent] if s.parent >= 0 else -1)

    durations: dict[str, list[float]] = {}
    self_sum: dict[str, float] = {}
    for name, s, own in zip(names, spans, selfs):
        durations.setdefault(name, []).append(s.end - s.start)
        self_sum[name] = self_sum.get(name, 0.0) + own

    m = {}
    for name in _TIMED:
        d = durations.get(name, [])
        m[f"{name}.calls"] = len(d)
        m[f"{name}.self_s"] = self_sum.get(name, 0.0)
        m[f"{name}.p50_us"] = percentile(d, 50) * 1e6
        if name in WITH_P99:
            m[f"{name}.p99_us"] = percentile(d, 99) * 1e6

    act = [i for i, n in enumerate(names) if n == f"{FORWARD}.act"]
    m["dense_net.forward.act.rows_per_call"] = _ratio(
        sum(spans[i].extra for i in act), len(act))
    roots = [i for i, s in enumerate(spans) if s.parent < 0 and s.name in API]
    loop = [spans[i].start for i in act if roots and api_owner[i] == roots[0]]
    gaps = [b - a for a, b in zip(loop, loop[1:])]
    m["harness.cycle.p50_ms"] = percentile(gaps, 50) * 1e3
    m["harness.cycle.p99_ms"] = percentile(gaps, 99) * 1e3

    certs = [s.extra for s in spans if s.name == "mapsets.greedy_rollout_fails"]
    m["mapsets.giveway.accept_ratio"] = _ratio(sum(certs), len(certs))
    draws = sum(1 for s in spans if s.name == "grid_world.map_hash"
                and s.parent >= 0 and spans[s.parent].name == RESET)
    m["harness.reset.accept_ratio"] = _ratio(
        sum(1 for s in spans if s.name == RESET), draws)
    m["trace.coverage"] = _ratio(sum(selfs), wall_s)
    m["replay_buffer.bytes_per_entry"] = 0.0
    m["trace.overhead_ratio"] = 0.0
    return m
