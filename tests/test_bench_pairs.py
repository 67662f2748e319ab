"""The verdict tools/bench_pairs.py gives one metric over paired runs."""
import importlib
import pathlib
import sys

import pytest

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def load_bench_pairs():
    sys.path.insert(0, str(TOOLS))
    try:
        return importlib.import_module("bench_pairs")
    finally:
        sys.path.remove(str(TOOLS))


verdict = load_bench_pairs().verdict

PARENT = [100.0, 101.0, 99.0, 102.0, 98.0, 100.5, 99.5, 101.5, 98.5, 100.0]


@pytest.mark.parametrize("change,higher,bound,expected", [
    # 10 of 10 wins, median 110 against 100 with a parent IQR of 1.75
    ([p + 10.0 for p in PARENT], True, 0.25, "gain"),
    # lower is better: the same runs, mirrored
    ([p - 10.0 for p in PARENT], False, 0.25, "gain"),
    # 9 of 10 wins is enough
    ([p + 10.0 for p in PARENT[:9]] + [PARENT[9] - 1.0], True, 0.25, "gain"),
    # 8 of 10 wins is not
    ([p + 10.0 for p in PARENT[:8]] + [p - 1.0 for p in PARENT[8:]], True, 0.25,
     "unresolved"),
    # every pair won, but by less than the parent's interquartile range
    ([p + 0.5 for p in PARENT], True, 0.25, "unresolved"),
    # a tie counts for neither side
    (PARENT[:], True, 0.25, "unresolved"),
    # worse by 30% against a 25% bound, in either direction of better
    ([p * 0.7 for p in PARENT], True, 0.25, "worse"),
    ([p * 1.3 for p in PARENT], False, 0.25, "worse"),
    # worse by 10%: inside the 25% bound, outside a 5% one
    ([p * 0.9 for p in PARENT], True, 0.25, "unresolved"),
    ([p * 0.9 for p in PARENT], True, 0.05, "worse"),
])
def test_verdict(change, higher, bound, expected):
    assert verdict(PARENT, change, higher, bound) == expected
