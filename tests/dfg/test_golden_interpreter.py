"""Golden interpreter outputs: every ``Interpreter.run`` output, pinned.

Each case runs one Table 1 benchmark's DFG, paper-scale or functional
(``translate(scaled=True)``), on fixed seeded feeds, with and without a
batch axis, and compares a SHA-256 of every output array's bytes with
``golden_interpreter.json``. MODEL inputs are drawn from a normal
distribution and DATA inputs get a leading batch axis of
``BATCH[scale]`` samples in batch mode.

Regenerate (only when an interpreter change is intended) with::

    PYTHONPATH=src python tests/dfg/test_golden_interpreter.py
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.dfg import Interpreter, ir
from repro.ml.benchmarks import BENCHMARKS, benchmark

GOLDEN = Path(__file__).with_name("golden_interpreter.json")

#: Batch size per scale; paper-scale intermediates reach (B, 784, 784).
BATCH = {"paper": 3, "functional": 5}
MODES = ("single", "batch")

CASES = [
    f"{b.name}/{scale}/{mode}"
    for b in BENCHMARKS
    for scale in BATCH
    for mode in MODES
]


def array_digest(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode("utf-8"))
    h.update(arr.tobytes())
    return h.hexdigest()


def seeded_feeds(dfg: ir.Dfg, seed: int, batch: int = None) -> dict:
    rng = np.random.default_rng(seed)
    feeds = {}
    for value in dfg.inputs_of_category(ir.DATA):
        prefix = () if batch is None else (batch,)
        feeds[value.name] = rng.normal(size=prefix + dfg.shape(value))
    for value in dfg.inputs_of_category(ir.MODEL):
        feeds[value.name] = rng.normal(size=dfg.shape(value))
    return feeds


def run_case(case: str) -> dict:
    name, scale, mode = case.split("/")
    dfg = benchmark(name).translate(scaled=scale == "functional").dfg
    batch = mode == "batch"
    feeds = seeded_feeds(dfg, seed=17, batch=BATCH[scale] if batch else None)
    with np.errstate(all="ignore"):
        out = Interpreter(dfg).run(feeds, batch=batch)
    return {k: array_digest(v) for k, v in sorted(out.items())}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_run_matches_golden(case, golden):
    assert run_case(case) == golden[case]


def main() -> int:
    data = {case: run_case(case) for case in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
