"""Golden Planner outputs: every ``AcceleratorPlan`` field, pinned.

Each case plans one Table 1 benchmark with ``Planner.plan`` and
``Planner.sweep`` and compares the ``repr`` of every plan field
(``thread_estimate`` with its ``per_node`` map, and
``storage_per_thread_bytes``, included) with ``golden_plans.json``. The
chosen plan is stored field by field; each sweep label maps to a 64-bit
SHA-256 prefix of the same field reprs, which pins every design point
bit for bit while keeping the file small.

Cases cross all 10 benchmarks with:

* the chips ``XILINX_VU9P``, ``PASIC_F`` and ``PASIC_G`` under the
  default cost params;
* the ablations' cost params (``FLAT``, ``ops_first``, ``TABLA_PARAMS``)
  on the VU9P;
* no annotations, the benchmark's ``density`` alone (only where it
  has one), and ``density`` plus Table 1's ``stream_words``.

Everything runs with the artifact cache disabled, so the memo never
hides the design-space exploration.

Regenerate (only when a planner change is intended) with::

    PYTHONPATH=src python tests/planner/test_golden_plans.py
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.baselines import TABLA_PARAMS
from repro.hw import PASIC_F, PASIC_G, XILINX_VU9P
from repro.ml.benchmarks import BENCHMARKS, benchmark
from repro.perf.cache import cache_disabled
from repro.planner import FLAT, AcceleratorPlan, CostParams, Planner

GOLDEN = Path(__file__).with_name("golden_plans.json")

CHIPS = {"vu9p": XILINX_VU9P, "pasic-f": PASIC_F, "pasic-g": PASIC_G}
PARAMS = {
    "default": CostParams(),
    "flat": CostParams(interconnect=FLAT),
    "ops_first": CostParams(mapping="ops_first"),
    "tabla": TABLA_PARAMS,
}
INPUTS = ("plain", "density", "density+stream")


def _case_ids():
    ids = []
    for b in BENCHMARKS:
        for inputs in INPUTS:
            if inputs == "density" and not b.density:
                continue  # the same inputs as "plain"
            for chip in CHIPS:
                ids.append(f"{b.name}/{chip}/default/{inputs}")
            for params in ("flat", "ops_first", "tabla"):
                ids.append(f"{b.name}/vu9p/{params}/{inputs}")
    return ids


CASES = _case_ids()


def plan_reprs(plan: AcceleratorPlan) -> dict:
    return {
        f.name: repr(getattr(plan, f.name))
        for f in dataclasses.fields(plan)
    }


def plan_digest(plan: AcceleratorPlan) -> str:
    text = json.dumps(plan_reprs(plan), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run_case(case: str) -> dict:
    name, chip_name, params_name, inputs = case.split("/")
    b = benchmark(name)
    chip = CHIPS[chip_name]
    dfg = b.translate().dfg
    density = None if inputs == "plain" else b.density
    stream = (
        b.bytes_per_sample() / chip.word_bytes
        if inputs == "density+stream"
        else None
    )
    planner = Planner(chip, PARAMS[params_name])
    with cache_disabled():
        plan = planner.plan(dfg, 10_000, density, stream_words=stream)
        sweep = planner.sweep(dfg, 10_000, density, stream_words=stream)
    return {
        "plan": plan_reprs(plan),
        "sweep": {label: plan_digest(p) for label, p in sweep.items()},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_plan_matches_golden(case, golden):
    assert run_case(case) == golden[case]


def main() -> int:
    data = {case: run_case(case) for case in CASES}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
