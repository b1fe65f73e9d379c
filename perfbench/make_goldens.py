"""Regenerate goldens.json: output digests of ``scale`` and ``stack``.

    python3 perfbench/make_goldens.py

Run from the repository root, and only when a change is meant to alter
the simulated results; a change that only speeds the program up must
leave every digest as it is. Each seed runs twice on a cold cache and
the two runs must agree.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from repro.perf.cache import get_cache

    goldens = {}
    for name in ("scale", "stack"):
        goldens[name] = {}
        for seed in workloads.SHIPPED_SEEDS + (workloads.HELD_OUT_SEED,):
            workload = workloads.make(name, seed, ROOT)
            runs = []
            for _ in range(2):
                get_cache().clear()
                outputs = [op.run() for op in workload.ops]
                runs.append(workload.digests(outputs))
            problem = None
            if not all(
                workload.invariant(i, out) for i, out in enumerate(outputs)
            ):
                problem = "breaks an invariant"
            elif runs[0] != runs[1]:
                problem = "is not deterministic"
            if problem:
                print(f"{name} seed {seed} {problem}", file=sys.stderr)
                return 1
            goldens[name][str(seed)] = runs[0]
            print(name, seed, flush=True)
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
