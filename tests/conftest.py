"""Suite-wide leak guard.

Every test must leave the process as it found it: no extra live
threads, no live child processes, and no added, removed or changed
``REPRO_*`` environment variables. A leaked thread that keeps running
slows every later test, and a leaked ``REPRO_*`` value silently changes
what later tests measure, so the guard fails the test that leaked
rather than whichever test happens to notice.
"""

import multiprocessing
import os
import threading
import time

import pytest

#: How long a thread the test started may take to finish exiting after
#: the test returns (a pool worker that has been told to stop).
_GRACE_S = 2.0


def _repro_env():
    return {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}


def _new_threads(before):
    deadline = time.monotonic() + _GRACE_S
    for thread in threading.enumerate():
        if thread not in before:
            thread.join(max(0.0, deadline - time.monotonic()))
    return [
        t for t in threading.enumerate() if t not in before and t.is_alive()
    ]


@pytest.fixture(autouse=True)
def leak_guard():
    threads = set(threading.enumerate())
    children = {p.pid for p in multiprocessing.active_children()}
    env = _repro_env()
    yield
    problems = []
    leaked = _new_threads(threads)
    if leaked:
        names = ", ".join(sorted(t.name for t in leaked))
        problems.append(f"left {len(leaked)} thread(s) running: {names}")
    extra = [
        p for p in multiprocessing.active_children() if p.pid not in children
    ]
    if extra:
        pids = ", ".join(str(p.pid) for p in extra)
        problems.append(f"left child process(es) running: {pids}")
    after = _repro_env()
    changed = sorted(
        k for k in env.keys() | after.keys() if env.get(k) != after.get(k)
    )
    if changed:
        problems.append(f"changed REPRO_* variables: {', '.join(changed)}")
    if problems:
        pytest.fail("leak guard: " + "; ".join(problems), pytrace=False)
