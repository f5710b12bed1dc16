"""Regenerate perfbench/reference.json: the expected output of every cell
a benchmark seed can draw.

Run from the repository root after the bank cache is prepared
(perfbench/run.py prepares it on its first run)::

    PYTHONPATH=src REPRO_CACHE=.perfbench_work/cache python3 perfbench/make_reference.py

Paper-scale pool cells are verified one by one on the scalar path (the
path the lockstep, per-cell and fleet paths are documented bitwise
identical to), each under a fresh recorder so its work counters are
its own. Takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

COUNTERS = ("reach.integrations", "reach.controller_evaluations", "verify.propagations",
            "reach.steps", "runner.refinements", "verify.memo_hits")


def _verify_one(args):
    arc, heading = args
    from repro.core import verify_partition
    from repro.obs import Recorder, use_recorder

    recorder = Recorder()
    with use_recorder(recorder):
        report = verify_partition(lambda: _SYSTEM, [wl.paper_cell(arc, heading)], _SCALAR)
    cell = report.cells[0]
    counters = recorder.metrics.snapshot()["counters"]
    return f"{arc},{heading}", {
        "signature": wl.cell_signature(cell),
        "coverage": cell.coverage_fraction(),
        "counters": {name: int(counters.get(name, 0)) for name in COUNTERS},
    }


def _init_worker():
    global _SYSTEM, _SCALAR
    from repro.acasxu import build_system
    from repro.core import ReachSettings, RunnerSettings

    _SYSTEM = build_system(wl.scenario("paper-ring"))
    base = wl.runner_settings("paper-ring")
    _SCALAR = RunnerSettings(
        reach=ReachSettings(substeps=base.reach.substeps,
                            max_symbolic_states=base.reach.max_symbolic_states),
        refinement=base.refinement,
    )


def tiny_reference() -> list[dict]:
    from repro.acasxu import build_system
    from repro.core import verify_partition
    from repro.obs import Recorder, use_recorder

    system = build_system(wl.scenario("tiny-smoke"))
    rotations = []
    for rotation in range(wl.TINY_ROTATIONS):
        cells = wl.build_cells("tiny-smoke", rotation, [])
        recorder = Recorder()
        with use_recorder(recorder):
            report = verify_partition(lambda: system, cells, wl.runner_settings("tiny-smoke"))
        counters = recorder.metrics.snapshot()["counters"]
        rotations.append({
            "signatures": [wl.cell_signature(c) for c in report.cells],
            "coverage_pct": report.coverage_percent(),
            "counters": {name: int(counters.get(name, 0)) for name in COUNTERS},
        })
        print(f"tiny rotation {rotation}: coverage {report.coverage_percent():.2f}%",
              file=sys.stderr)
    return rotations


def main() -> int:
    pool = wl.paper_pool()
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(min(2, os.cpu_count() or 1), initializer=_init_worker) as workers:
        rows = dict(workers.imap(_verify_one, pool, chunksize=4))
    hits = sum(row["counters"]["verify.memo_hits"] for row in rows.values())
    if hits:
        print(f"warning: {hits} memo hits; per-cell counters depend on order",
              file=sys.stderr)
    reference = {
        "paper": {
            "cells": rows,
        },
        "tiny": tiny_reference(),
    }
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE_PATH} ({len(rows)} pool cells)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
