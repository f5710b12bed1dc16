"""Whole-pool verdict check against perfbench/reference.json.

A perfbench run checks one seed's sample: 16 of the 512 cells of the
reference pool. This script checks every cell a seed can draw. It runs
all 512 pool cells through the serial executor (chunks of lockstep
waves, the path ``repro verify`` takes) and the 8 ``tiny-smoke`` grid
rotations, and compares with the reference, which it only reads:

* every top-level cell's tree signature (verdict, steps, joins and
  integrations of every refinement node);
* every pool cell's coverage and each rotation's coverage;
* the work counters perfbench checks, as totals over the pool and per
  rotation.

Run it from the repository root::

    PYTHONPATH=src python benchmarks/check_pool.py

It exits 1 and names every disagreement, else prints one summary line
and exits 0. The paper bank's tables are built once from the committed
networks into perfbench's cache (``.perfbench_work/cache``). One
lockstep pass of the pool takes about half a minute on a 2-vCPU VM.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads as wl  # noqa: E402
from run import CHECKED_COUNTERS  # noqa: E402

CACHE = ROOT / ".perfbench_work" / "cache"


def _campaign(workload: str, cells: list) -> tuple:
    """(report, counters) of one serial campaign under its own recorder."""
    from repro.acasxu import build_system
    from repro.core import verify_partition
    from repro.obs import Recorder, use_recorder

    system = build_system(wl.scenario(workload))
    with use_recorder(Recorder()):
        report = verify_partition(lambda: system, cells, wl.runner_settings(workload))
    counters = report.metrics.get("counters", {})
    return report, {name: int(counters.get(name, 0)) for name in CHECKED_COUNTERS}


def _compare_counters(label: str, got: dict, want: dict) -> list[str]:
    return [
        f"{label}: {name} = {got[name]}, reference {want[name]}"
        for name in CHECKED_COUNTERS
        if got[name] != want[name]
    ]


def check_pool(reference: dict) -> list[str]:
    rows = reference["paper"]["cells"]
    pool = wl.paper_pool()
    report, counters = _campaign(
        "paper-ring", [wl.paper_cell(arc, heading) for arc, heading in pool]
    )
    problems = [f"pool: cell {c.cell_id} quarantined" for c in report.quarantined_cells()]
    if len(report.cells) != len(pool):
        return problems + [f"pool: {len(report.cells)} cells reported, {len(pool)} run"]
    for (arc, heading), cell in zip(pool, report.cells):
        row = rows[f"{arc},{heading}"]
        if wl.cell_signature(cell) != row["signature"]:
            problems.append(
                f"pool cell ({arc}, {heading}): {wl.cell_signature(cell)}, "
                f"reference {row['signature']}"
            )
        if cell.coverage_fraction() != row["coverage"]:
            problems.append(
                f"pool cell ({arc}, {heading}): coverage {cell.coverage_fraction()}, "
                f"reference {row['coverage']}"
            )
    want = {
        name: sum(rows[f"{a},{h}"]["counters"][name] for a, h in pool)
        for name in CHECKED_COUNTERS
    }
    return problems + _compare_counters("pool", counters, want)


def check_tiny(reference: dict) -> list[str]:
    problems = []
    for rotation, want in enumerate(reference["tiny"]):
        report, counters = _campaign("tiny-smoke", wl.build_cells("tiny-smoke", rotation, []))
        label = f"tiny rotation {rotation}"
        signatures = [wl.cell_signature(c) for c in report.cells]
        problems += [
            f"{label}: cell {i}: {got}, reference {ref}"
            for i, (got, ref) in enumerate(zip(signatures, want["signatures"]))
            if got != ref
        ]
        if len(signatures) != len(want["signatures"]):
            problems.append(
                f"{label}: {len(signatures)} cells, reference {len(want['signatures'])}"
            )
        if abs(report.coverage_percent() - want["coverage_pct"]) > 1e-9:
            problems.append(
                f"{label}: coverage {report.coverage_percent()}, "
                f"reference {want['coverage_pct']}"
            )
        problems += _compare_counters(label, counters, want["counters"])
    return problems


def main() -> int:
    if not (CACHE / "prepared").is_file():
        prepared = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "prepare.py"), str(CACHE)],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        if prepared.returncode != 0:
            print("error: preparing the bank cache failed", file=sys.stderr)
            return 2
    os.environ["REPRO_CACHE"] = str(CACHE)
    reference = wl.load_reference()
    problems = check_pool(reference) + check_tiny(reference)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} disagreements with perfbench/reference.json")
        return 1
    pool = len(reference["paper"]["cells"])
    print(
        f"whole pool agrees with perfbench/reference.json: {pool} pool cells, "
        f"{len(reference['tiny'])} tiny-smoke rotations"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
