"""Campaign benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper-ring --seed 1 --seconds 42 --trace 0

Run from the repository root. Each campaign runs in a fresh
interpreter (perfbench/child.py); the run repeats campaigns until
``--seconds`` are used, checks every campaign's cells against
perfbench/reference.json, and prints as its last stdout line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones (medians over
the campaigns, times scaled to a reference host speed); with
``--trace 1`` untraced and traced campaigns alternate and the metrics
are the per-layer ones. A host-diagnostics
line (steal ticks, load average, nproc) and, when traced, each layer's
share of ``wall_s`` are printed before it. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

#: Minimum campaigns per run, and a cap.
MIN_CAMPAIGNS = 3
MAX_CAMPAIGNS = 24
CHILD_TIMEOUT_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "reach_runs_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "coverage_pct": "%",
    "agree_frac": "frac",
}
PER_LAYER = {
    "setup.import_s": "s", "setup.bank_load_s": "s", "setup.build_s": "s",
    "join.calls": "count", "join.states_in_mean": "states", "join.joins": "count",
    "join.s": "s",
    "controller.calls": "count", "controller.rows_per_call": "rows", "controller.s": "s",
    "controller.pre_s": "s", "controller.nn_s": "s", "controller.post_s": "s",
    "controller.memo_hit_ratio": "frac",
    "integrate.calls": "count", "integrate.rows_per_call": "rows", "integrate.s": "s",
    "integrate.us_per_row": "us",
    "reach.self_s": "s", "runner.waves": "count", "runner.wave_rows_mean": "rows",
    "runner.cell_samples": "count", "runner.cell_p50_ms": "ms", "runner.cell_p99_ms": "ms",
    "reach.integrations": "count", "reach.controller_evaluations": "count",
    "reach.steps": "count", "runner.refinements": "count",
    "pool.worker_busy_frac": "frac", "pool.spawn_s": "s", "pool.dispatch_wait_ms_p50": "ms",
    "pool.retries": "count",
    "fleet.enroll_s": "s", "fleet.grants": "count", "fleet.leases_expired": "count",
    "fleet.frames": "count", "fleet.frame_bytes": "bytes", "fleet.shard_tail_idle_s": "s",
    "journal.appends": "count", "journal.append_s": "s",
    "obs.status_writes": "count", "obs.trace_overhead_frac": "frac",
    "share.join": "frac", "share.integrate": "frac", "share.controller": "frac",
    "share.reach_self": "frac",
}
#: Work counters the reference records per cell; the three paper-ring
#: paths must reproduce them exactly.
CHECKED_COUNTERS = ("reach.integrations", "reach.controller_evaluations",
                    "verify.propagations", "reach.steps", "runner.refinements")


# ----------------------------------------------------------------------
# Expected output and the check
# ----------------------------------------------------------------------
def expected_output(workload: str, seed: int, reference: dict) -> dict:
    """Per-cell signatures, coverage and counter totals the run must hit."""
    if workload == "tiny-smoke":
        rotation = reference["tiny"][seed % wl.TINY_ROTATIONS]
        return {"picks": [], "labels": None, "signatures": rotation["signatures"],
                "coverage_pct": rotation["coverage_pct"], "counters": rotation["counters"]}
    picks = wl.ring_sample(seed, reference["paper"]["cells"])
    if workload != "paper-ring":
        picks = picks[:wl.PREFIX_CELLS]
    rows = [reference["paper"]["cells"][f"{a},{h}"] for a, h in picks]
    return {
        "picks": picks,
        "labels": [f"{a},{h}" for a, h in picks],
        "signatures": [row["signature"] for row in rows],
        "coverage_pct": 100.0 * sum(row["coverage"] for row in rows) / len(rows),
        "counters": {name: sum(row["counters"][name] for row in rows) for name in CHECKED_COUNTERS},
    }


def observed_counters(workload: str, result: dict) -> dict:
    """The run's exact work counters: the program's own recorder (which
    a fleet's node agents do not feed), plus what the traced run's
    wrappers counted, in every process, on every path."""
    seen = {}
    if workload != "paper-ring-fleet":
        seen.update({name: result["counters"].get(name, 0) for name in CHECKED_COUNTERS})
    layers = result.get("layers")
    if layers:
        seen["reach.controller_evaluations (traced)"] = layers["work.controller_rows"]
        seen["verify.propagations (traced)"] = layers["work.propagations"]
    return seen


def check(result: dict, expected: dict, workload: str) -> tuple[int, list[str]]:
    """(failed top-level cells, problems) of one campaign."""
    problems = []
    signatures = result["signatures"]
    want = expected["signatures"]
    if len(signatures) != len(want):
        return len(want), [f"{len(signatures)} cells reported, {len(want)} expected"]
    if expected["labels"] is not None and result.get("labels") != expected["labels"]:
        return len(want), ["the campaign ran other cells than the seed's sample"]
    failed = sum(1 for got, ref in zip(signatures, want) if got != ref)
    if failed:
        problems.append(f"{failed} cells disagree with the reference (digest "
                        f"{wl.digest(signatures)} vs {wl.digest(want)})")
    if result["quarantined"]:
        problems.append(f"{result['quarantined']} cells quarantined")
    if abs(result["coverage_pct"] - expected["coverage_pct"]) > 1e-9:
        problems.append(f"coverage {result['coverage_pct']} != {expected['coverage_pct']}")
    for name, value in observed_counters(workload, result).items():
        base = name.split(" ")[0]
        if value != expected["counters"][base]:
            problems.append(f"{name} = {value}, reference {expected['counters'][base]}")
    if result.get("wrappers_left"):
        problems.append(f"layer wrappers left installed: {result['wrappers_left']}")
    if problems and not failed:
        failed = len(want)  # a whole-run disagreement fails every cell
    return failed, problems


def self_test(reference: dict) -> list[str]:
    """Harness self-tests: seed -> cells is deterministic and seeds
    differ, and the check flags a tampered verdict."""
    problems = []
    cells = reference["paper"]["cells"]
    if wl.ring_sample(7, cells) != wl.ring_sample(7, cells):
        problems.append("seed 7 drew two different samples")
    if wl.ring_sample(7, cells) == wl.ring_sample(8, cells):
        problems.append("seeds 7 and 8 drew the same sample")
    expected = expected_output("paper-ring", 7, reference)
    honest = {"signatures": list(expected["signatures"]), "labels": expected["labels"],
              "quarantined": 0, "coverage_pct": expected["coverage_pct"], "counters": {}}
    tampered = dict(honest, signatures=list(honest["signatures"]))
    first = tampered["signatures"][0]
    tampered["signatures"][0] = (first.replace("proved-safe", "possibly-unsafe", 1)
                                 if first.startswith("proved-safe")
                                 else first.replace(first.split("/")[0], "proved-safe", 1))
    if check(honest, expected, "paper-ring-fleet")[0] != 0:
        problems.append("the check fails an honest result")
    if check(tampered, expected, "paper-ring-fleet")[0] != 1:
        problems.append("the check missed a tampered verdict")
    return problems


# ----------------------------------------------------------------------
# Host diagnostics
# ----------------------------------------------------------------------
def steal_ticks() -> int:
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------
def run_campaign(root: Path, run_dir: Path, workload: str, seed: int, picks: list,
                 trace: bool, index: int) -> dict:
    workdir = run_dir / f"campaign-{index}"
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(root / "src"),
        "REPRO_CACHE": str(root / ".perfbench_work" / "cache"),
        "REPRO_LEDGER": str(workdir / "ledger"),
        "REPRO_LIVE": str(workdir / "live"),
    })
    with open(workdir / "log.txt", "w") as log:
        spawned_at = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), workload, str(seed),
             "1" if trace else "0", str(workdir), repr(spawned_at), json.dumps(picks)],
            cwd=root, env=env, stdout=log, stderr=log, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            # Workers, node agents and their pools share the child's process group.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if code != 0:
        tail = (workdir / "log.txt").read_text()[-2000:]
        raise RuntimeError(f"campaign {index} exited with {code}:\n{tail}")
    return json.loads((workdir / "result.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Unwind on SIGTERM too, so run_campaign's cleanup kills the campaign.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir() or not (root / ".cache").is_dir():
        print("error: run from the repository root (src/repro and .cache not found)",
              file=sys.stderr)
        return 2
    reference = wl.load_reference()
    problems = self_test(reference)
    if problems:
        print("error: harness self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 2

    work = root / ".perfbench_work"
    if not (work / "cache" / "prepared").is_file():
        prepared = subprocess.run(
            [sys.executable, str(HERE / "prepare.py"), str(work / "cache")],
            cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        )
        if prepared.returncode != 0:
            print("error: preparing the bank cache failed", file=sys.stderr)
            return 2

    run_dir = work / "runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    expected = expected_output(args.workload, args.seed, reference)
    host = {"nproc": os.cpu_count(), "loadavg_before": os.getloadavg(),
            "steal_ticks": -steal_ticks()}

    untraced, traced = [], []
    attempted = failed = 0
    all_problems: list[str] = []
    started = time.perf_counter()
    while True:
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - started
        if done >= MAX_CAMPAIGNS:
            break
        if args.trace:
            enough = untraced and traced
        else:
            enough = len(untraced) >= MIN_CAMPAIGNS
        if enough and elapsed + elapsed / done > args.seconds:
            break
        trace = bool(args.trace) and len(traced) < len(untraced)
        result = run_campaign(root, run_dir, args.workload, args.seed, expected["picks"],
                              trace, done)
        cell_failures, problems = check(result, expected, args.workload)
        attempted += len(expected["signatures"])
        failed += cell_failures
        all_problems.extend(problems)
        (traced if trace else untraced).append(result)

    host["steal_ticks"] += steal_ticks()
    host["loadavg_after"] = os.getloadavg()
    host["campaigns"] = len(untraced) + len(traced)
    host["wall_s_unscaled"] = statistics.median(r["wall_s"] for r in untraced)
    host["setup_s_unscaled"] = statistics.median(r["setup_s"] for r in untraced)
    host["slowdown"] = statistics.median(r["campaign_slowdown"] for r in untraced)
    print(json.dumps({"host": host}))
    for problem in all_problems:
        print(f"check: {problem}", file=sys.stderr)

    def median(key, results=untraced):
        return statistics.median(r[key] for r in results)

    # Times are scaled to the probe's reference host speed: the host runs
    # at full or about half speed in phases that outlast a run, and the
    # probe sees them (probe.py; README, "Noise").
    def scaled(key, slowdown="campaign_slowdown", results=untraced):
        return statistics.median(r[key] / r[slowdown] for r in results)

    if args.trace:
        chosen = sorted(traced, key=lambda r: r["wall_s"])[len(traced) // 2]
        layers = dict(chosen["layers"])
        layers["obs.trace_overhead_frac"] = (scaled("wall_s", results=traced)
                                             / scaled("wall_s") - 1.0)
        nodes = [node.split("/") for node in _nodes(chosen["signatures"])]
        layers["reach.integrations"] = sum(int(node[3]) for node in nodes)
        layers["reach.steps"] = sum(int(node[1]) for node in nodes)
        layers["runner.refinements"] = sum(s.count("[") for s in chosen["signatures"])
        layers["reach.controller_evaluations"] = layers["work.controller_rows"]
        print(f"layer shares of wall_s ({args.workload}, traced wall "
              f"{chosen['wall_s']:.3f} s): "
              + ", ".join(f"{k.split('.')[1]} {layers[k]:.3f}"
                          for k in ("share.join", "share.integrate",
                                    "share.controller", "share.reach_self")))
        metrics = {name: {"value": float(layers[name]), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {
            "setup_s": scaled("setup_s", "setup_slowdown"),
            "wall_s": scaled("wall_s"),
            "reach_runs_per_s": statistics.median(
                r["reach_runs"] * r["campaign_slowdown"] / r["wall_s"] for r in untraced),
            "cpu_s": scaled("cpu_s"),
            "peak_rss_mb": median("peak_rss_mb"),
            "coverage_pct": median("coverage_pct"),
            "agree_frac": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0 and not all_problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _nodes(signatures: list[str]) -> list[str]:
    """Every node record ``verdict/steps/joins/integrations`` of the trees."""
    return [part for sig in signatures
            for part in sig.replace("[", ",").replace("]", ",").split(",") if part]


if __name__ == "__main__":
    sys.exit(main())
