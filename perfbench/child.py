"""One measured campaign in a fresh interpreter.

Started by run.py; not meant to be run by hand. Sets up the way
``repro verify`` does (recorder, live telemetry, ledger), runs one
campaign call for the workload, and writes what it saw as JSON:

    python3 perfbench/child.py WORKLOAD SEED TRACE WORKDIR SPAWNED_AT CELLS

``SPAWNED_AT`` is the parent's ``time.perf_counter()`` just before the
spawn (a system-wide monotonic clock on Linux), so set-up time covers
interpreter start-up too. ``CELLS`` is the JSON list of
``[arc, heading]`` picks run.py drew for the seed (empty for
`tiny-smoke`), so the child only builds cells and never loads the
reference. The environment carries ``REPRO_CACHE``, ``REPRO_LEDGER``
and ``REPRO_LIVE``, all inside the run's work dir. The speed probe
(probe.py) is armed before anything else is imported, so set-up is
probed too; the result carries the slowdown it saw in set-up and in
the campaign.
"""

import sys
import time

entered = time.perf_counter()

from pathlib import Path  # noqa: E402

import probe  # noqa: E402

PROBE_DIR = Path(sys.argv[4]) / "probes"
PROBE_DIR.mkdir()
probe.arm(PROBE_DIR)

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

# What `repro verify` imports before its campaign starts.
import numpy  # noqa: E402,F401
import repro.acasxu  # noqa: E402,F401
import repro.core  # noqa: E402,F401
import repro.experiments  # noqa: E402,F401
import repro.obs  # noqa: E402,F401

import layers  # noqa: E402
import workloads as wl  # noqa: E402

imported = time.perf_counter()


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _reach_runs(cell) -> int:
    return 1 + sum(_reach_runs(c) for c in cell.children)


def main() -> int:
    workload, seed, trace, workdir, spawned_at, picks = sys.argv[1:7]
    seed, trace, workdir, spawned_at = int(seed), trace == "1", Path(workdir), float(spawned_at)
    picks = json.loads(picks)
    from repro.acasxu import build_system
    from repro.core import DistributedSettings, run_distributed, verify_partition
    from repro.obs import (
        CampaignProgress,
        LiveTelemetry,
        Recorder,
        TelemetrySettings,
        new_run_id,
        record_from_report,
        record_run,
        set_recorder,
    )

    store = patches = None
    if trace:
        span_dir = workdir / "spans"
        span_dir.mkdir()
        store = layers.SpanStore(span_dir)
        store.add("setup.import", entered, imported)
        patches = layers.install(store)

    # --- set-up: bank and table load, system build, cell generation
    started = time.perf_counter()
    system = build_system(wl.scenario(workload))
    built = time.perf_counter()
    cells = wl.build_cells(workload, seed, picks)
    generated = time.perf_counter()
    if store is not None:
        store.add("setup.build", started, built)
        store.add("setup.cells", built, generated)
    settings = wl.runner_settings(workload)

    # --- what `repro verify` installs: recorder, live telemetry, ledger
    recorder = Recorder()
    set_recorder(recorder)
    run_id = new_run_id("verify")
    live = LiveTelemetry(run_id, TelemetrySettings(interval=1.0), recorder=recorder)
    progress = CampaignProgress(stream=sys.stderr)
    progress.stalled_provider = live.snapshot.stalled_count

    cpu_before = _cpu_seconds()
    campaign_start = time.perf_counter()
    with contextlib.ExitStack() as stack:
        stack.enter_context(live)
        if workload == "paper-ring-fleet":
            report = run_distributed(
                lambda: system,
                cells,
                workdir / "journal.jsonl",
                settings=settings,
                # One shard: the node's 2-worker pool gets all cells, so
                # the seed cannot change how the hash packs them into
                # sequentially granted shards.
                dist=DistributedSettings(num_shards=1),
                nodes=1,
                workers_per_node=settings.workers,
                progress=progress,
            )
        else:
            report = verify_partition(lambda: system, cells, settings, progress=progress)
    campaign_end = time.perf_counter()
    probe.disarm()
    cpu_s = _cpu_seconds() - cpu_before
    wall_s = campaign_end - campaign_start

    record_run(record_from_report(report, kind="verify", run_id=run_id, wall_seconds=wall_s))
    recorder.close()
    set_recorder(None)

    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    counters = report.metrics.get("counters", {})
    out = {
        "setup_s": campaign_start - spawned_at,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "setup_slowdown": probe.slowdown(entered, campaign_start),
        "campaign_slowdown": probe.slowdown(campaign_start, campaign_end),
        "peak_rss_mb": rss_kb / 1024.0,
        "reach_runs": sum(_reach_runs(c) for c in report.cells),
        "coverage_pct": report.coverage_percent(),
        "signatures": [wl.cell_signature(c) for c in report.cells],
        "labels": None if workload == "tiny-smoke" else [
            f"{c.tags['arc']},{c.tags['heading']}" for c in report.cells
        ],
        "quarantined": len(report.quarantined_cells()),
        "counters": {k: int(v) for k, v in counters.items()},
        "expired_leases": report.settings_summary.get("distributed", {}).get("expired_leases", 0),
    }
    if store is not None:
        layers.uninstall(patches)
        store.dump()
        out["layers"] = layers.summarize(layers.load_stores(store.out_dir), campaign_start, wall_s)
        out["layers"]["fleet.leases_expired"] = out["expired_leases"]
        out["wrappers_left"] = layers.installed_wrappers()
    (workdir / "result.json").write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
