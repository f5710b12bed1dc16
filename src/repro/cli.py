"""Command-line interface: ``python -m repro`` / ``repro-nncs``.

Every subcommand is one row of :data:`COMMANDS`, ``name: (help,
add_arguments, handler)``. ``_<name>_arguments(parser)`` adds the
command's flags and sits directly above ``cmd_<name>(args)``, which
returns the exit code; a command whose only flag is ``--scenario`` uses
:func:`_scenario_argument`. :func:`build_parser` and :func:`main` only
loop over the table. Handlers import what they use, so importing this
module stays cheap and loads no SciPy.

``verify`` and ``coordinate`` run campaigns. They share one flag set
(:func:`_campaign_arguments`) and one run shell (:func:`_run_campaign`:
recorder, live telemetry, progress line, report, run summary and ledger
record) and differ only in how the report is produced. ``node`` joins a
``coordinate`` campaign and verifies the scenario the coordinator names.

The commands that take ``--trace-out`` / ``--metrics-out`` /
``--log-level`` (``verify``, ``coordinate``, ``falsify``, ``evaluate``)
install a live :class:`repro.obs.Recorder` for the run and append a
:class:`repro.obs.RunRecord` to the run ledger (``.repro/runs/`` by
default; ``--ledger-dir`` overrides, ``--no-ledger`` disables), which is
what ``report`` and ``compare`` read.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys

import numpy as np

_SCENARIOS = ("tiny", "paper")


def _scenario_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        choices=_SCENARIOS,
        default="tiny",
        help="network/table fidelity (tiny trains in seconds, paper in minutes)",
    )


def _scenario(name: str):
    from .acasxu import PAPER_SCENARIO, TINY_SCENARIO

    return PAPER_SCENARIO if name == "paper" else TINY_SCENARIO


def _bank(name: str):
    """``(networks, tables)`` of scenario ``name``, trained on first use."""
    from .acasxu import load_or_train_networks

    scenario = _scenario(name)
    return load_or_train_networks(scenario.table_config, scenario.network_config)


def _live_dir_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--live-dir",
        help="live-status directory (default: $REPRO_LIVE or .repro/live)",
    )


def _ledger_dir_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger-dir",
        help="run-ledger directory (default: $REPRO_LEDGER or .repro/runs)",
    )


def _obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        help="write a JSONL span/event trace here (see `repro stats`)",
    )
    parser.add_argument(
        "--metrics-out",
        help="write the final metrics snapshot (counters/histograms) as JSON here",
    )
    parser.add_argument(
        "--log-level",
        choices=["debug", "info", "warning", "error"],
        default=None,
        help="logging level for the repro.* loggers (default: warning)",
    )
    _ledger_dir_argument(parser)
    parser.add_argument(
        "--no-ledger",
        action="store_true",
        help="do not append this run to the ledger",
    )


def _setup_observability(args: argparse.Namespace):
    """Install a live recorder per the obs flags; returns it (or the
    ambient no-op recorder when no flag was passed)."""
    from .obs import Recorder, get_recorder, set_recorder

    if getattr(args, "log_level", None):
        logging.basicConfig(
            level=getattr(logging, args.log_level.upper()),
            format="%(asctime)s %(levelname)s %(name)s %(message)s",
            stream=sys.stderr,
        )
        logging.getLogger("repro").setLevel(getattr(logging, args.log_level.upper()))
    if getattr(args, "trace_out", None) or getattr(args, "metrics_out", None):
        recorder = Recorder(trace_path=args.trace_out)
        set_recorder(recorder)
        return recorder
    return get_recorder()


def _teardown_observability(args: argparse.Namespace, recorder) -> None:
    from .obs import set_recorder

    if not recorder.enabled:
        return
    if getattr(args, "metrics_out", None):
        recorder.metrics.to_json(args.metrics_out)
        print(f"metrics written to {args.metrics_out}", file=sys.stderr)
    recorder.close()
    set_recorder(None)
    if getattr(args, "trace_out", None):
        print(f"trace written to {args.trace_out}", file=sys.stderr)


def _append_ledger(args: argparse.Namespace, record) -> None:
    """Append ``record`` to the run ledger (best-effort: a full disk or
    read-only checkout must never fail the run itself)."""
    if getattr(args, "no_ledger", False):
        return
    from .obs import record_run

    try:
        path = record_run(record, root=getattr(args, "ledger_dir", None))
    except OSError as error:
        print(f"warning: could not append run ledger record: {error}", file=sys.stderr)
        return
    print(f"ledger record: {path}", file=sys.stderr)


def _record_run(
    args: argparse.Namespace,
    kind: str,
    recorder,
    started: float,
    config: dict,
    extra: dict,
    verdicts: dict | None = None,
) -> None:
    """Append a run that produced no verification report (``falsify``,
    ``evaluate``) to the ledger, then tear down its recorder."""
    import time

    from .obs import RunRecord, git_revision, new_run_id, phases_from_metrics

    snapshot = recorder.metrics.snapshot() if recorder.enabled else {}
    record = RunRecord(
        run_id=new_run_id(kind),
        kind=kind,
        started_at=time.time(),
        wall_seconds=time.perf_counter() - started,
        git_sha=git_revision(),
        config={"scenario": args.scenario, **config},
        verdicts=verdicts or {},
        phases=phases_from_metrics(snapshot),
        counters=dict(snapshot.get("counters") or {}),
        extra=extra,
    )
    _append_ledger(args, record)
    _teardown_observability(args, recorder)


def _campaign_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags ``verify`` and ``coordinate`` share, then the obs flags."""
    _scenario_argument(parser)
    parser.add_argument("--arcs", type=int, default=24,
                        help="position-angle arcs of the sensor circle")
    parser.add_argument("--headings", type=int, default=6,
                        help="heading slices of the inward cone per arc")
    parser.add_argument("--depth", type=int, default=2, help="split-refinement depth")
    parser.add_argument("--substeps", type=int, default=10, help="the paper's M")
    parser.add_argument("--gamma", type=int, default=5, help="the paper's Gamma")
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-cell wall-clock budget, enforced where the cell runs; "
        "overruns quarantine as timed-out (a serial campaign then runs "
        "its cells one at a time)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="campaign wall-clock budget; once exceeded, a serial campaign "
        "stops at the next wave boundary and a pool stops dispatching, "
        "and the finished cells make a partial report",
    )
    parser.add_argument(
        "--max-retries", type=int, default=1,
        help="retries for a cell whose worker crashed before it is "
        "quarantined as aborted",
    )
    parser.add_argument(
        "--journal", metavar="PATH",
        help="checkpoint journal path: each finished cell is appended, and "
        "an existing journal resumes (a distributed campaign defaults to "
        ".repro/distributed/<run-id>.jsonl and also restores lease epochs)",
    )
    parser.add_argument(
        "--num-shards", type=int, default=None, metavar="K",
        help="distributed shard count (default: sized from the node count; "
        "more shards = finer work stealing)",
    )
    parser.add_argument(
        "--lease-timeout", type=float, default=10.0, metavar="SECONDS",
        help="distributed: node silence before its shard lease expires and "
        "the work is stolen",
    )
    parser.add_argument("--out", help="write the JSON report here")
    parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve the live snapshot over HTTP on 127.0.0.1:PORT "
        "(0 = ephemeral): /status.json is JSON, /metrics is Prometheus "
        "text format",
    )
    parser.add_argument(
        "--no-live", action="store_true",
        help="disable live telemetry (heartbeats and .repro/live status files)",
    )
    parser.add_argument(
        "--live-interval", type=float, default=1.0, metavar="SECONDS",
        help="worker heartbeat / status.json rewrite period",
    )
    _live_dir_argument(parser)
    _obs_arguments(parser)


def _distributed_journal(args: argparse.Namespace, run_id: str) -> str:
    return args.journal or os.path.join(".repro", "distributed", f"{run_id}.jsonl")


def _run_campaign(args: argparse.Namespace, kind: str, workers: int, execute) -> int:
    """Run one campaign: everything around
    ``execute(runner_settings, run_id, progress) -> VerificationReport``."""
    import contextlib
    import time

    from .core import ReachSettings, RefinementPolicy, RunnerSettings
    from .experiments import render_report
    from .obs import (
        CampaignProgress,
        LiveTelemetry,
        Recorder,
        TelemetrySettings,
        new_run_id,
        record_from_report,
        set_recorder,
    )

    # Settings validation lives in RunnerSettings.__post_init__ — one
    # authority for the CLI and programmatic callers alike. The CLI's
    # job is only to translate the failure into flag language.
    try:
        runner = RunnerSettings(
            reach=ReachSettings(
                substeps=args.substeps, max_symbolic_states=args.gamma
            ),
            refinement=RefinementPolicy(dims=(0, 1, 2), max_depth=args.depth),
            workers=workers,
            cell_timeout=args.cell_timeout,
            deadline=args.deadline,
            max_retries=args.max_retries,
        )
    except ValueError as error:
        print(
            f"error: {error} (check --workers, --cell-timeout, --deadline, "
            "--max-retries)",
            file=sys.stderr,
        )
        return 2

    recorder = _setup_observability(args)
    if not recorder.enabled:
        # Metrics are always on for campaigns: the run summary's cell
        # times are sourced from them. Without --trace-out no trace
        # file is written.
        recorder = Recorder()
        set_recorder(recorder)

    # Mint the run id before the campaign so the live-status directory
    # (.repro/live/<run-id>/) and the ledger record share one name.
    run_id = new_run_id(kind)
    live: LiveTelemetry | None = None
    if not args.no_live:
        try:
            live = LiveTelemetry(
                run_id,
                TelemetrySettings(
                    interval=args.live_interval,
                    root=args.live_dir,
                    metrics_port=args.metrics_port,
                ),
                recorder=recorder,
            )
        except OSError as error:
            # A read-only checkout must not stop a verification run.
            print(f"warning: live telemetry disabled: {error}", file=sys.stderr)

    progress = CampaignProgress(stream=sys.stderr)
    if live is not None:
        print(f"live status: {live.status_path} (`repro watch {run_id}`)",
              file=sys.stderr)
        if live.server is not None:
            print(f"metrics endpoint: {live.server.url} "
                  "(/status.json, /metrics)", file=sys.stderr)
    started = time.perf_counter()
    with live if live is not None else contextlib.nullcontext():
        report = execute(runner, run_id, progress)
    wall = time.perf_counter() - started
    print(render_report(report))

    counts = report.verdict_counts()
    print("\nrun summary:")
    verdict_line = (
        f"  cells: {counts['proved']} proved, {counts['unproved']} unproved, "
        f"{counts['witnessed']} witnessed"
    )
    for verdict in ("aborted", "timed-out"):
        if counts[verdict]:
            verdict_line += f", {counts[verdict]} {verdict}"
    print(f"{verdict_line} (of {report.total_cells})")
    interrupted = report.settings_summary.get("interrupted")
    if interrupted:
        print(f"  INTERRUPTED ({interrupted}): partial report — "
              "finished cells only")
    print(f"  wall time: {wall:.2f}s ({workers} workers)")
    cell_hist = recorder.metrics.histograms.get("cell.seconds")
    if cell_hist is not None and cell_hist.count:
        print(
            f"  cell time: p50 {cell_hist.p50:.3f}s, p95 {cell_hist.p95:.3f}s, "
            f"max {cell_hist.max_value:.3f}s over {cell_hist.count} reach runs"
        )
    stats = report.settings_summary.get("distributed")
    if stats is not None:
        print(f"  nodes: {', '.join(stats['nodes_seen']) or 'none'}; "
              f"grants: {stats['grants']}, expired leases: "
              f"{stats['expired_leases']}, stolen cells: {stats['stolen_cells']}, "
              f"fenced frames: {stats['fenced_frames']}")
    if args.out:
        report.to_json(args.out)
        print(f"\nreport written to {args.out}")

    extra = {
        key: value
        for key, value in (
            ("trace", args.trace_out),
            ("metrics", args.metrics_out),
            ("report", args.out),
            ("journal", report.settings_summary.get("journal")),
        )
        if value
    }
    if live is not None:
        extra["live_status"] = str(live.status_path)
    record = record_from_report(
        report,
        kind=kind,
        run_id=run_id,
        config={
            "scenario": args.scenario,
            "arcs": args.arcs,
            "headings": args.headings,
            "depth": args.depth,
            "substeps": args.substeps,
            "gamma": args.gamma,
            "workers": workers,
            "cell_timeout": args.cell_timeout,
            "deadline": args.deadline,
            "max_retries": args.max_retries,
        },
        wall_seconds=wall,
        extra=extra,
    )
    _append_ledger(args, record)
    _teardown_observability(args, recorder)
    return 0


def _resolve_node_count(spec: str, workers_per_node: int) -> int:
    """``--distributed auto`` → enough nodes to use the machine without
    oversubscribing: one coordinator plus nodes of `workers_per_node`."""
    if spec != "auto":
        count = int(spec)
        if count < 1:
            raise ValueError("--distributed needs at least one node")
        return count
    cores = os.cpu_count() or 2
    return max(2, min(8, (cores - 1) // max(1, workers_per_node)))


def _verify_arguments(parser: argparse.ArgumentParser) -> None:
    _campaign_arguments(parser)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (with --distributed: per node)")
    parser.add_argument(
        "--distributed", nargs="?", const="auto", default=None, metavar="N",
        help="run the campaign as one loopback coordinator plus N forked "
        "node agents (bare flag = auto-size from CPU count); --workers "
        "then means workers per node. Results are deterministic: the "
        "merged journal and report match a single-host run",
    )


def cmd_verify(args: argparse.Namespace) -> int:
    """Verify the partition on this machine: serially, on a worker
    pool, or (``--distributed``) by a loopback coordinator with forked
    node agents, whose journal and report match a single-host run."""

    def execute(runner, run_id, progress):
        from .experiments import ExperimentConfig, run_experiment

        config = ExperimentConfig(
            name="cli",
            scenario=_scenario(args.scenario),
            num_arcs=args.arcs,
            num_headings=args.headings,
            runner=runner,
        )
        if args.distributed is None:
            return run_experiment(config, progress=progress, journal=args.journal)

        from .acasxu import build_system, initial_cells
        from .core import DistributedSettings, run_distributed

        report = run_distributed(
            lambda: build_system(config.scenario),
            initial_cells(config.num_arcs, config.num_headings),
            _distributed_journal(args, run_id),
            settings=runner,
            dist=DistributedSettings(
                num_shards=args.num_shards,
                lease_timeout=args.lease_timeout,
            ),
            nodes=_resolve_node_count(args.distributed, args.workers),
            workers_per_node=args.workers,
            progress=progress,
        )
        report.system_name = f"acasxu/{config.name}"
        report.settings_summary["num_arcs"] = config.num_arcs
        report.settings_summary["num_headings"] = config.num_headings
        return report

    return _run_campaign(args, "verify", args.workers, execute)


def _coordinate_arguments(parser: argparse.ArgumentParser) -> None:
    _campaign_arguments(parser)
    parser.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="bind address (port 0 = ephemeral, printed on startup)",
    )
    parser.add_argument(
        "--nodes", type=int, default=0, metavar="N",
        help="hold all grants until N node agents have connected "
        "(default 0 = grant as nodes arrive)",
    )


def cmd_coordinate(args: argparse.Namespace) -> int:
    """Listen for node agents and drive one distributed campaign."""

    def execute(runner, run_id, progress):
        from .acasxu import initial_cells
        from .core import Coordinator, DistributedSettings

        coordinator = Coordinator(
            initial_cells(args.arcs, args.headings),
            _distributed_journal(args, run_id),
            settings=runner,
            dist=DistributedSettings(
                listen=args.listen,
                num_shards=args.num_shards,
                expected_nodes=args.nodes,
                lease_timeout=args.lease_timeout,
            ),
            progress=progress,
            # The nodes build the scenario the welcome names.
            welcome_config={"scenario": args.scenario},
        )
        host, port = coordinator.start()
        print(f"coordinator listening on {host}:{port} "
              f"(connect node agents with `repro node --connect {host}:{port}`)",
              file=sys.stderr)
        return coordinator.serve()

    # The nodes bring their own pools; the coordinator runs no cell.
    return _run_campaign(args, "coordinate", 1, execute)


def _node_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address (printed by `repro coordinate`)",
    )
    parser.add_argument("--workers", type=int, default=1,
                        help="local worker-pool size")
    parser.add_argument(
        "--node-id", default=None,
        help="stable node name shown in `repro watch` (default node-<pid>)",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=0.5, metavar="SECONDS",
        help="heartbeat period (keep well under the coordinator's "
        "--lease-timeout)",
    )


def cmd_node(args: argparse.Namespace) -> int:
    """Join a distributed campaign as one node agent, verifying the
    scenario the coordinator's welcome names."""
    from .core import run_node
    from .core.node import NodeSettings
    from .core.wire import FrameError

    def factory_from_config(config: dict):
        name = config.get("scenario")
        if name not in _SCENARIOS:
            raise FrameError(
                f"the coordinator's welcome names no known scenario (got {name!r})"
            )
        from .acasxu import build_system

        scenario = _scenario(name)
        return lambda: build_system(scenario)

    try:
        outcome = run_node(
            NodeSettings(
                connect=args.connect,
                node_id=args.node_id,
                workers=args.workers,
                heartbeat_interval=args.heartbeat_interval,
            ),
            factory_from_config=factory_from_config,
        )
    except (OSError, EOFError, FrameError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"{outcome.node_id}: {outcome.cells_computed} cells over "
          f"{outcome.shards_completed} shards"
          + (f", fenced {outcome.fenced}x" if outcome.fenced else ""))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from .acasxu import normalize_inputs

    networks, tables = _bank(args.scenario)
    rng = np.random.default_rng(0)
    agree = 0
    trials = 1000
    for _ in range(trials):
        rho = rng.uniform(500, 10000)
        theta = rng.uniform(-math.pi, math.pi)
        psi = rng.uniform(-3.5, 3.5)
        prev = int(rng.integers(5))
        x = normalize_inputs(np.array([rho, theta, psi, 700.0, 600.0]))
        net = int(np.argmin(networks[prev].forward(x)))
        table = int(np.argmin(tables.scores(prev, rho, theta, psi)))
        agree += net == table
    print(f"networks ready ({args.scenario}); argmin agreement with tables: "
          f"{100.0 * agree / trials:.1f}%")
    return 0


def _show_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("report")
    parser.add_argument("--svg", help="also write the polar map as SVG here")


def cmd_show(args: argparse.Namespace) -> int:
    from .core import VerificationReport
    from .experiments import render_report, write_fig9a_svg

    report = VerificationReport.from_json(args.report)
    print(render_report(report))
    if args.svg:
        write_fig9a_svg(report, args.svg)
        print(f"\npolar safety map written to {args.svg}")
    return 0


def _falsify_arguments(parser: argparse.ArgumentParser) -> None:
    _scenario_argument(parser)
    parser.add_argument("--population", type=int, default=40)
    parser.add_argument("--generations", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    _obs_arguments(parser)


def cmd_falsify(args: argparse.Namespace) -> int:
    import time

    from .acasxu import build_system, encounter_state
    from .baselines import cross_entropy_falsification, min_distance_robustness
    from .intervals import Box

    recorder = _setup_observability(args)
    started = time.perf_counter()
    system = build_system(_scenario(args.scenario))
    result = cross_entropy_falsification(
        system,
        Box([-math.pi, -math.pi / 2], [math.pi, math.pi / 2]),
        lambda params: (encounter_state(*params), 0),
        robustness=min_distance_robustness((0, 1), 500.0),
        population=args.population,
        generations=args.generations,
        seed=args.seed,
    )
    print(f"trajectories run: {result.trajectories_run}")
    print(f"best robustness (min distance - 500 ft): {result.best_robustness:.1f}")
    if result.falsified:
        phi, delta = result.witness_params
        print(
            f"COUNTEREXAMPLE: intruder entering at bearing {math.degrees(phi):.1f}° "
            f"with heading offset {math.degrees(delta):.1f}° collides at "
            f"t = {result.witness.error_time:.1f}s"
        )
    else:
        print("no counterexample found")

    _record_run(
        args, "falsify", recorder, started,
        config={
            "population": args.population,
            "generations": args.generations,
            "seed": args.seed,
        },
        verdicts={"witnessed": int(result.falsified)},
        extra={
            "trajectories_run": result.trajectories_run,
            "best_robustness": result.best_robustness,
            "falsified": result.falsified,
        },
    )
    return 0


def _simulate_arguments(parser: argparse.ArgumentParser) -> None:
    _scenario_argument(parser)
    parser.add_argument("--bearing", type=float, default=0.0,
                        help="intruder entry bearing in degrees (0 = ahead)")
    parser.add_argument("--heading-offset", type=float, default=0.0,
                        help="offset from directly-inward heading, degrees")


def cmd_simulate(args: argparse.Namespace) -> int:
    from .acasxu import ADVISORIES, build_system, encounter_state
    from .baselines import simulate

    system = build_system(_scenario(args.scenario))
    state = encounter_state(
        math.radians(args.bearing), math.radians(args.heading_offset)
    )
    trajectory = simulate(system, state, 0)
    print("  t    x        y        rho      advisory")
    for j, command in enumerate(trajectory.commands):
        idx = j * 10
        s = trajectory.states[idx]
        rho = math.hypot(s[0], s[1])
        print(
            f"  {trajectory.times[idx]:4.1f} {s[0]:8.0f} {s[1]:8.0f} "
            f"{rho:8.0f}  {ADVISORIES[command]}"
        )
    distances = np.hypot(trajectory.states[:, 0], trajectory.states[:, 1])
    print(f"minimum separation: {float(distances.min()):.0f} ft "
          f"({'COLLISION' if trajectory.reached_error else 'safe'})")
    return 0


def cmd_fig7(args: argparse.Namespace) -> int:
    from .acasxu import build_system
    from .experiments import fig7_substep_ablation, render_fig7

    system = build_system(_scenario(args.scenario))
    rows = fig7_substep_ablation(system)
    print(render_fig7(rows))
    return 0


def _props_arguments(parser: argparse.ArgumentParser) -> None:
    _scenario_argument(parser)
    parser.add_argument("--verbose", action="store_true")


def cmd_props(args: argparse.Namespace) -> int:
    from .acasxu.properties import check_catalog, standard_properties

    networks, _tables = _bank(args.scenario)
    result = check_catalog(networks)
    for prop in standard_properties():
        outcome = result.results[prop.name]
        line = f"{prop.name}: {outcome.outcome.value}"
        if outcome.witness is not None and args.verbose:
            line += f"  witness(normalized)={np.round(outcome.witness, 4).tolist()}"
        print(line)
    print(
        f"\n{len(result.verified_names())} verified, "
        f"{len(result.falsified_names())} falsified "
        "(falsified phi-properties localize where the distilled "
        "networks deviate from the tables)"
    )
    return 0


def _evaluate_arguments(parser: argparse.ArgumentParser) -> None:
    _scenario_argument(parser)
    parser.add_argument("--encounters", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threat-fraction", type=float, default=0.5)
    _obs_arguments(parser)


def cmd_evaluate(args: argparse.Namespace) -> int:
    import time

    from .acasxu import build_system, evaluate_controller

    recorder = _setup_observability(args)
    started = time.perf_counter()
    system = build_system(_scenario(args.scenario))
    stats = evaluate_controller(
        system,
        encounters=args.encounters,
        seed=args.seed,
        threat_fraction=args.threat_fraction,
    )
    print(f"encounters: {stats.encounters} "
          f"({args.threat_fraction:.0%} collision-course biased)")
    print(f"NMACs unequipped: {stats.nmacs_without_system}")
    print(f"NMACs equipped:   {stats.nmacs_with_system}")
    ratio = stats.risk_ratio
    print(f"risk ratio: {'n/a' if ratio == float('inf') else f'{ratio:.3f}'}")
    print(f"alert rate: {stats.alert_rate:.1%}, "
          f"mean alert duration: {stats.mean_alert_steps:.1f} steps")
    print(f"mean minimum separation: {stats.mean_min_separation_ft:.0f} ft")

    _record_run(
        args, "evaluate", recorder, started,
        config={
            "encounters": args.encounters,
            "seed": args.seed,
            "threat_fraction": args.threat_fraction,
        },
        extra={
            "nmacs_without_system": stats.nmacs_without_system,
            "nmacs_with_system": stats.nmacs_with_system,
            "alert_rate": stats.alert_rate,
            "mean_min_separation_ft": stats.mean_min_separation_ft,
        },
    )
    return 0


def _stats_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "trace", nargs="?", help="trace file written via --trace-out"
    )
    parser.add_argument(
        "--metrics", help="metrics snapshot written via --metrics-out"
    )
    parser.add_argument(
        "--top", type=int, default=10, help="how many slowest cells to list"
    )
    parser.add_argument(
        "--live", metavar="RUN",
        help="print one watch-style frame for this run id / directory / "
        "status.json instead of summarizing a trace",
    )
    _live_dir_argument(parser)


def cmd_stats(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .obs import render_stats, summarize_trace_file

    if args.live:
        # One `repro watch` frame of a (possibly still running)
        # campaign, without the TTY loop — pipe/cron friendly.
        return cmd_watch(
            argparse.Namespace(run=args.live, live_dir=args.live_dir, once=True)
        )
    if not args.trace:
        print(
            "error: pass a trace file, or --live <run-id|path> for a "
            "live-campaign snapshot",
            file=sys.stderr,
        )
        return 1
    trace_path = Path(args.trace)
    if not trace_path.exists():
        print(f"error: no such trace: {trace_path}", file=sys.stderr)
        return 1
    try:
        summary = summarize_trace_file(trace_path, top_cells=args.top)
    except OSError as error:
        print(f"error: could not read trace {trace_path}: {error}", file=sys.stderr)
        return 1
    if summary.events == 0:
        detail = (
            f"all {summary.malformed_lines} lines malformed"
            if summary.malformed_lines
            else "no events"
        )
        print(f"error: empty trace: {trace_path} ({detail})", file=sys.stderr)
        return 1
    metrics_snapshot = None
    if args.metrics:
        try:
            with open(args.metrics) as handle:
                metrics_snapshot = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(
                f"error: could not read metrics snapshot {args.metrics}: {error}",
                file=sys.stderr,
            )
            return 1
    print(f"trace: {trace_path}")
    print(render_stats(summary, metrics_snapshot))
    return 0


def _watch_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "run", nargs="?",
        help="run id, run directory, or status.json path (default: the "
        "newest live run, preferring one still running)",
    )
    _live_dir_argument(parser)
    parser.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh period",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="print a single frame and exit (no screen clearing)",
    )


def cmd_watch(args: argparse.Namespace) -> int:
    import json
    import time

    from .obs import list_live_runs, read_status, render_watch

    ref = args.run
    if not ref:
        runs = list_live_runs(args.live_dir)
        if not runs:
            from .obs import live_root

            print(
                f"error: no live runs under {live_root(args.live_dir)} "
                "(start one with `repro verify`)",
                file=sys.stderr,
            )
            return 1
        # Prefer a campaign that is still going; else show the newest.
        running = [r for r in runs if r.get("state") in ("running", "starting")]
        ref = (running[0] if running else runs[0])["run_id"]

    def load() -> dict | None:
        try:
            return read_status(ref, root=args.live_dir)
        except (FileNotFoundError, ValueError, json.JSONDecodeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return None

    status = load()
    if status is None:
        return 1
    if args.once:
        print(render_watch(status))
        return 0
    try:
        while True:
            # Clear + home; re-rendering the whole frame keeps the view
            # consistent however the terminal got resized.
            sys.stdout.write("\x1b[2J\x1b[H" + render_watch(status) + "\n")
            sys.stdout.flush()
            if status.get("state") in ("finished", "interrupted"):
                return 0
            time.sleep(args.interval)
            status = load()
            if status is None:
                return 1
    except KeyboardInterrupt:
        print()
        return 0


def _load_ledger_records(args: argparse.Namespace, refs: list[str]):
    """Resolve run references (ids / paths / ``latest``) into records,
    oldest first. Prints a one-line error and returns None on failure."""
    import json

    from .obs import load_run, query_runs

    root = getattr(args, "ledger_dir", None)
    try:
        if refs:
            records = [load_run(ref, root=root) for ref in refs]
        else:
            entries = query_runs(root, limit=getattr(args, "last", 10))
            records = [load_run(e["run_id"], root=root) for e in entries]
    except (FileNotFoundError, ValueError, json.JSONDecodeError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    if not records:
        from .obs import ledger_root

        print(
            f"error: no runs in ledger {ledger_root(root)} "
            "(run `repro verify` first, or pass record paths)",
            file=sys.stderr,
        )
        return None
    records.sort(key=lambda r: (r.started_at, r.run_id))
    return records


def _report_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "runs",
        nargs="*",
        help="run ids, record paths, or `latest[:kind]` (default: last N runs)",
    )
    _ledger_dir_argument(parser)
    parser.add_argument(
        "--last", type=int, default=10,
        help="with no explicit runs: use the newest N ledger runs",
    )
    parser.add_argument(
        "--trace",
        help="JSONL trace for the flamegraph (default: the primary "
        "record's recorded trace path, if it still exists)",
    )
    parser.add_argument(
        "--report-json",
        help="verification report JSON to inline as the Fig. 9a safety map",
    )
    parser.add_argument(
        "--out", default="report.html", help="output HTML path"
    )


def cmd_report(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .obs import read_trace, render_html_report

    records = _load_ledger_records(args, args.runs)
    if records is None:
        return 1
    primary = records[-1]

    trace_events = None
    trace_ref = args.trace or primary.extra.get("trace")
    if trace_ref:
        trace_path = Path(trace_ref)
        if trace_path.exists():
            trace_events = list(read_trace(trace_path))
        elif args.trace:
            print(f"error: no such trace: {trace_path}", file=sys.stderr)
            return 1
        else:
            print(
                f"note: trace {trace_path} from the ledger record is gone; "
                "skipping the flamegraph",
                file=sys.stderr,
            )

    figures = []
    report_ref = args.report_json or primary.extra.get("report")
    if report_ref and Path(report_ref).exists():
        from .core import VerificationReport
        from .experiments import render_fig9a_svg

        try:
            verification = VerificationReport.from_json(report_ref)
        except (json.JSONDecodeError, KeyError, ValueError) as error:
            print(
                f"error: could not read report JSON {report_ref}: {error}",
                file=sys.stderr,
            )
            return 1
        figures.append(
            (
                f"Fig. 9a safety map ({report_ref})",
                render_fig9a_svg(verification),
            )
        )
    elif args.report_json:
        print(f"error: no such report JSON: {args.report_json}", file=sys.stderr)
        return 1

    html = render_html_report(
        records,
        trace_events=trace_events,
        figures=figures,
        title=f"repro {primary.kind} report — {primary.run_id}",
    )
    out = Path(args.out)
    out.write_text(html)
    print(f"report written to {out} ({len(records)} runs, {len(html)} bytes)")
    return 0


def _compare_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "runs",
        nargs="*",
        help="BASELINE [CANDIDATE]: run ids, record paths, or `latest[:kind]` "
        "(candidate defaults to the newest ledger run)",
    )
    parser.add_argument(
        "--baseline",
        help="baseline record path (e.g. benchmarks/baseline.json); the "
        "positional then names the candidate",
    )
    _ledger_dir_argument(parser)
    parser.add_argument(
        "--threshold", type=float, default=1.25,
        help="flag a phase slower than baseline by more than this factor",
    )
    parser.add_argument(
        "--min-seconds", type=float, default=0.05,
        help="ignore phases whose candidate total is below this (noise floor)",
    )
    parser.add_argument(
        "--coverage-tolerance", type=float, default=0.0,
        help="allowed coverage drop in percentage points",
    )


def cmd_compare(args: argparse.Namespace) -> int:
    import json

    from .obs import compare_records, load_run, render_comparison

    refs = list(args.runs)
    if args.baseline:
        baseline_ref = args.baseline
        candidate_ref = refs[0] if refs else "latest"
    elif len(refs) >= 2:
        baseline_ref, candidate_ref = refs[0], refs[1]
    elif len(refs) == 1:
        baseline_ref, candidate_ref = refs[0], "latest"
    else:
        print(
            "error: nothing to compare — pass BASELINE [CANDIDATE] or "
            "--baseline path/to/baseline.json",
            file=sys.stderr,
        )
        return 1

    try:
        baseline = load_run(baseline_ref, root=args.ledger_dir)
        candidate = load_run(candidate_ref, root=args.ledger_dir)
    except (FileNotFoundError, ValueError, json.JSONDecodeError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    comparison = compare_records(
        baseline,
        candidate,
        threshold=args.threshold,
        min_seconds=args.min_seconds,
        coverage_tolerance=args.coverage_tolerance,
    )
    print(render_comparison(comparison))
    return 0 if comparison.ok else 2


def _check_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to check (default: src/repro; "
        "directories are filtered by the [tool.repro.soundness] policy, "
        "explicit files are always checked)",
    )
    parser.add_argument(
        "--format", choices=["text", "json", "github", "sarif"], default="text",
        help="output format (github emits workflow annotations, "
        "sarif emits SARIF 2.1.0 for code-scanning upload)",
    )
    parser.add_argument(
        "--baseline",
        help="baseline JSON path (default: soundness-baseline.json if present)",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline; report every finding as new",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--select", action="append",
        help="only run these rule codes (repeatable or comma-separated, "
        "e.g. --select S001,S004)",
    )
    parser.add_argument(
        "--changed-only", action="store_true",
        help="report findings only in files changed vs HEAD "
        "(git diff --name-only; the whole-program analysis still runs)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-hash analysis cache",
    )
    parser.add_argument(
        "--cache",
        help="analysis cache path (default: .repro/check-cache.json)",
    )


def cmd_check(args: argparse.Namespace) -> int:
    from .analysis.cli import run_check

    return run_check(
        paths=args.paths,
        fmt=args.format,
        baseline_path=args.baseline,
        no_baseline=args.no_baseline,
        update_baseline=args.update_baseline,
        select=args.select,
        changed_only=args.changed_only,
        no_cache=args.no_cache,
        cache_path=args.cache,
    )


def _export_arguments(parser: argparse.ArgumentParser) -> None:
    _scenario_argument(parser)
    parser.add_argument("directory")


def cmd_export(args: argparse.Namespace) -> int:
    from .acasxu.export import export_bank

    networks, _tables = _bank(args.scenario)
    paths = export_bank(networks, args.directory)
    for path in paths:
        print(path)
    print(f"\n{len(paths)} networks written in .nnet format")
    return 0


#: name -> (help, add_arguments(parser), handler(args) -> exit code), in
#: ``--help`` order.
COMMANDS = {
    "train": ("build the tables and network bank", _scenario_argument, cmd_train),
    "verify": ("run a partition verification", _verify_arguments, cmd_verify),
    "coordinate": (
        "host a distributed campaign: shard the partition, lease shards to "
        "connecting node agents, steal work from lost nodes",
        _coordinate_arguments,
        cmd_coordinate,
    ),
    "node": (
        "join a distributed campaign as a node agent (verifies leased "
        "shards of the coordinator's scenario on a local worker pool)",
        _node_arguments,
        cmd_node,
    ),
    "show": ("render a saved JSON report", _show_arguments, cmd_show),
    "falsify": ("search for counterexamples", _falsify_arguments, cmd_falsify),
    "simulate": ("run one concrete encounter", _simulate_arguments, cmd_simulate),
    "fig7": ("substep-tightness ablation", _scenario_argument, cmd_fig7),
    "props": (
        "check the phi-style property catalog on the bank",
        _props_arguments,
        cmd_props,
    ),
    "evaluate": (
        "Monte-Carlo operational evaluation (risk ratio)",
        _evaluate_arguments,
        cmd_evaluate,
    ),
    "stats": (
        "summarize a JSONL trace (phase timings, slowest cells) or a live "
        "campaign snapshot (--live)",
        _stats_arguments,
        cmd_stats,
    ),
    "watch": (
        "follow a running campaign live (worker table, verdict bar, stall "
        "detection)",
        _watch_arguments,
        cmd_watch,
    ),
    "report": (
        "render ledger runs as a self-contained HTML dashboard",
        _report_arguments,
        cmd_report,
    ),
    "compare": (
        "diff two ledger runs; non-zero exit on perf/coverage regression",
        _compare_arguments,
        cmd_compare,
    ),
    "check": (
        "soundness lint: interprocedural directed-rounding discipline "
        "(rules S001-S008) plus the concurrency-safety pass (C001-C005)",
        _check_arguments,
        cmd_check,
    ),
    "export": ("write the trained bank as .nnet files", _export_arguments, cmd_export),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-nncs",
        description="Safety verification of neural network controlled systems "
        "(reproduction of Claviere et al., DSN 2021)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _handler) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][2](args)
    except BrokenPipeError:
        # ``repro stats ... | head`` closing stdout early is not an error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
