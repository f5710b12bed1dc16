"""Fault-tolerant campaign execution: the supervised worker pool.

The paper's full evaluation ran for ~12 days (Section 7); at that
scale the execution layer — not the mathematics — is what loses
campaigns. The previous driver was a bare ``Pool.imap``: one worker
OOM-kill or segfault raised out of the pool and discarded everything,
and a runaway cell (stiff dynamics, deep refinement) could hang the
campaign forever. This module replaces it with a supervised pool built
on one duplex pipe per worker:

* **Dead-worker detection and respawn** — a worker that exits (crash,
  OOM-kill, segfault) is detected via pipe EOF / ``exitcode``; its
  in-flight cell is retried on a fresh worker up to
  ``RunnerSettings.max_retries`` times with exponential backoff, then
  quarantined as :data:`~repro.core.reach.Verdict.ABORTED` with the
  failure reason in ``tags["failure"]``.
* **Per-cell wall-clock budgets** — ``RunnerSettings.cell_timeout`` is
  enforced twice: inside the worker by a ``SIGALRM``-based
  :func:`budget_guard` (clean ``TIMED_OUT`` result), and externally by
  the supervisor, which kills workers stuck past a grace margin (hangs
  in native code are immune to ``SIGALRM``).
* **Campaign deadline** — ``RunnerSettings.deadline`` stops
  dispatching once exceeded; in-flight cells drain and the caller gets
  a partial report.
* **Graceful shutdown** — SIGINT/SIGTERM stop dispatching, drain
  in-flight cells (a second signal aborts the drain), flush traces,
  and return the partial results so journals and ledgers stay intact.

:func:`run_serial` is the same contract in one process, the executor
for ``workers == 1``: chunks of at most :data:`CHUNK_CELLS` top-level
cells, each one lockstep wave-driver call under the guard a pool
worker gives one cell, with the deadline and SIGINT/SIGTERM checked
before every wave.

Executors only hand each finished cell back through ``on_result``; the
campaign drivers journal it and emit ``cell.finished``.

Cells must degrade to an explicit quarantine verdict; they must never
take the process down. The recovery paths are exercised
deterministically by :mod:`repro.testing.faults`.
"""

from __future__ import annotations

import heapq
import logging
import multiprocessing
import multiprocessing.connection
import os
import signal
import threading
import time
from collections import deque
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Sequence

from ..obs import Recorder, get_recorder, set_recorder, worker_trace_path
from ..obs.live import HeartbeatReporter
from ..testing.faults import get_fault_injector
from .reach import Verdict
from .result import CellResult

logger = logging.getLogger("repro.core.supervisor")

#: A dispatchable unit: (cell_id, box, command, tags).
Task = tuple

#: Supervisor poll tick (seconds): the upper bound on how stale the
#: liveness / deadline bookkeeping can get.
_TICK = 0.1

#: Extra wall-clock slack past ``cell_timeout`` before the supervisor
#: kills a worker: the in-worker guard should fire first; the external
#: kill is the backstop for hangs in native code.
_KILL_GRACE_MIN = 1.0
_KILL_GRACE_FRACTION = 0.5

#: Top-level cells per wave-driver call of the serial executor. Memory
#: grows with the cells in a wave, so a bounded chunk keeps a campaign
#: of any size flat, while 64 cells still stack enough rows per wave:
#: over a 512-cell pool, 64-cell calls took 0.99-1.13x the wall of one
#: whole-pool call.
CHUNK_CELLS = 64


# ----------------------------------------------------------------------
# In-process budget machinery (SIGALRM-based)
# ----------------------------------------------------------------------
class BudgetExceeded(Exception):
    """A wall-clock budget installed by :func:`budget_guard` expired;
    ``scope`` labels the guard."""

    def __init__(self, scope: str, seconds: float):
        super().__init__(f"{scope} wall-clock budget of {seconds:g}s exceeded")
        self.scope = scope
        self.seconds = seconds


def _can_guard() -> bool:
    return (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def budget_guard(seconds: float | None, scope: str = "budget") -> Iterator[None]:
    """Raise :class:`BudgetExceeded` from this block after ``seconds``.

    No-op when ``seconds`` is ``None``/non-positive, off the main
    thread, or on platforms without ``setitimer`` — budgets are a
    best-effort safety net, not a scheduling primitive. One guard at a
    time: guards do not nest.
    """
    if not seconds or seconds <= 0 or not _can_guard():
        yield
        return
    deadline = time.monotonic() + float(seconds)

    def on_alarm(signum, frame) -> None:
        left = deadline - time.monotonic()
        if left > 1e-3:
            # An early or foreign SIGALRM: re-arm for the rest.
            signal.setitimer(signal.ITIMER_REAL, left)
            return
        raise BudgetExceeded(scope, float(seconds))

    previous_handler = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)


# ----------------------------------------------------------------------
# Quarantine: every cell produces a result, whatever happens
# ----------------------------------------------------------------------
def quarantine_result(
    cell_id: str,
    box,
    command: int,
    verdict: Verdict,
    reason: dict,
    elapsed_seconds: float = 0.0,
    attempts: int = 1,
) -> CellResult:
    """A :class:`CellResult` standing in for a cell whose verification
    never completed (crash, timeout, exception). Counts as unproved for
    coverage; the failure detail rides in ``tags["failure"]``."""
    result = CellResult(
        cell_id=cell_id,
        box=box,
        command=command,
        verdict=verdict,
        elapsed_seconds=elapsed_seconds,
        attempts=attempts,
    )
    result.tags["failure"] = reason
    return result


def _quarantine_failure(task: Task, exc: Exception, elapsed: float, attempt: int) -> CellResult:
    """The quarantine result of a cell whose guarded run raised ``exc``:
    ``TIMED_OUT`` when its budget expired, ``ABORTED`` otherwise."""
    cell_id, box, command, _tags = task
    rec = get_recorder()
    if isinstance(exc, BudgetExceeded):
        rec.inc("runner.cells_timed_out")
        rec.event("cell.timeout", cell_id=cell_id, budget_seconds=exc.seconds)
        logger.warning("cell %s exceeded its %.3gs budget; quarantined", cell_id, exc.seconds)
        verdict = Verdict.TIMED_OUT
        reason = {"kind": "timeout", "budget_seconds": exc.seconds, "enforced": "budget-guard"}
    else:
        rec.inc("runner.cells_errored")
        rec.event("cell.error", cell_id=cell_id, error=type(exc).__name__)
        logger.warning(
            "cell %s raised %s: %s; quarantined", cell_id, type(exc).__name__, exc
        )
        verdict = Verdict.ABORTED
        reason = {"kind": "exception", "error": f"{type(exc).__name__}: {exc}"}
    return quarantine_result(
        cell_id, box, command, verdict, reason, elapsed_seconds=elapsed, attempts=attempt + 1
    )


def _run_guarded(
    system,
    chunk: Sequence[Task],
    settings,
    deliver: Callable[[int, CellResult], None],
    stop: Callable[[], bool] | None = None,
    attempt: int = 0,
) -> None:
    """Verify ``chunk`` as one call of the lockstep wave driver, each
    tree handed to ``deliver(slot, result)`` as it finishes, under the
    guard that keeps a cell from taking the campaign down: the
    ``cell_timeout`` budget, the fault hooks of every cell, and
    quarantine instead of a raise.

    If the driver raises, the trees it delivered stay and each
    unfinished cell reruns alone through :func:`run_cell_guarded`, so a
    bad cell ends ``ABORTED`` by itself; a one-cell chunk already ran
    alone, so its failure is its own (``TIMED_OUT`` for an expired
    budget, else ``ABORTED``). ``stop`` is asked before every wave and
    every rerun; an unfinished tree it stops is not delivered. A raise
    out of ``deliver`` (the campaign's journal or socket) propagates.
    """
    from .runner import _verify_cells_lockstep  # deferred: runner imports this module

    injector = get_fault_injector()
    done: set[int] = set()
    # A budgeted chunk is one cell, and its tree is handed on once the
    # guard is off, so the alarm cannot cut a delivery short.
    held: list[tuple[int, CellResult]] = []
    delivering = False

    def on_tree(slot: int, result: CellResult) -> None:
        nonlocal delivering
        result.attempts = attempt + 1
        done.add(slot)
        if settings.cell_timeout:
            held.append((slot, result))
            return
        delivering = True
        deliver(slot, result)
        delivering = False

    started = time.perf_counter()
    try:
        with budget_guard(settings.cell_timeout, scope="cell"):
            if injector is not None:
                for cell_id, *_ in chunk:
                    injector.on_guarded_cell(cell_id, attempt)
            _verify_cells_lockstep(system, chunk, settings, on_tree=on_tree, stop=stop)
    except Exception as exc:
        if delivering:
            raise
        if len(chunk) == 1:
            if not done:  # else the alarm fired after the tree finished
                elapsed = time.perf_counter() - started
                held.append((0, _quarantine_failure(chunk[0], exc, elapsed, attempt)))
        else:
            logger.warning(
                "a %d-cell chunk raised %s: %s; rerunning its unfinished cells alone",
                len(chunk), type(exc).__name__, exc,
            )
            for slot, (cell_id, box, command, _tags) in enumerate(chunk):
                if slot not in done and (stop is None or not stop()):
                    result = run_cell_guarded(system, box, command, settings, cell_id, attempt + 1)
                    deliver(slot, result)
    for slot, result in held:
        deliver(slot, result)


def run_cell_guarded(
    system,
    box,
    command: int,
    settings,
    cell_id: str,
    attempt: int = 0,
) -> CellResult:
    """:func:`~repro.core.runner.verify_cell` under the per-cell guard
    (:func:`_run_guarded` with a one-cell chunk): a cell that exceeds
    ``cell_timeout`` degrades to ``TIMED_OUT``, one that raises degrades
    to ``ABORTED``. Used by every pool worker and for the cells of a
    serial chunk that raised — a cell never takes the campaign down."""
    results: dict[int, CellResult] = {}
    _run_guarded(
        system, [(cell_id, box, command, {})], settings, results.__setitem__,
        attempt=attempt,
    )
    return results[0]


# ----------------------------------------------------------------------
# Graceful shutdown: SIGINT/SIGTERM drain instead of discard
# ----------------------------------------------------------------------
@dataclass
class ShutdownFlag:
    """Set by the signal handler; polled by campaign loops."""

    signum: int | None = None

    @property
    def requested(self) -> bool:
        return self.signum is not None

    @property
    def reason(self) -> str | None:
        if self.signum is None:
            return None
        return f"signal:{signal.Signals(self.signum).name}"


@contextmanager
def trap_shutdown_signals() -> Iterator[ShutdownFlag]:
    """Install drain-on-SIGINT/SIGTERM handlers for the block.

    The first signal sets the flag (loops stop dispatching and drain);
    a second one raises ``KeyboardInterrupt`` so an operator can still
    force a stop. No-op off the main thread — the flag then simply
    never fires."""
    flag = ShutdownFlag()
    if threading.current_thread() is not threading.main_thread():
        yield flag
        return

    def handler(signum, frame):
        if flag.requested:
            raise KeyboardInterrupt
        flag.signum = signum
        # Not logger.warning: the logging module takes a lock, and a
        # handler interrupting a frame that already holds it would
        # deadlock. os.write is async-signal-safe.
        os.write(
            2,
            (
                f"received {signal.Signals(signum).name}: draining "
                "in-flight cells, then stopping (repeat to abort "
                "immediately)\n"
            ).encode(),
        )

    previous = {
        sig: signal.signal(sig, handler) for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        yield flag
    finally:
        for sig, prev in previous.items():
            signal.signal(sig, prev)


def _interruption(stop: ShutdownFlag, deadline_at: float | None) -> str | None:
    """Why a campaign must stop dispatching now (None = keep going)."""
    if stop.requested:
        return stop.reason
    if deadline_at is not None and time.monotonic() >= deadline_at:
        return "deadline"
    return None


def _announce_interruption(reason: str, dropped: int) -> None:
    get_recorder().event("campaign.interrupted", reason=reason, dropped_cells=dropped)


# ----------------------------------------------------------------------
# The worker process
# ----------------------------------------------------------------------
def _worker_main(
    worker_id: int,
    conn,
    system_factory: Callable[[], object],
    settings,
    parent_trace: str | None,
    observe: bool,
    heartbeat: float | None = None,
) -> None:
    # The parent owns shutdown: a terminal Ctrl-C lands on the whole
    # process group, so workers ignore SIGINT and let the supervisor
    # drain them.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # If the supervisor dies without cleanup (os._exit, SIGKILL, OOM),
    # the worker must not linger: the forked child holds its own copy
    # of the pipe's write end, so ``conn.recv()`` below would never see
    # EOF and the orphan would sit forever — still pinning every fd it
    # inherited (in a distributed campaign, the node's coordinator
    # socket, which keeps the dead node looking alive). Watch the
    # parent's sentinel and exit the moment it fires.
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=lambda: (
                multiprocessing.connection.wait([parent.sentinel]),
                os._exit(1),
            ),
            daemon=True,
            name="parent-watchdog",
        ).start()
    # The forked child inherits the parent's recorder: its open trace
    # file descriptor, which must not be shared, and its subscribers,
    # which hold parent-owned file handles and server threads. Install
    # a fresh per-worker recorder writing to its own JSONL file; worker
    # liveness flows back through the pipe instead.
    if observe:
        trace = worker_trace_path(Path(parent_trace)) if parent_trace is not None else None
        set_recorder(Recorder(trace_path=trace))
        get_recorder().event("worker.start", worker=worker_id, pid=os.getpid())
    else:
        set_recorder(None)

    # The heartbeat thread and the main loop share the pipe; pickling
    # two messages concurrently onto one fd would interleave them.
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            conn.send(message)

    try:
        system = system_factory()
    except BaseException as exc:  # surfaced as a clear parent-side RuntimeError
        try:
            send(("init_error", worker_id, f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass
        conn.close()
        return
    send(("ready", worker_id, os.getpid()))
    reporter = None
    if heartbeat:
        reporter = HeartbeatReporter(
            lambda payload: send(("heartbeat", worker_id, payload)), heartbeat
        ).start()
    injector = get_fault_injector()
    rec = get_recorder()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break  # parent gone
        if message is None:
            break
        seq, cell_id, box, command, tags, attempt = message
        if reporter is not None:
            reporter.begin_cell(cell_id)
        if injector is not None:
            injector.on_worker_cell(cell_id, attempt)
        result = run_cell_guarded(system, box, command, settings, cell_id, attempt)
        result.tags.update(tags)
        if reporter is not None:
            reporter.end_cell(cell_id)
        delta = None
        if rec.enabled:
            rec.flush()
            # Ship the metrics gathered since the last cell back to the
            # parent; draining keeps deltas disjoint, so the parent can
            # simply fold every payload into its registry.
            delta = rec.metrics.drain()
            if injector is not None:
                delta = injector.corrupt_metrics_payload(cell_id, attempt, delta)
        try:
            send(("result", worker_id, seq, result, delta))
        except OSError:
            break
    if reporter is not None:
        reporter.stop()
    if rec.enabled:
        rec.flush()
    conn.close()


# ----------------------------------------------------------------------
# The supervisor
# ----------------------------------------------------------------------
@dataclass
class _WorkerHandle:
    id: int
    proc: multiprocessing.Process
    conn: multiprocessing.connection.Connection
    ready: bool = False
    #: (seq, hard-kill monotonic deadline or None) of the in-flight cell.
    current: tuple[int, float | None] | None = None


@dataclass
class SupervisorOutcome:
    """What :func:`run_supervised` or :func:`run_serial` produced.

    ``results`` maps task index -> :class:`CellResult` for every cell
    that finished (organically or by quarantine). With no interruption
    it covers every task; after a deadline/signal it is partial.
    """

    results: dict[int, CellResult] = field(default_factory=dict)
    #: None, "deadline", or "signal:<NAME>".
    interrupted: str | None = None
    respawns: int = 0
    retries: int = 0


def _hard_kill_budget(settings) -> float | None:
    if not settings.cell_timeout:
        return None
    return settings.cell_timeout + max(
        _KILL_GRACE_MIN, _KILL_GRACE_FRACTION * settings.cell_timeout
    )


def _terminate(proc: multiprocessing.Process) -> None:
    proc.terminate()
    proc.join(timeout=2.0)
    if proc.is_alive():  # pragma: no cover - stuck in uninterruptible sleep
        proc.kill()
        proc.join(timeout=2.0)


def merge_worker_traces(rec) -> None:
    """Fold per-worker trace files into the parent trace, globally
    ordered by timestamp; the recorder goes on appending to the merged
    file. Safe to call when tracing is off."""
    parent = getattr(rec, "trace_path", None)
    if not (rec.enabled and parent):
        return
    parent_path = Path(parent)
    worker_files = sorted(parent_path.parent.glob(f"{parent_path.stem}.worker-*.jsonl"))
    if not worker_files:
        return
    merged = rec.merge_trace(worker_files)
    rec.event("trace.merged", workers=len(worker_files), events=merged)
    rec.flush()


def run_supervised(
    system_factory: Callable[[], object],
    tasks: Sequence[Task],
    settings,
    on_result: Callable[[int, CellResult, int | None], None] | None = None,
) -> SupervisorOutcome:
    """Run ``tasks`` over a supervised pool of ``settings.workers``
    fork processes.

    ``on_result(task_index, result, worker)`` is called in the
    supervisor loop (parent process, completion order) as each cell
    finishes — the campaign driver's journal and events hang off it.
    ``worker`` is the id of the worker that produced the result, or
    None for a crash or kill quarantine. Worker trace files are
    merged into the parent trace before returning.

    Raises ``RuntimeError`` if a worker's ``system_factory()`` call
    fails: that is a configuration error, not a transient fault.
    """
    rec = get_recorder()
    outcome = SupervisorOutcome()
    total = len(tasks)
    if total == 0:
        return outcome

    parent_trace = str(rec.trace_path) if getattr(rec, "trace_path", None) else None
    ctx = multiprocessing.get_context("fork")
    pool_size = min(settings.workers, total)
    hard_budget = _hard_kill_budget(settings)
    heartbeat = rec.heartbeat_interval

    pending: deque[int] = deque(range(total))
    retry_heap: list[tuple[float, int]] = []  # (due monotonic time, seq)
    attempts: dict[int, int] = {}  # seq -> attempts already burned
    workers: dict[int, _WorkerHandle] = {}
    next_worker_id = 0
    fatal: Exception | None = None
    draining = False

    def spawn() -> None:
        nonlocal next_worker_id
        wid = next_worker_id
        next_worker_id += 1
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(
                wid, child_conn, system_factory, settings, parent_trace,
                rec.enabled, heartbeat,
            ),
            name=f"repro-worker-{wid}",
            daemon=True,
        )
        proc.start()
        child_conn.close()  # the child holds its own copy; EOF now means death
        workers[wid] = _WorkerHandle(id=wid, proc=proc, conn=parent_conn)
        rec.event("worker.spawned", worker=wid)

    def finish(seq: int, result: CellResult, worker: int | None) -> None:
        outcome.results[seq] = result
        if on_result is not None:
            on_result(seq, result, worker)

    def quarantine(seq: int, verdict: Verdict, reason: dict, dispatches: int) -> None:
        cell_id, box, command, tags = tasks[seq]
        result = quarantine_result(
            cell_id,
            box,
            command,
            verdict,
            reason,
            attempts=dispatches,
        )
        result.tags.update(tags)
        rec.inc(
            "runner.cells_aborted"
            if verdict is Verdict.ABORTED
            else "runner.cells_timed_out"
        )
        rec.event(
            "cell.quarantined",
            cell_id=cell_id,
            verdict=verdict.value,
            reason=reason.get("kind"),
            attempts=dispatches,
        )
        finish(seq, result, None)

    def handle_crash(seq: int, worker: _WorkerHandle) -> None:
        exitcode = worker.proc.exitcode
        cell_id = tasks[seq][0]
        attempts[seq] = attempts.get(seq, 0) + 1
        rec.inc("runner.worker_crashes")
        rec.event(
            "worker.crash",
            worker=worker.id,
            exitcode=exitcode,
            cell_id=cell_id,
            attempt=attempts[seq],
        )
        if attempts[seq] <= settings.max_retries:
            outcome.retries += 1
            rec.inc("runner.cell_retries")
            delay = min(30.0, settings.retry_backoff * (2 ** (attempts[seq] - 1)))
            logger.warning(
                "worker %d died (exit %s) on %s; retry %d/%d in %.2gs",
                worker.id, exitcode, cell_id, attempts[seq], settings.max_retries, delay,
            )
            rec.event(
                "cell.retried",
                cell_id=cell_id,
                seq=seq,
                attempt=attempts[seq],
                delay=delay,
            )
            heapq.heappush(retry_heap, (time.monotonic() + delay, seq))
        else:
            logger.error(
                "worker %d died (exit %s) on %s; retries exhausted — quarantined",
                worker.id, exitcode, cell_id,
            )
            quarantine(
                seq,
                Verdict.ABORTED,
                {"kind": "crash", "exitcode": exitcode, "attempts": attempts[seq]},
                dispatches=attempts[seq],
            )

    def handle_message(worker: _WorkerHandle, message) -> None:
        nonlocal fatal
        kind = message[0]
        if kind == "ready":
            worker.ready = True
            rec.event("worker.ready", worker=worker.id, pid=message[2])
        elif kind == "heartbeat":
            rec.event("worker.heartbeat", worker=worker.id, **message[2])
        elif kind == "init_error":
            fatal = RuntimeError(
                f"worker {message[1]} could not build the system: "
                f"system_factory() raised {message[2]}"
            )
        elif kind == "result":
            _, _, seq, result, delta = message
            worker.current = None
            if delta is not None and rec.enabled:
                try:
                    rec.metrics.merge_snapshot(delta)
                except Exception as exc:
                    rec.inc("runner.corrupt_metric_payloads")
                    rec.event(
                        "metrics.corrupt_payload",
                        worker=worker.id,
                        cell_id=result.cell_id,
                        error=type(exc).__name__,
                    )
                    logger.warning(
                        "discarding corrupt metrics payload from worker %d (%s: %s)",
                        worker.id, type(exc).__name__, exc,
                    )
            finish(seq, result, worker.id)

    started_at = time.monotonic()
    deadline_at = started_at + settings.deadline if settings.deadline else None

    with trap_shutdown_signals() as stop:
        try:
            for _ in range(pool_size):
                spawn()
            while pending or retry_heap or any(w.current for w in workers.values()):
                if fatal is not None:
                    break
                now = time.monotonic()

                # -- interruption: stop dispatching, drain in-flight --
                if not draining:
                    outcome.interrupted = _interruption(stop, deadline_at)
                    if outcome.interrupted:
                        draining = True
                        dropped = len(pending) + len(retry_heap)
                        pending.clear()
                        retry_heap.clear()
                        _announce_interruption(outcome.interrupted, dropped)
                        logger.warning(
                            "campaign interrupted (%s): %d cells not dispatched; "
                            "draining %d in-flight",
                            outcome.interrupted,
                            dropped,
                            sum(1 for w in workers.values() if w.current),
                        )

                # -- promote due retries ------------------------------
                while retry_heap and retry_heap[0][0] <= now:
                    _, seq = heapq.heappop(retry_heap)
                    pending.append(seq)

                # -- dispatch to idle, ready workers ------------------
                for worker in workers.values():
                    if not pending:
                        break
                    if not (worker.ready and worker.current is None and worker.proc.is_alive()):
                        continue
                    seq = pending.popleft()
                    cell_id, box, command, tags = tasks[seq]
                    try:
                        worker.conn.send(
                            (seq, cell_id, box, command, tags, attempts.get(seq, 0))
                        )
                    except (BrokenPipeError, OSError):
                        pending.appendleft(seq)  # the liveness sweep reaps it
                        continue
                    worker.current = (seq, now + hard_budget if hard_budget else None)
                    rec.event(
                        "cell.dispatched",
                        worker=worker.id,
                        cell_id=cell_id,
                        seq=seq,
                        attempt=attempts.get(seq, 0),
                    )

                # -- wait for worker messages -------------------------
                conns = {w.conn: w for w in workers.values()}
                tick = _TICK
                if retry_heap:
                    tick = min(tick, max(0.01, retry_heap[0][0] - now))
                try:
                    readable = multiprocessing.connection.wait(list(conns), tick) if conns else []
                except OSError:  # pragma: no cover - racy fd close
                    readable = []
                for conn in readable:
                    worker = conns[conn]
                    try:
                        handle_message(worker, conn.recv())
                    except (EOFError, OSError):
                        continue  # dead: the liveness sweep handles it

                # -- liveness sweep: reap the dead --------------------
                for worker in list(workers.values()):
                    if worker.proc.is_alive():
                        continue
                    # Drain messages the worker managed to send before
                    # dying (a clean result followed by a crash must
                    # not burn a retry).
                    try:
                        while worker.conn.poll():
                            handle_message(worker, worker.conn.recv())
                    except (EOFError, OSError):
                        pass
                    if worker.current is not None:
                        seq, _ = worker.current
                        worker.current = None
                        handle_crash(seq, worker)
                    worker.conn.close()
                    worker.proc.join()
                    del workers[worker.id]

                # -- hard-deadline sweep: kill the stuck --------------
                now = time.monotonic()
                for worker in list(workers.values()):
                    if worker.current is None or worker.current[1] is None:
                        continue
                    seq, kill_at = worker.current
                    if now < kill_at:
                        continue
                    cell_id = tasks[seq][0]
                    logger.warning(
                        "worker %d stuck on %s past the %.3gs budget; killing it",
                        worker.id, cell_id, settings.cell_timeout,
                    )
                    rec.event(
                        "worker.killed", worker=worker.id, cell_id=cell_id,
                        budget_seconds=settings.cell_timeout,
                    )
                    worker.current = None
                    _terminate(worker.proc)
                    quarantine(
                        seq,
                        Verdict.TIMED_OUT,
                        {
                            "kind": "timeout",
                            "budget_seconds": settings.cell_timeout,
                            "enforced": "supervisor-kill",
                        },
                        dispatches=attempts.get(seq, 0) + 1,
                    )
                    worker.conn.close()
                    del workers[worker.id]

                # -- keep the pool at strength ------------------------
                if not draining and fatal is None:
                    in_flight = sum(1 for w in workers.values() if w.current)
                    needed = min(pool_size, len(pending) + len(retry_heap) + in_flight)
                    while len(workers) < needed:
                        spawn()
                        outcome.respawns += 1
                        rec.inc("runner.worker_respawns")
                        rec.event("worker.respawn")
        finally:
            for worker in workers.values():
                try:
                    worker.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
            for worker in workers.values():
                worker.proc.join(timeout=2.0)
                if worker.proc.is_alive():
                    _terminate(worker.proc)
                worker.conn.close()
            merge_worker_traces(rec)

    if fatal is not None:
        raise fatal
    return outcome


def run_serial(
    system_factory: Callable[[], object],
    tasks: Sequence[Task],
    settings,
    on_result: Callable[[int, CellResult, int | None], None] | None = None,
) -> SupervisorOutcome:
    """Run ``tasks`` in this process, with :func:`run_supervised`'s
    contract: ``system_factory`` is called once (and only if there is a
    task), ``on_result(task_index, result, 0)`` is called in completion
    order, and ``interrupted`` names why a partial run stopped.

    The tasks run in chunks of at most :data:`CHUNK_CELLS` top-level
    cells, one cell when ``settings.cell_timeout`` is set (a per-cell
    budget needs the cell to run alone). Each chunk is one lockstep
    wave-driver call under :func:`_run_guarded`, and each cell is
    delivered as soon as its tree finishes. This process is worker 0:
    it emits a ``cell.dispatched`` per cell of a chunk and, when the
    recorder has a heartbeat period, beats from a thread.
    SIGINT/SIGTERM and the campaign deadline are checked before every
    wave: the current wave finishes, its finished trees are kept, the
    unfinished ones are dropped and no further chunk starts.
    """
    rec = get_recorder()
    outcome = SupervisorOutcome()
    if not tasks:
        return outcome
    system = system_factory()
    rec.event("worker.ready", worker=0, pid=os.getpid())
    deadline_at = time.monotonic() + settings.deadline if settings.deadline else None
    size = 1 if settings.cell_timeout else CHUNK_CELLS
    beats = (
        HeartbeatReporter(
            lambda payload: rec.event("worker.heartbeat", worker=0, **payload),
            rec.heartbeat_interval,
        )
        if rec.heartbeat_interval
        else nullcontext()
    )

    with trap_shutdown_signals() as signals, beats as reporter:

        def stop() -> bool:
            outcome.interrupted = _interruption(signals, deadline_at)
            return outcome.interrupted is not None

        def deliver(seq: int, result: CellResult) -> None:
            cell_id, _box, _command, tags = tasks[seq]
            result.tags.update(tags)
            outcome.results[seq] = result
            if reporter is not None:
                reporter.end_cell(cell_id)
            if on_result is not None:
                on_result(seq, result, 0)

        for first in range(0, len(tasks), size):
            if stop():
                break
            seqs = range(first, min(first + size, len(tasks)))
            for seq in seqs:
                cell_id = tasks[seq][0]
                rec.event("cell.dispatched", worker=0, cell_id=cell_id, seq=seq, attempt=0)
                if reporter is not None:
                    reporter.begin_cell(cell_id)
            _run_guarded(
                system,
                [tasks[seq] for seq in seqs],
                settings,
                lambda slot, result: deliver(seqs[slot], result),
                stop,
            )
        if outcome.interrupted:
            dropped = len(tasks) - len(outcome.results)
            _announce_interruption(outcome.interrupted, dropped)
            logger.warning(
                "campaign interrupted (%s): %d cells not run",
                outcome.interrupted, dropped,
            )
    return outcome
