"""Host-speed probe: how fast the CPU ran while a campaign computed.

This guest's CPU runs at full or about half speed, switching within
seconds, in a mix that drifts over minutes (README, "Noise"), so raw
campaign times measure the neighbours as much as the program. The probe
times a fixed pure-Python loop every PERIOD_S of real time, from a
SIGALRM handler on the main thread of every process of the campaign:
the campaign's child interpreter and, through fork, its node agents and
pool workers. Each probe is timed in the thread's CPU time, so waiting
for a CPU does not count, and is kept only if its process was computing
through the period before it (an idle process woken by the timer runs
the loop from cold caches). Forked processes write their probes to
``<out_dir>/probes-<pid>.json`` when they exit; :func:`slowdown` reads
them all.

Stdlib only: :func:`arm` runs before the child imports numpy.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import signal
import time
from pathlib import Path

PERIOD_S = 0.05
#: The loop's CPU time on this host at full speed (2-vCPU KVM guest,
#: Xeon model 143); it only sets the unit of the scaled times.
REFERENCE_S = 0.125e-3
#: A process counts as computing if it used this share of one CPU
#: since its previous probe.
BUSY_SHARE = 0.8

_buffer = [0.0] * 64


class _Probes:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._reset()
        multiprocessing.util.register_after_fork(self, _Probes._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.samples: list[tuple[float, float]] = []
        self.last = (time.perf_counter(), time.process_time())

    def _after_fork(self) -> None:
        # Interval timers are not inherited across fork; the handler is.
        self._reset()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        multiprocessing.util.Finalize(self, self.dump, exitpriority=100)

    def take(self, signum, frame) -> None:
        started, cpu_used = time.perf_counter(), time.process_time()
        was_busy = cpu_used - self.last[1] >= BUSY_SHARE * (started - self.last[0])
        cpu = time.thread_time()
        x = 0.5
        for i in range(1000):
            _buffer[i & 63] = x
            x = x * 0.5 + _buffer[(i * 7) & 63] * 0.25 + 1e-3
        if was_busy:
            self.samples.append((started, time.thread_time() - cpu))
        self.last = (time.perf_counter(), time.process_time())

    def dump(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        (self.out_dir / f"probes-{self.pid}.json").write_text(json.dumps(self.samples))


_probes: _Probes | None = None


def arm(out_dir: Path) -> None:
    """Start probing this process and every process it forks."""
    global _probes
    _probes = _Probes(out_dir)
    signal.signal(signal.SIGALRM, _probes.take)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def disarm() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0.0)


def slowdown(start: float, end: float) -> float:
    """How many times slower than REFERENCE_S the host ran between
    ``start`` and ``end``: the reciprocal of the mean speed the kept
    probes inside that window saw (1.0 if none did). Reads the probes of
    this process and of every forked process that has exited."""
    samples = list(_probes.samples)
    for path in _probes.out_dir.glob("probes-*.json"):
        samples.extend(json.loads(path.read_text()))
    speeds = [REFERENCE_S / cpu for at, cpu in samples if start <= at < end]
    return len(speeds) / sum(speeds) if speeds else 1.0
