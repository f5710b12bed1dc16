"""Per-layer tracing from the benchmark's side.

:func:`install` replaces each layer's public function, at the import
site its caller uses, with a wrapper that records a span
``(name, start, end, parent, rows, out)`` in an in-memory
:class:`SpanStore`; :func:`uninstall` puts the originals back. Forked
workers and node agents inherit the wrappers; each forked process
starts with an empty store and writes it to ``<out_dir>/spans-<pid>.json``
when it exits, so nothing is written while the campaign runs.
:func:`summarize` turns all stores into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import statistics
import threading
import time
from pathlib import Path


class SpanStore:
    """Spans of one process, kept in memory until :meth:`dump`."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self._reset()
        multiprocessing.util.register_after_fork(self, SpanStore._after_fork)

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list = []
        self.lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}

    def _after_fork(self) -> None:
        self._reset()
        multiprocessing.util.Finalize(self, self.dump, exitpriority=100)

    def stack(self) -> list[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def add(self, name: str, start: float, end: float, rows: int = 0, out: float = 0) -> None:
        """Record a span measured by the caller (setup phases)."""
        stack = self.stack()
        with self.lock:
            self.spans.append((name, start, end, stack[-1] if stack else -1, rows, out))

    def dump(self) -> None:
        path = self.out_dir / f"spans-{self.pid}.json"
        # A span still open at exit keeps its slot, so parent indices hold.
        spans = [s or ("open", 0.0, 0.0, -1, 0, 0) for s in self.spans]
        path.write_text(json.dumps({"pid": self.pid, "ppid": os.getppid(), "spans": spans}))


def _wrap(store: SpanStore, name: str, fn, rows=None, out=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = store.stack()
        with store.lock:
            index = len(store.spans)
            store.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            store.spans[index] = (
                name,
                start,
                end,
                parent,
                rows(args) if rows else 0,
                out(result) if out and result is not None else 0,
            )

    wrapper.__perfbench_original__ = fn
    return wrapper


#: (span name, module, attribute path, rows(args), out(result)). Each
#: entry is the name a caller resolves at call time: module globals for
#: functions imported by name, class attributes for methods.
LAYERS = (
    ("reach", "repro.core.runner", "reach_many", lambda a: len(a[1]), None),
    ("reach", "repro.core.reach", "reach_many", lambda a: len(a[1]), None),
    ("join", "repro.core.reach", "resize", lambda a: len(a[0]), lambda r: r),
    ("integrate", "repro.core.system", "Plant.flow_batch", lambda a: a[3].count, None),
    ("controller", "repro.core.system", "Controller.execute_abstract_batch", lambda a: len(a[1]), None),
    ("controller.pre", "repro.acasxu.controller", "AcasPre.abstract_batch", lambda a: len(a[1]), None),
    ("controller.pre", "repro.acasxu.controller", "AcasPre.abstract", lambda a: 1, None),
    ("controller.nn", "repro.verify.symbolic", "SymbolicPropagator.output_bounds_batch", lambda a: len(a[1]), None),
    ("controller.nn", "repro.verify.symbolic", "SymbolicPropagator.output_bounds", lambda a: 1, None),
    ("controller.post", "repro.core.system", "ArgminPost.abstract", lambda a: 1, None),
    ("cell", "repro.core.supervisor", "run_cell_guarded", None, None),
    ("pool", "repro.core.supervisor", "run_supervised", lambda a: len(a[1]), lambda r: r.retries),
    ("fleet.grant", "repro.core.lease", "LeaseTable.grant", None, None),
    ("wire.frame", "repro.core.wire", "encode_frame", None, len),
    ("journal.append", "repro.core.checkpoint", "_JournalWriter.append", None, None),
    ("journal.append", "repro.core.checkpoint", "_JournalWriter.append_record", None, None),
    ("obs.status_write", "repro.obs.live", "write_status_atomic", None, None),
    ("setup.bank_load", "repro.acasxu.scenario", "load_or_train_networks", None, None),
)


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(store: SpanStore) -> list[tuple]:
    """Wrap every layer; returns the patch list for :func:`uninstall`."""
    patches = []
    for name, module, path, rows, out in LAYERS:
        owner, attr = _owner(module, path)
        original = owner.__dict__[attr]
        setattr(owner, attr, _wrap(store, name, original, rows, out))
        patches.append((owner, attr, original))
    return patches


def uninstall(patches: list[tuple]) -> None:
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def installed_wrappers() -> list[str]:
    """Layers whose wrapper is still in place (empty after uninstall)."""
    left = []
    for _name, module, path, _rows, _out in LAYERS:
        owner, attr = _owner(module, path)
        if hasattr(owner.__dict__[attr], "__perfbench_original__"):
            left.append(f"{module}.{path}")
    return left


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def load_stores(out_dir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path(out_dir).glob("spans-*.json"))]


def _self_seconds(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _rows, _out in spans:
        if parent >= 0:
            child[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def summarize(stores: list[dict], campaign_start: float, wall_s: float) -> dict[str, float]:
    """Per-layer metrics over every process's spans."""
    by_name: dict[str, list] = {}
    reach_self = 0.0
    for store in stores:
        spans = store["spans"]
        for span, own in zip(spans, _self_seconds(spans)):
            by_name.setdefault(span[0], []).append((store["pid"], store["ppid"], *span[1:]))
            if span[0] == "reach":
                reach_self += own

    def spans_of(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s[3] - s[2] for s in spans_of(name))

    def rows(name):
        return sum(s[5] for s in spans_of(name))

    def per_call(name):
        calls = len(spans_of(name))
        return rows(name) / calls if calls else 0.0

    m: dict[str, float] = {}
    m["setup.import_s"] = total("setup.import")
    m["setup.bank_load_s"] = total("setup.bank_load")
    # build_system loads the bank itself; report the rest of the build.
    m["setup.build_s"] = total("setup.build") - total("setup.bank_load")

    joins = spans_of("join")
    m["join.calls"] = len(joins)
    m["join.states_in_mean"] = per_call("join")
    m["join.joins"] = sum(s[6] for s in joins)
    m["join.s"] = total("join")

    m["controller.calls"] = len(spans_of("controller"))
    m["controller.rows_per_call"] = per_call("controller")
    m["controller.s"] = total("controller")
    m["controller.pre_s"] = total("controller.pre")
    m["controller.nn_s"] = total("controller.nn")
    m["controller.post_s"] = total("controller.post")
    controller_rows = rows("controller")
    m["controller.memo_hit_ratio"] = (
        1.0 - rows("controller.nn") / controller_rows if controller_rows else 0.0
    )

    m["integrate.calls"] = len(spans_of("integrate"))
    m["integrate.rows_per_call"] = per_call("integrate")
    m["integrate.s"] = total("integrate")
    m["integrate.us_per_row"] = 1e6 * total("integrate") / rows("integrate") if rows("integrate") else 0.0

    m["reach.self_s"] = reach_self
    m["runner.waves"] = len(spans_of("reach"))
    m["runner.wave_rows_mean"] = per_call("reach")
    cells = [1e3 * (s[3] - s[2]) for s in spans_of("cell")]
    m["runner.cell_samples"] = len(cells)
    m["runner.cell_p50_ms"] = statistics.median(cells) if cells else 0.0
    m["runner.cell_p99_ms"] = _percentile(cells, 0.99)

    m.update(_pool_metrics(spans_of("pool"), spans_of("cell")))

    grants = spans_of("fleet.grant")
    m["fleet.enroll_s"] = min(s[2] for s in grants) - campaign_start if grants else 0.0
    m["fleet.grants"] = len(grants)
    m["fleet.frames"] = len(spans_of("wire.frame"))
    m["fleet.frame_bytes"] = sum(s[6] for s in spans_of("wire.frame"))
    m["journal.appends"] = len(spans_of("journal.append"))
    m["journal.append_s"] = total("journal.append")
    m["obs.status_writes"] = len(spans_of("obs.status_write"))

    # Work counters as the wrappers saw them, for the exact-count check.
    m["work.controller_rows"] = controller_rows
    m["work.propagations"] = rows("controller.nn")
    m["share.join"] = total("join") / wall_s
    m["share.integrate"] = total("integrate") / wall_s
    m["share.controller"] = total("controller") / wall_s
    m["share.reach_self"] = reach_self / wall_s
    return m


def _pool_metrics(pools: list, cells: list) -> dict[str, float]:
    """Supervised-pool and shard-boundary figures from the pool spans
    (in the campaign process or a node agent) and the cell spans of the
    workers each pool forked."""
    busy = capacity = spawn = tail_idle = 0.0
    waits: list[float] = []
    retries = 0
    by_parent: dict[int, list] = {}
    for pool in sorted(pools, key=lambda s: s[2]):
        by_parent.setdefault(pool[0], []).append(pool)
    for owner_pid, owned in by_parent.items():
        for i, pool in enumerate(owned):
            _, _, start, end, _parent, tasks, pool_retries = pool
            retries += int(pool_retries)
            mine = [c for c in cells if c[1] == owner_pid and start <= c[2] <= end]
            if not mine:
                continue
            workers: dict[int, list] = {}
            for c in sorted(mine, key=lambda c: c[2]):
                workers.setdefault(c[0], []).append(c)
            size = max(len(workers), min(2, tasks))  # the workloads' pools have 2 workers
            busy += sum(c[3] - c[2] for c in mine)
            capacity += size * (end - start)
            spawn += min(c[2] for c in mine) - start
            last = max(c[3] for c in mine)
            for runs in workers.values():
                waits.extend(1e3 * (b[2] - a[3]) for a, b in zip(runs, runs[1:]))
                tail_idle += last - runs[-1][3]
            if i + 1 < len(owned):
                tail_idle += owned[i + 1][2] - end
    return {
        "pool.worker_busy_frac": busy / capacity if capacity else 0.0,
        "pool.spawn_s": spawn,
        "pool.dispatch_wait_ms_p50": statistics.median(waits) if waits else 0.0,
        "pool.retries": retries,
        "fleet.shard_tail_idle_s": tail_idle,
    }
