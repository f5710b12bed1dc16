"""Concurrency/fork-safety rules C001-C005.

The campaign runner is a forest of fork workers (the supervised pool in
``repro.core.supervisor``), SIGALRM/SIGINT handlers (per-cell budgets,
drain-then-abort shutdown) and daemon threads (heartbeats, the metrics
server). Each rule here encodes one discipline that keeps that forest
honest:

* **C001** — a function reachable from a fork-worker entry point
  (``Process(target=...)``) mutates module-level state. After ``fork``
  that mutation lands in the child's copy and silently diverges from
  the parent; anything the parent must see has to cross the result
  pipe.
* **C002** — a registered signal handler calls something that is not
  async-signal-safe (logging, ``print``, file I/O, lock acquisition).
  CPython delivers signals between bytecodes, so a handler that takes
  the logging module's lock can deadlock against the interrupted frame.
* **C003** — a file handle or lock created at module import time (thus
  pre-fork) is used inside a worker entry point. Both processes then
  share one file offset / one lock state snapshot.
* **C004** — a class that owns both a lock and a thread (or guards some
  methods with ``with self._lock``) mutates shared attributes outside
  any locked region.
* **C005** — a journal/status writer opens a file for (over)writing
  outside the sanctioned atomic helper
  (:func:`repro.obs.live.write_status_atomic`: tmp + fsync +
  ``os.replace``), so a crash mid-write leaves a torn file.

All rules report through the shared :class:`~repro.analysis.visitor.
Context`, so ``# sound: ok [C00x] reason`` pragmas and the fingerprint
baseline apply exactly as they do for the S-family.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .policy import DEFAULT_SANCTIONED_WRITERS
from .rules import _call_name, _root_name

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .visitor import Context

__all__ = ["CONCURRENCY_RULES", "ConcurrencyRule", "collect_concurrency_facts"]

#: Container mutators: calling one of these on shared state is a write.
MUTATORS = frozenset(
    {
        "append", "extend", "insert", "remove", "pop", "popitem",
        "clear", "update", "add", "discard", "setdefault", "appendleft",
    }
)

#: Callable names that are not async-signal-safe. ``os.write`` *is*
#: safe, so attribute calls rooted at ``os`` are exempted in C002.
UNSAFE_IN_HANDLER = frozenset(
    {
        "print", "open", "sleep", "acquire", "wait", "notify",
        "notify_all", "join", "flush",
        # logging methods: these take the module's serialization lock
        "debug", "info", "warning", "error", "exception", "critical", "log",
        # serialization / file I/O helpers
        "dump", "dumps", "load", "loads", "write", "writelines",
    }
)

#: Constructors whose results must not cross a fork.
PREFORK_HANDLES = frozenset(
    {
        "open", "Lock", "RLock", "Condition", "Event", "Semaphore",
        "BoundedSemaphore", "Barrier", "Queue", "SimpleQueue",
        "TemporaryFile", "NamedTemporaryFile", "socket",
    }
)


@dataclass
class _ClassFacts:
    node: ast.ClassDef
    lock_attrs: set[str] = field(default_factory=set)
    creates_thread: bool = False
    has_locked_method: bool = False


@dataclass
class ConcurrencyFacts:
    """One walk's worth of module structure shared by every C-rule."""

    #: Names assigned at module top level.
    module_names: set[str] = field(default_factory=set)
    #: name -> FunctionDef for every (possibly nested) named function.
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )
    #: Functions passed as ``target=`` to a ``Process(...)`` call.
    worker_entries: set[str] = field(default_factory=set)
    #: Worker entries plus same-module functions they (transitively) call.
    worker_reachable: set[str] = field(default_factory=set)
    #: Functions registered via ``signal.signal(sig, fn)``.
    handlers: set[str] = field(default_factory=set)
    #: Module-level names bound to pre-fork handles/locks.
    prefork_handles: set[str] = field(default_factory=set)
    classes: list[_ClassFacts] = field(default_factory=list)
    #: Whether the module forks at all (guards C003).
    forks: bool = False


def _call_edges(func: ast.AST) -> set[str]:
    """Names of same-module functions this function might call."""
    out: set[str] = set()
    for sub in ast.walk(func):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            out.add(sub.func.id)
    return out


def collect_concurrency_facts(tree: ast.Module) -> ConcurrencyFacts:
    facts = ConcurrencyFacts()

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.functions.setdefault(node.name, node)
        elif isinstance(node, ast.ClassDef):
            facts.classes.append(_collect_class(node))

    for stmt in tree.body:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            value = stmt.value
            for target in targets:
                if isinstance(target, ast.Name):
                    facts.module_names.add(target.id)
                    if (
                        isinstance(value, ast.Call)
                        and _call_name(value.func) in PREFORK_HANDLES
                    ):
                        facts.prefork_handles.add(target.id)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node.func)
        if name == "Process":
            facts.forks = True
            for kw in node.keywords:
                if kw.arg == "target" and isinstance(kw.value, ast.Name):
                    facts.worker_entries.add(kw.value.id)
        elif name == "signal" and isinstance(node.func, ast.Attribute):
            if _root_name(node.func) == "signal" and len(node.args) >= 2:
                handler = node.args[1]
                if isinstance(handler, ast.Name):
                    facts.handlers.add(handler.id)

    # Transitive closure of worker entries over same-module call edges.
    frontier = [n for n in facts.worker_entries if n in facts.functions]
    facts.worker_reachable = set(frontier)
    while frontier:
        current = frontier.pop()
        for callee in _call_edges(facts.functions[current]):
            if callee in facts.functions and callee not in facts.worker_reachable:
                facts.worker_reachable.add(callee)
                frontier.append(callee)
    return facts


def _collect_class(node: ast.ClassDef) -> _ClassFacts:
    cls = _ClassFacts(node=node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and isinstance(sub.value, ast.Call)
                    and _call_name(sub.value.func) in ("Lock", "RLock")
                ):
                    cls.lock_attrs.add(target.attr)
        elif isinstance(sub, ast.Call):
            if _call_name(sub.func) == "Thread":
                cls.creates_thread = True
    if cls.lock_attrs:
        for sub in ast.walk(node):
            if isinstance(sub, ast.With) and _locks_of(sub, cls.lock_attrs):
                cls.has_locked_method = True
                break
    return cls


def _locks_of(with_node: ast.With, lock_attrs: set[str]) -> bool:
    for item in with_node.items:
        expr = item.context_expr
        if (
            isinstance(expr, ast.Attribute)
            and expr.attr in lock_attrs
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            return True
    return False


class ConcurrencyRule:
    """Base class: C-rules get one :meth:`check_module` call per module
    (they need whole-module structure, not per-node dispatch)."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def check_module(self, tree: ast.Module, facts: ConcurrencyFacts,
                     ctx: "Context") -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class ForkSharedStateMutation(ConcurrencyRule):
    """C001: worker-reachable code mutates module-level state."""

    code = "C001"
    name = "fork-shared-state-mutation"
    summary = (
        "mutating module-level state from a fork worker diverges "
        "silently from the parent; send results over the worker pipe "
        "or keep the state explicitly per-process"
    )

    def check_module(self, tree: ast.Module, facts: ConcurrencyFacts,
                     ctx: "Context") -> None:
        for name in sorted(facts.worker_reachable):
            func = facts.functions[name]
            globals_declared = {
                g for sub in ast.walk(func)
                if isinstance(sub, ast.Global)
                for g in sub.names
            }
            for sub in ast.walk(func):
                if isinstance(sub, (ast.Assign, ast.AugAssign)):
                    targets = (
                        sub.targets if isinstance(sub, ast.Assign)
                        else [sub.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id in globals_declared
                        ):
                            ctx.report(
                                self, sub,
                                f"`{target.id}` (module global) assigned "
                                f"in worker-reachable `{name}()`",
                            )
                        elif (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in facts.module_names
                        ):
                            ctx.report(
                                self, sub,
                                f"item write to module-level "
                                f"`{target.value.id}` in worker-reachable "
                                f"`{name}()`",
                            )
                elif isinstance(sub, ast.Call):
                    func_expr = sub.func
                    if (
                        isinstance(func_expr, ast.Attribute)
                        and func_expr.attr in MUTATORS
                        and isinstance(func_expr.value, ast.Name)
                        and func_expr.value.id in facts.module_names
                    ):
                        ctx.report(
                            self, sub,
                            f"`{func_expr.value.id}.{func_expr.attr}()` "
                            f"mutates module-level state in "
                            f"worker-reachable `{name}()`",
                        )


class UnsafeSignalHandlerCall(ConcurrencyRule):
    """C002: non-async-signal-safe call inside a signal handler body."""

    code = "C002"
    name = "unsafe-signal-handler-call"
    summary = (
        "signal handlers run between bytecodes of arbitrary code; "
        "calls that lock (logging, print, file I/O) can deadlock — "
        "set a flag or use os.write instead"
    )

    def check_module(self, tree: ast.Module, facts: ConcurrencyFacts,
                     ctx: "Context") -> None:
        for name in sorted(facts.handlers):
            func = facts.functions.get(name)
            if func is None:
                continue
            for sub in ast.walk(func):
                if not isinstance(sub, ast.Call):
                    continue
                call_name = _call_name(sub.func)
                if call_name not in UNSAFE_IN_HANDLER:
                    continue
                if _root_name(sub.func) == "os":
                    continue  # os.write/os.kill are async-signal-safe
                ctx.report(
                    self, sub,
                    f"`{ast.unparse(sub.func)}` inside signal handler "
                    f"`{name}()` is not async-signal-safe",
                )


class PreForkHandleUse(ConcurrencyRule):
    """C003: module-level handle/lock referenced inside a fork worker."""

    code = "C003"
    name = "prefork-handle-in-worker"
    summary = (
        "a file handle or lock created at import time is shared with "
        "every fork worker (same offset, same lock snapshot); create "
        "it inside the worker or pass it through the spawn args"
    )

    def check_module(self, tree: ast.Module, facts: ConcurrencyFacts,
                     ctx: "Context") -> None:
        if not facts.forks or not facts.prefork_handles:
            return
        for name in sorted(facts.worker_reachable):
            func = facts.functions[name]
            for sub in ast.walk(func):
                if (
                    isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)
                    and sub.id in facts.prefork_handles
                ):
                    ctx.report(
                        self, sub,
                        f"pre-fork handle `{sub.id}` used in "
                        f"worker-reachable `{name}()`",
                    )


class UnlockedSharedMutation(ConcurrencyRule):
    """C004: lock-owning class mutates its state outside the lock."""

    code = "C004"
    name = "unlocked-shared-mutation"
    summary = (
        "this class hands state to a thread and guards it with a lock "
        "elsewhere; mutating outside `with self._lock` races the "
        "reader — lock it or document single-thread ownership"
    )

    _EXEMPT = frozenset({"__init__", "__new__", "__post_init__", "__enter__"})

    def check_module(self, tree: ast.Module, facts: ConcurrencyFacts,
                     ctx: "Context") -> None:
        for cls in facts.classes:
            if not cls.lock_attrs:
                continue
            if not (cls.creates_thread or cls.has_locked_method):
                continue
            for method in cls.node.body:
                if not isinstance(
                    method, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if method.name in self._EXEMPT:
                    continue
                self._check_method(method, cls, ctx)

    def _check_method(self, method: ast.FunctionDef | ast.AsyncFunctionDef,
                      cls: _ClassFacts, ctx: "Context") -> None:
        def walk(node: ast.AST, locked: bool) -> None:
            if isinstance(node, ast.With) and _locks_of(node, cls.lock_attrs):
                locked = True
            if not locked:
                self._flag_mutations(node, cls, method.name, ctx)
            for child in ast.iter_child_nodes(node):
                walk(child, locked)

        for stmt in method.body:
            walk(stmt, False)

    def _flag_mutations(self, node: ast.AST, cls: _ClassFacts,
                        method_name: str, ctx: "Context") -> None:
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                base = target.value if isinstance(
                    target, (ast.Attribute, ast.Subscript)
                ) else None
                while isinstance(base, (ast.Attribute, ast.Subscript)):
                    base = base.value
                if (
                    isinstance(target, (ast.Attribute, ast.Subscript))
                    and isinstance(base, ast.Name)
                    and base.id == "self"
                ):
                    ctx.report(
                        self, node,
                        f"unlocked write to `{ast.unparse(target)}` in "
                        f"`{cls.node.name}.{method_name}()`",
                    )
                    return
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATORS
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self"
            ):
                ctx.report(
                    self, node,
                    f"unlocked `{ast.unparse(func)}()` in "
                    f"`{cls.node.name}.{method_name}()`",
                )


class NonAtomicStatusWrite(ConcurrencyRule):
    """C005: overwrite-mode file write outside the sanctioned helper."""

    code = "C005"
    name = "non-atomic-status-write"
    summary = (
        "status/journal files must go through the atomic "
        "tmp+fsync+replace helper (write_status_atomic); a direct "
        "overwrite can be seen torn by readers and crashes"
    )

    _WRITE_MODES = ("w", "x")

    def check_module(self, tree: ast.Module, facts: ConcurrencyFacts,
                     ctx: "Context") -> None:
        self._walk(tree, False, ctx)

    def _walk(self, node: ast.AST, sanctioned: bool, ctx: "Context") -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            sanctioned = sanctioned or node.name in DEFAULT_SANCTIONED_WRITERS
        if isinstance(node, ast.Call) and not sanctioned:
            name = _call_name(node.func)
            if name == "open" and len(node.args) >= 2:
                mode = node.args[1]
                if (
                    isinstance(mode, ast.Constant)
                    and isinstance(mode.value, str)
                    and any(m in mode.value for m in self._WRITE_MODES)
                ):
                    ctx.report(
                        self, node,
                        f"direct overwrite `open(..., {mode.value!r})` "
                        "outside the sanctioned atomic writer",
                    )
            elif name in ("write_text", "write_bytes"):
                ctx.report(
                    self, node,
                    f"`.{name}()` overwrite outside the sanctioned "
                    "atomic writer",
                )
        for child in ast.iter_child_nodes(node):
            self._walk(child, sanctioned, ctx)


CONCURRENCY_RULES: tuple[ConcurrencyRule, ...] = (
    ForkSharedStateMutation(),
    UnsafeSignalHandlerCall(),
    PreForkHandleUse(),
    UnlockedSharedMutation(),
    NonAtomicStatusWrite(),
)
