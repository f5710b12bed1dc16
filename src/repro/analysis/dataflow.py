"""Interprocedural bound-taint fixpoint over module facts.

The solver consumes the :class:`~repro.analysis.callgraph.ProgramIndex`
and computes, to a fixpoint:

* ``returns_bound`` — the set of functions whose return value carries a
  raw interval endpoint (seeded by syntactic ``.lo``/``.hi`` reads and
  bound-named variables/annotations, then propagated through calls),
* ``tainted_params`` — per function, the parameters that receive a
  bound-carrying argument at some resolved call site,
* per-function *local* taint — the local names that hold a bound given
  the function's tainted parameters and callees.

Both maps are monotone over finite sets, so iteration terminates. The
result object is what the rule pass queries through
:meth:`Context.tainted`: a name is tainted if the convention says so
*or* the dataflow reached it; a call is tainted if its resolved callee
``returns_bound``. That is exactly how a bound smuggled through a
neutrally-named helper (``def scale(v): return v.hi * f`` called as
``s = scale(box)``; ``s + 1.0``) becomes visible to S001-S006.
"""

from __future__ import annotations

from dataclasses import dataclass

from .callgraph import SEED, CallSite, FunctionFacts, ModuleFacts, ProgramIndex
from .rules import BOUND_NAME_RE

__all__ = ["FunctionSummary", "ProgramTaint"]


@dataclass(frozen=True)
class FunctionSummary:
    """The externally visible taint contract of one function."""

    key: str
    path: str
    params: tuple[str, ...]
    tainted_params: tuple[str, ...]
    returns_bound: bool


class ProgramTaint:
    """Solved fixpoint; queried by the rule pass and S007/S008."""

    def __init__(self, index: ProgramIndex) -> None:
        self.index = index
        self.returns_bound: set[str] = set()
        self.tainted_params: dict[str, set[str]] = {}
        self._locals: dict[str, frozenset[str]] = {}
        self._solve()

    # -- solving ------------------------------------------------------------

    def _seed_params(self, key: str, fn: FunctionFacts) -> set[str]:
        tainted = set(fn.seeded_params)
        tainted.update(self.tainted_params.get(key, ()))
        return tainted

    def _atoms_tainted(self, atoms: tuple[str, ...], names: set[str],
                       module: ModuleFacts, calls: tuple[CallSite, ...]) -> bool:
        if SEED in atoms:
            return True
        for atom in atoms:
            if atom.startswith("name:") and atom[5:] in names:
                return True
            if atom.startswith("call:"):
                site = calls[int(atom[5:])]
                callee = self.index.resolve(
                    module, site.kind, site.parts, site.enclosing_class
                )
                if callee is not None and callee in self.returns_bound:
                    return True
        return False

    def _solve_function(self, key: str, module: ModuleFacts,
                        fn: FunctionFacts) -> bool:
        """Recompute one function's local taint + summary; True if the
        global state changed."""
        tainted = self._seed_params(key, fn)
        changed = True
        while changed:
            changed = False
            for targets, atoms in fn.assigns:
                if self._atoms_tainted(atoms, tainted, module, fn.calls):
                    for name in targets:
                        if name not in tainted:
                            tainted.add(name)
                            changed = True
        global_changed = False
        frozen = frozenset(tainted)
        if self._locals.get(key) != frozen:
            self._locals[key] = frozen
            global_changed = True
        returns = (
            fn.syntactic_return_bound
            or fn.returns_annotation_bound
            or any(
                self._atoms_tainted(atoms, tainted, module, fn.calls)
                for atoms in fn.returns
            )
        )
        if returns and key not in self.returns_bound:
            self.returns_bound.add(key)
            global_changed = True
        # Propagate taint into callee parameters.
        for site in fn.calls:
            callee = self.index.resolve(
                module, site.kind, site.parts, site.enclosing_class
            )
            if callee is None:
                continue
            _, callee_fn = self.index.functions[callee]
            params = list(callee_fn.params)
            offset = 1 if params and params[0] in ("self", "cls") else 0
            for pos, atoms in enumerate(site.args):
                idx = pos + offset
                if idx >= len(params):
                    break
                if self._atoms_tainted(atoms, tainted, module, fn.calls):
                    bucket = self.tainted_params.setdefault(callee, set())
                    if params[idx] not in bucket:
                        bucket.add(params[idx])
                        global_changed = True
            for kw_name, atoms in site.kwargs:
                if kw_name in params and self._atoms_tainted(
                    atoms, tainted, module, fn.calls
                ):
                    bucket = self.tainted_params.setdefault(callee, set())
                    if kw_name not in bucket:
                        bucket.add(kw_name)
                        global_changed = True
        return global_changed

    def _solve(self) -> None:
        items = [
            (key, facts, fn)
            for key, (facts, fn) in self.index.functions.items()
        ]
        changed = True
        while changed:
            changed = False
            for key, facts, fn in items:
                if self._solve_function(key, facts, fn):
                    changed = True

    # -- queries ------------------------------------------------------------

    def summary(self, key: str) -> FunctionSummary | None:
        entry = self.index.functions.get(key)
        if entry is None:
            return None
        facts, fn = entry
        return FunctionSummary(
            key=key,
            path=facts.path,
            params=fn.params,
            tainted_params=tuple(sorted(self.tainted_params.get(key, ()))),
            returns_bound=key in self.returns_bound,
        )

    def tainted_locals(self, module: ModuleFacts, qualname: str) -> frozenset[str]:
        """Names (params + locals) holding a bound inside one function,
        beyond what the name convention already marks."""
        key = f"{module.module}.{qualname}"
        explicit = self._locals.get(key, frozenset())
        return frozenset(
            name for name in explicit if not BOUND_NAME_RE.search(name)
        )
