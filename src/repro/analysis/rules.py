"""Soundness rules S001-S008 (plus the S000 pragma-hygiene rule).

Every rule is a heuristic check for a violation of the
directed-rounding discipline documented in ``docs/SOUNDNESS.md``. The
common machinery:

* **Bound taint** — an expression "carries a bound" when its subtree
  reads an interval endpoint (``.lo`` / ``.hi`` attributes, including
  derived names like ``lo_coeffs``) or mentions a bound-named variable
  (``lo``, ``out_hi``, ``conc_lo``, ``lower`` ...). Names are matched by
  convention *and*, when the whole-program pass runs, by the
  interprocedural dataflow in :mod:`repro.analysis.dataflow` — a bound
  returned from a neutrally-named helper is tainted too. Rules query
  taint through :meth:`Context.tainted`, never the name convention
  directly. Every taint query walks the expression with
  :func:`taint_walk`, which skips array metadata (``lo.shape``,
  ``len(lo)`` ...): a count or a dtype read from a bound array carries
  no bound.
* **Rounding wrappers** — arithmetic enclosed (within one expression) in
  a call to a directed-rounding helper (``rounding.down``/``up``/...,
  ``math.nextafter``, ``np.nextafter``) is exempt: the wrapper is what
  the discipline demands.

False positives are expected and intended to be *cheap*: a vetted site
gets an inline ``# sound: ok <reason>`` pragma, a legacy backlog lives
in the committed baseline. What must never happen is a silent raw-float
bound sneaking into a new diff.

The concurrency rule family (C001-C005) lives in
:mod:`repro.analysis.concurrency`; its codes are registered here so the
``--select``/pragma/baseline machinery treats both families uniformly.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .visitor import Context

__all__ = [
    "ALL_CODES",
    "CONCURRENCY_CODES",
    "RULES",
    "Rule",
    "is_bound_tainted",
    "is_rounding_call",
    "rule_by_code",
    "taint_walk",
]

#: Directed-rounding wrappers: arithmetic inside a call to one of these
#: satisfies the discipline.
ROUNDING_WRAPPERS = frozenset(
    {
        "down",
        "up",
        "down_ulps",
        "up_ulps",
        "lib_down",
        "lib_up",
        "array_down",
        "array_up",
        "nextafter",
    }
)

#: Variable-name convention for bound-carrying values.
BOUND_NAME_RE = re.compile(
    r"^(lo|hi|lb|ub|lower|upper|low|high)$"  # bare bound names
    r"|^(lo|hi)[_0-9]"                        # lo_u, hi_arr, lo_coeffs ...
    r"|_(lo|hi)$"                             # out_lo, conc_hi, raw_lo ...
)

#: ``math`` functions that are exact in IEEE-754 double precision and
#: therefore need no enclosure (integer-valued, sign/exponent surgery).
EXACT_MATH = frozenset(
    {
        "floor",
        "ceil",
        "trunc",
        "fabs",
        "copysign",
        "isfinite",
        "isinf",
        "isnan",
        "isclose",
        "frexp",
        "ldexp",
        "ulp",
        "nextafter",
        "fmod",
        "remainder",
    }
)

#: Faithfully-rounded (at best) library functions: raw calls lose up to
#: an ulp in an unknown direction, so the sound path must use the
#: ``repro.intervals.functions`` enclosures (or wrap in lib_down/lib_up).
TRANSCENDENTALS = frozenset(
    {
        "sin", "cos", "tan", "asin", "acos", "atan", "atan2",
        "sinh", "cosh", "tanh", "asinh", "acosh", "atanh",
        "exp", "exp2", "expm1", "log", "log2", "log10", "log1p",
        "sqrt", "cbrt", "pow", "hypot", "erf", "erfc", "gamma", "lgamma",
    }
)

#: Accumulating reductions that round to nearest internally.
RAW_ACCUMULATORS = frozenset({"sum", "dot", "prod", "matmul", "fsum", "inner"})

#: Nearest-rounding numpy elementwise ufuncs. Their spelled-out call
#: form (``np.add(lo, x)``) escapes S001's BinOp check, and on the
#: batched structure-of-arrays (lo, hi) kernels that call form is the
#: natural broadcasting idiom — hence its own rule (S006).
RAW_UFUNCS = frozenset(
    {
        "add",
        "subtract",
        "multiply",
        "divide",
        "true_divide",
        "square",
        "reciprocal",
        "power",
        "float_power",
        "einsum",
        "tensordot",
        "vdot",
        "outer",
        "cumsum",
        "cumprod",
    }
)

ARITH_OPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.MatMult)


def _call_name(func: ast.expr) -> str | None:
    """Final identifier of a call target (``np.nextafter`` -> ``nextafter``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _root_name(node: ast.expr) -> str | None:
    """Leftmost identifier of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_rounding_call(node: ast.Call) -> bool:
    name = _call_name(node.func)
    return name is not None and name in ROUNDING_WRAPPERS


#: Array metadata attributes: a shape, rank, element count, dtype or
#: element width read from a bound array is not itself a bound.
METADATA_ATTRS = frozenset({"shape", "ndim", "size", "dtype", "itemsize"})


def taint_walk(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` for taint queries: every node of the subtree except
    array metadata (``x.shape``, ``.ndim``, ``.size``, ``.dtype``,
    ``.itemsize``, ``len(x)``) and everything under it."""
    todo = [node]
    while todo:
        sub = todo.pop()
        if isinstance(sub, ast.Attribute):
            if sub.attr in METADATA_ATTRS:
                continue
        elif (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "len"
        ):
            continue
        yield sub
        todo.extend(ast.iter_child_nodes(sub))


def is_bound_tainted(node: ast.AST) -> bool:
    """True if the subtree reads an interval endpoint (by convention)."""
    for sub in taint_walk(node):
        if isinstance(sub, ast.Attribute) and BOUND_NAME_RE.search(sub.attr):
            return True
        if isinstance(sub, ast.Name) and BOUND_NAME_RE.search(sub.id):
            return True
    return False


def _identifiers(node: ast.AST) -> set[str]:
    """All identifiers (names and attribute segments) in a subtree."""
    out: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _is_exact_constant(node: ast.expr) -> bool:
    """Literal 0 / 0.0 / +-inf: exact comparisons against these are fine."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return node.value == 0 or node.value in (float("inf"), float("-inf"))
    if isinstance(node, ast.Attribute) and node.attr in ("inf", "infty"):
        return True
    if isinstance(node, ast.Name) and node.id in ("inf", "INF", "_INF"):
        return True
    return False


class Rule:
    """Base class: subclasses set the class attributes and override
    :meth:`visit` (called for every AST node, top-down)."""

    code: str = ""
    name: str = ""
    summary: str = ""

    def visit(self, node: ast.AST, ctx: "Context") -> None:  # pragma: no cover
        raise NotImplementedError

    # Helper shared by rules that report an outermost expression and
    # must not re-report its sub-expressions.
    def _cover(self, node: ast.AST, ctx: "Context") -> None:
        ctx.cover(self.code, node)

    def _is_covered(self, node: ast.AST, ctx: "Context") -> bool:
        return ctx.is_covered(self.code, node)


class RawBoundArithmetic(Rule):
    """S001: raw round-to-nearest arithmetic on bound-carrying values."""

    code = "S001"
    name = "raw-bound-arithmetic"
    summary = (
        "raw float arithmetic on interval bounds; route the result "
        "through rounding.down/up (or document why it is sound)"
    )

    def visit(self, node: ast.AST, ctx: "Context") -> None:
        if ctx.rounding_depth:
            return
        if isinstance(node, ast.BinOp) and isinstance(node.op, ARITH_OPS):
            if self._is_covered(node, ctx) or not ctx.tainted(node):
                return
            op = type(node.op).__name__
            ctx.report(self, node, f"raw `{op}` on a bound-carrying value")
            self._cover(node, ctx)
        elif isinstance(node, ast.Call):
            name = _call_name(node.func)
            if name not in RAW_ACCUMULATORS:
                return
            if self._is_covered(node, ctx):
                return
            if any(ctx.tainted(arg) for arg in node.args):
                ctx.report(
                    self, node, f"raw `{name}()` accumulation over bound values"
                )
                self._cover(node, ctx)


class RawTranscendental(Rule):
    """S002: non-validated transcendental calls in sound-path code."""

    code = "S002"
    name = "raw-transcendental"
    summary = (
        "faithfully-rounded library call; use the repro.intervals.functions "
        "enclosures or wrap in rounding.lib_down/lib_up"
    )

    def visit(self, node: ast.AST, ctx: "Context") -> None:
        if ctx.rounding_depth or not isinstance(node, ast.Call):
            return
        name = _call_name(node.func)
        if name is None or name in EXACT_MATH or name not in TRANSCENDENTALS:
            return
        # Only flag the well-known numeric namespaces (and names imported
        # from them), not arbitrary objects that happen to have a .sin().
        if isinstance(node.func, ast.Attribute):
            root = _root_name(node.func)
            if root not in ("math", "np", "numpy"):
                return
        elif isinstance(node.func, ast.Name):
            if node.func.id not in ctx.numeric_imports:
                return
        else:
            return
        ctx.report(self, node, f"raw `{ast.unparse(node.func)}` call")


class ExactBoundComparison(Rule):
    """S003: float ``==``/``!=`` on bound values."""

    code = "S003"
    name = "exact-bound-comparison"
    summary = (
        "exact float equality on bounds is brittle under rounding; "
        "compare with an ordering or document the exact-value intent"
    )

    def visit(self, node: ast.AST, ctx: "Context") -> None:
        if not isinstance(node, ast.Compare):
            return
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            tainted = ctx.tainted(left) or ctx.tainted(right)
            if not tainted:
                continue
            if _is_exact_constant(left) or _is_exact_constant(right):
                continue  # comparisons against exact 0 / inf are exact
            ctx.report(
                self,
                node,
                "float `==`/`!=` on a bound-carrying value",
            )
            return


class EndpointMutation(Rule):
    """S004: in-place mutation of interval/box endpoint storage."""

    code = "S004"
    name = "endpoint-mutation"
    summary = (
        "in-place mutation of endpoint arrays breaks the immutability "
        "the enclosure proofs rely on; build a new Interval/Box instead"
    )

    MUTATORS = frozenset({"fill", "sort", "put", "itemset", "resize", "partition"})

    def visit(self, node: ast.AST, ctx: "Context") -> None:
        if isinstance(node, ast.Assign):
            targets: Iterable[ast.expr] = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self.MUTATORS
                and ctx.tainted(func.value)
            ):
                ctx.report(self, node, f"mutating `.{func.attr}()` on endpoint storage")
            return
        else:
            return
        if ctx.in_constructor:
            return  # `self.lo = ...` inside __init__/__new__ is the one legal write
        for target in targets:
            for element in self._flatten(target):
                if self._is_endpoint_store(element, ctx):
                    ctx.report(
                        self,
                        node,
                        f"in-place write to `{ast.unparse(element)}`",
                    )
                    return

    @staticmethod
    def _flatten(target: ast.expr) -> Iterable[ast.expr]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from EndpointMutation._flatten(element)
        else:
            yield target

    @staticmethod
    def _is_endpoint_store(target: ast.expr, ctx: "Context") -> bool:
        if isinstance(target, ast.Attribute):
            return bool(BOUND_NAME_RE.search(target.attr))
        if isinstance(target, ast.Subscript):
            return ctx.tainted(target.value)
        return False


class UnguardedDivision(Rule):
    """S005: dividing by a bound value with no zero-exclusion in sight."""

    code = "S005"
    name = "unguarded-bound-division"
    summary = (
        "division by a bound-carrying value without a visible "
        "zero-in-divisor guard in the enclosing function"
    )

    def visit(self, node: ast.AST, ctx: "Context") -> None:
        if not isinstance(node, ast.BinOp) or not isinstance(
            node.op, (ast.Div, ast.FloorDiv, ast.Mod)
        ):
            return
        if not ctx.tainted(node.right):
            return
        if self._function_guards(ctx.current_function, node.right):
            return
        ctx.report(
            self,
            node,
            f"division by `{ast.unparse(node.right)}` without a zero guard",
        )

    @staticmethod
    def _function_guards(func: ast.AST | None, divisor: ast.expr) -> bool:
        """Heuristic: the enclosing function tests the divisor's
        identifiers against zero somewhere, or raises ZeroDivisionError."""
        if func is None:
            return False
        wanted = _identifiers(divisor)
        for sub in ast.walk(func):
            if isinstance(sub, ast.Raise):
                exc = sub.exc
                name = None
                if isinstance(exc, ast.Call):
                    name = _call_name(exc.func)
                elif isinstance(exc, ast.Name):
                    name = exc.id
                if name == "ZeroDivisionError":
                    return True
            if isinstance(sub, ast.Compare):
                operands = [sub.left, *sub.comparators]
                has_zero = any(
                    isinstance(operand, ast.Constant) and operand.value == 0
                    for operand in operands
                )
                if has_zero and wanted & _identifiers(sub):
                    return True
        return False


class RawBatchedUfunc(Rule):
    """S006: spelled-out nearest-mode ufunc on bound-carrying arrays."""

    code = "S006"
    name = "raw-batched-ufunc"
    summary = (
        "nearest-mode numpy ufunc call on (batched) lo/hi arrays; use "
        "the repro.intervals.batched kernels or wrap the result in "
        "array_down/array_up"
    )

    def visit(self, node: ast.AST, ctx: "Context") -> None:
        if ctx.rounding_depth or not isinstance(node, ast.Call):
            return
        name = _call_name(node.func)
        if name is None or name not in RAW_UFUNCS:
            return
        # Same namespace discipline as S002: only ``np.``/``numpy.``
        # attributes and names imported from numpy, not arbitrary
        # objects that happen to have an ``.add()``.
        if isinstance(node.func, ast.Attribute):
            root = _root_name(node.func)
            if root not in ("np", "numpy"):
                return
        elif isinstance(node.func, ast.Name):
            if node.func.id not in ctx.numeric_imports:
                return
        else:
            return
        if not any(ctx.tainted(arg) for arg in node.args):
            return
        ctx.report(
            self, node, f"raw `{ast.unparse(node.func)}` call on bound arrays"
        )


class UnsanctionedBoundReturn(Rule):
    """S007: a bound-carrying value returned through an unsanctioned
    module — the interprocedural summary says the callee returns a raw
    endpoint, but the callee's module is neither in the soundness scope
    (so S001-S006 never audit it) nor a module that implements the
    discipline (``policy.SANCTIONED``). Excluding a module from the
    scope does not sanction it."""

    code = "S007"
    name = "unsanctioned-bound-return"
    summary = (
        "call returns a bound computed in a module outside the "
        "soundness scope; move the helper into a checked package or "
        "give the call a pragma saying why the bound is sound"
    )

    def visit(self, node: ast.AST, ctx: "Context") -> None:
        if ctx.rounding_depth or not isinstance(node, ast.Call):
            return
        program = ctx.program
        policy = ctx.policy
        if program is None or policy is None:
            return
        key = ctx.resolve_call(node)
        if key is None:
            return
        summary = program.summary(key)
        if summary is None or not summary.returns_bound:
            return
        if summary.path == ctx.path:
            return  # same module: S001-S006 see the helper directly
        if policy.in_scope(summary.path):
            return  # callee is itself under the S-rules
        if policy.is_sanctioned(summary.path):
            return  # the callee implements the wrappers (rounding.py)
        ctx.report(
            self,
            node,
            f"`{ast.unparse(node.func)}` returns a bound computed in "
            f"unsanctioned module {summary.path}",
        )


class ContainerTaintLaundering(Rule):
    """S008: a raw endpoint value stored into an untyped container —
    once ``vals.append(iv.lo)`` runs, nothing marks ``vals[0]`` as a
    bound, so every later read escapes the whole rule family."""

    code = "S008"
    name = "container-taint-laundering"
    summary = (
        "raw bound value stored into an untyped container loses its "
        "taint; keep endpoints in Interval/Box objects or a bound-named "
        "container"
    )

    APPENDERS = {"append": -1, "add": -1, "insert": 1, "appendleft": -1}

    def visit(self, node: ast.AST, ctx: "Context") -> None:
        if ctx.rounding_depth:
            return
        if isinstance(node, ast.Call):
            func = node.func
            if not isinstance(func, ast.Attribute):
                return
            arg_index = self.APPENDERS.get(func.attr)
            if arg_index is None or not node.args:
                return
            try:
                stored = node.args[arg_index]
            except IndexError:
                return
            self._check(node, func.value, stored, ctx)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    self._check(node, target.value, node.value, ctx)
                    return

    def _check(self, node: ast.AST, container: ast.expr,
               stored: ast.expr, ctx: "Context") -> None:
        if isinstance(stored, ast.Call):
            return  # wrapping in a constructor keeps the value typed
        if is_bound_tainted(container):
            return  # a bound-named container keeps the taint visible
        if not ctx.tainted(stored):
            return
        ctx.report(
            self,
            node,
            f"bound value stored into untyped container "
            f"`{ast.unparse(container)}`",
        )


RULES: tuple[Rule, ...] = (
    RawBoundArithmetic(),
    RawTranscendental(),
    ExactBoundComparison(),
    EndpointMutation(),
    UnguardedDivision(),
    RawBatchedUfunc(),
    UnsanctionedBoundReturn(),
    ContainerTaintLaundering(),
)

#: Codes of the concurrency rule family (rule objects live in
#: :mod:`repro.analysis.concurrency`; the codes are registered here so
#: select/pragma/baseline handling treats both passes uniformly).
CONCURRENCY_CODES: tuple[str, ...] = ("C001", "C002", "C003", "C004", "C005")

#: Every rule code: the engine-level pragma rule S000, the soundness
#: traversal rules, and the concurrency family.
ALL_CODES: tuple[str, ...] = (
    ("S000",) + tuple(rule.code for rule in RULES) + CONCURRENCY_CODES
)


def rule_by_code(code: str) -> Rule | None:
    for rule in RULES:
        if rule.code == code:
            return rule
    return None
