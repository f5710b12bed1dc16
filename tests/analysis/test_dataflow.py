"""The interprocedural bound-taint fixpoint, and the rules it feeds."""

import ast
import textwrap

from repro.analysis import Policy, check_source
from repro.analysis.callgraph import ProgramIndex, extract_module_facts
from repro.analysis.dataflow import ProgramTaint

PATH = "src/repro/intervals/snippet.py"


def lint(code, policy=None):
    return check_source(textwrap.dedent(code), PATH, policy or Policy())


def solve(*modules):
    """Build a ProgramTaint from (path, source) pairs."""
    facts = {}
    for path, source in modules:
        facts[path] = extract_module_facts(
            ast.parse(textwrap.dedent(source)), path
        )
    return ProgramTaint(ProgramIndex(facts)), facts


class TestReturnsBound:
    def test_syntactic_return(self):
        taint, _ = solve((PATH, "def f(box):\n    return box.lo\n"))
        assert "repro.intervals.snippet.f" in taint.returns_bound

    def test_two_hop_chain(self):
        taint, _ = solve(
            (
                PATH,
                """
                def inner(box):
                    return box.hi

                def outer(box):
                    return inner(box)
                """,
            )
        )
        assert "repro.intervals.snippet.outer" in taint.returns_bound

    def test_cross_module_propagation(self):
        taint, _ = solve(
            (
                "src/repro/intervals/a.py",
                "def endpoint(box):\n    return box.lo\n",
            ),
            (
                "src/repro/intervals/b.py",
                """
                from repro.intervals.a import endpoint

                def relay(box):
                    v = endpoint(box)
                    return v
                """,
            ),
        )
        assert "repro.intervals.b.relay" in taint.returns_bound

    def test_neutral_function_stays_clean(self):
        taint, _ = solve((PATH, "def g(n):\n    return n * 2\n"))
        assert taint.returns_bound == set()


class TestParamTaint:
    def test_argument_taints_callee_param(self):
        taint, _ = solve(
            (
                PATH,
                """
                def scale(v, f):
                    return v * f

                def use(box):
                    return scale(box.lo, 2.0)
                """,
            )
        )
        summary = taint.summary("repro.intervals.snippet.scale")
        assert summary.tainted_params == ("v",)
        # ... and the tainted param makes the return bound-carrying.
        assert summary.returns_bound

    def test_self_offset_for_methods(self):
        taint, _ = solve(
            (
                PATH,
                """
                class Seg:
                    def store(self, value):
                        self.value = value

                def use(seg, box):
                    seg.store(box.hi)
                """,
            )
        )
        summary = taint.summary("repro.intervals.snippet.Seg.store")
        assert summary.tainted_params == ("value",)

    def test_keyword_argument_taint(self):
        taint, _ = solve(
            (
                PATH,
                """
                def mix(a, b):
                    return b

                def use(box):
                    return mix(1.0, b=box.lo)
                """,
            )
        )
        summary = taint.summary("repro.intervals.snippet.mix")
        assert "b" in summary.tainted_params


class TestTaintedLocals:
    def test_local_from_bound_call(self):
        taint, facts = solve(
            (
                PATH,
                """
                def endpoint(box):
                    return box.lo

                def use(box):
                    v = endpoint(box)
                    return v
                """,
            )
        )
        assert "v" in taint.tainted_locals(facts[PATH], "use")

    def test_convention_names_filtered_out(self):
        taint, facts = solve(
            (PATH, "def f(box):\n    lo = box.lo\n    return lo\n")
        )
        # `lo` is already covered by the name convention; the dataflow
        # answer only adds what the convention misses.
        assert "lo" not in taint.tainted_locals(facts[PATH], "f")


class TestRulesSeeTheDataflow:
    def test_s001_on_laundered_local(self):
        findings = lint(
            """
            def endpoint(box):
                return box.lo

            def use(box):
                v = endpoint(box)
                return v + 1.0
            """
        )
        assert "S001" in {f.rule for f in findings}

    def test_s001_on_bound_returning_call_in_expression(self):
        findings = lint(
            """
            def endpoint(box):
                return box.hi

            def use(box):
                return endpoint(box) * 2.0
            """
        )
        assert "S001" in {f.rule for f in findings}

    def test_neutral_helper_does_not_taint(self):
        findings = lint(
            """
            def double(n):
                return n * 2

            def use(n):
                return double(n) + 1.0
            """
        )
        assert findings == []

    def test_s008_container_laundering(self):
        findings = lint(
            """
            def collect(boxes):
                out = []
                for box in boxes:
                    out.append(box.lo)
                return out
            """
        )
        assert "S008" in {f.rule for f in findings}

    def test_s008_quiet_for_bound_named_container(self):
        findings = lint(
            """
            def collect(boxes):
                all_lo = []
                for box in boxes:
                    all_lo.append(box.lo)
                return all_lo
            """
        )
        assert "S008" not in {f.rule for f in findings}

    def test_s008_quiet_for_constructor_wrapped_value(self):
        findings = lint(
            """
            def collect(boxes):
                out = []
                for box in boxes:
                    out.append(Interval(box.lo, box.hi))
                return out
            """
        )
        assert "S008" not in {f.rule for f in findings}


def _s001_lines(findings):
    return sorted(f.line for f in findings if f.rule == "S001")


class TestLoopTargets:
    """A tuple loop target over ``zip``/``enumerate`` is bound element
    by element: a flag list derived from a bound taints only the name
    that iterates it."""

    def test_zip_taints_only_its_own_element(self):
        # reach_many's shape: `done` comes from a bound test, `cells` not.
        source = """
            def flags(box):
                return box.lo

            def use(cells, box):
                done = flags(box)
                for cell, finished in zip(cells, done):
                    row = cell.start + 1.0
                    late = finished + 1.0
                return row, late
            """
        taint, facts = solve((PATH, source))
        tainted = taint.tainted_locals(facts[PATH], "use")
        assert "finished" in tainted and "cell" not in tainted
        # Line 8 is `row = cell.start + 1.0`, line 9 `late = finished + 1.0`.
        assert _s001_lines(lint(source)) == [9]

    def test_enumerate_index_carries_nothing(self):
        source = """
            def flags(box):
                return box.lo

            def use(box):
                bounds = flags(box)
                for i, x in enumerate(bounds):
                    shifted = i + 1.0
                    scaled = x * 2.0
                return shifted, scaled
            """
        taint, facts = solve((PATH, source))
        tainted = taint.tainted_locals(facts[PATH], "use")
        assert "x" in tainted and "i" not in tainted
        assert _s001_lines(lint(source)) == [9]

    def test_bound_caught_through_the_element_it_rides_in(self):
        source = """
            def flags(box):
                return box.lo

            def use(cells, names, box):
                done = flags(box)
                for cell, (name, edge) in zip(cells, zip(names, done)):
                    a = cell.start + 1.0
                    b = edge + 1.0
                for pair in zip(cells, done):
                    c = pair[1] + 1.0
                for item, finished in zip(*[cells, done]):
                    d = item.start + 1.0
                return a, b, c, d
            """
        taint, facts = solve((PATH, source))
        tainted = taint.tainted_locals(facts[PATH], "use")
        assert "edge" in tainted and "name" not in tainted
        # A non-tuple target and a starred zip keep the whole-iterable rule.
        assert "pair" in tainted and "item" in tainted
        assert _s001_lines(lint(source)) == [9, 11, 13]


class TestArrayMetadata:
    """A shape, rank, size, dtype or length read from a bound array is a
    count, not a bound: the shared taint walker does not descend into
    it, in the rules, the extracted facts and the rule pass alike."""

    def test_shape_derived_index_carries_nothing(self):
        source = """
            def pick(lo, networks):
                g = lo.shape[0] - 1
                w = networks[g]
                return w * 2.0
            """
        taint, facts = solve((PATH, source))
        tainted = taint.tainted_locals(facts[PATH], "pick")
        assert "g" not in tainted and "w" not in tainted
        assert lint(source) == []

    def test_length_comparison_is_not_s003(self):
        source = """
            def single(lo):
                return len(lo) == 1
            """
        assert lint(source) == []

    def test_every_metadata_form_is_skipped(self):
        source = """
            def meta(lo):
                a = lo.ndim + 1
                b = lo.size * 2
                c = lo.dtype.itemsize * 8
                d = lo.itemsize + 0
                return a, b, c, d
            """
        assert lint(source) == []

    def test_the_bound_itself_still_flagged(self):
        source = """
            def scale(lo):
                a = lo * 2.0
                b = lo.T * 2.0
                return a, b
            """
        assert _s001_lines(lint(source)) == [3, 4]
        taint, facts = solve((PATH, """
            def scale(box):
                t = box.lo.T
                return t
            """))
        assert "repro.intervals.snippet.scale" in taint.returns_bound
