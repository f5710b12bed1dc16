"""Pragma parsing, suppression scope, and S000 hygiene findings."""

import textwrap

from repro.analysis import ALL_CODES, Policy, check_source, parse_pragma

PATH = "src/repro/intervals/snippet.py"


def lint(code, policy=None):
    return check_source(textwrap.dedent(code), PATH, policy or Policy())


class TestParsing:
    def test_basic(self):
        pragma = parse_pragma("# sound: ok clamped below", 7)
        assert pragma is not None
        assert pragma.line == 7
        assert pragma.codes == ()
        assert pragma.reason == "clamped below"

    def test_with_codes(self):
        pragma = parse_pragma("# sound: ok [S001, s003] vetted", 1)
        assert pragma.codes == ("S001", "S003")
        assert pragma.applies_to("S001")
        assert pragma.applies_to("S003")
        assert not pragma.applies_to("S002")

    def test_empty_codes_apply_to_all(self):
        pragma = parse_pragma("# sound: ok because reasons", 1)
        assert pragma.applies_to("S004")

    def test_non_pragma_comment(self):
        assert parse_pragma("# just a note", 1) is None


class TestSuppression:
    def test_same_line_pragma(self):
        assert lint(
            "def f(iv):\n"
            "    return iv.lo + 1.0  # sound: ok vetted by hand\n"
        ) == []

    def test_pragma_on_line_above(self):
        assert lint(
            "def f(iv):\n"
            "    # sound: ok vetted by hand\n"
            "    return iv.lo + 1.0\n"
        ) == []

    def test_multi_line_comment_block_above(self):
        assert lint(
            "def f(iv):\n"
            "    # sound: ok [S001] a long explanation that wraps onto\n"
            "    # a second physical comment line\n"
            "    return iv.lo + 1.0\n"
        ) == []

    def test_pragma_covers_whole_multiline_statement(self):
        assert lint(
            "def f(iv, o):\n"
            "    # sound: ok [S001] all four products vetted\n"
            "    products = (\n"
            "        iv.lo * o.lo,\n"
            "        iv.hi * o.hi,\n"
            "    )\n"
            "    return products\n"
        ) == []

    def test_wrong_code_does_not_suppress(self):
        findings = lint(
            "def f(iv):\n"
            "    return iv.lo + 1.0  # sound: ok [S002] wrong rule\n"
        )
        rules = [f.rule for f in findings]
        assert "S001" in rules
        # ... and the pragma is now unused, which is itself reported.
        assert "S000" in rules

    def test_string_literal_cannot_fake_pragma(self):
        findings = lint(
            'def f(iv):\n    x = "# sound: ok not a pragma"\n    return iv.lo + 1.0\n'
        )
        assert [f.rule for f in findings] == ["S001"]


class TestDataflowInteraction:
    """Pragmas against findings the interprocedural pass produces."""

    CHAIN = """
        def endpoint(box):
            return box.lo

        def use(box):
            # sound: ok [S001] chain vetted, result re-rounded by caller
            v = (
                endpoint(box)
                + 1.0
            )
            return v
        """

    def test_pragma_covers_multi_line_call_chain(self):
        # The flagged `+` sits two physical lines below the pragma, but
        # both are inside one statement starting on the pragma's line.
        assert lint(self.CHAIN) == []

    def test_pragma_goes_stale_when_dataflow_stops_flagging(self):
        # Same consumer, but the helper no longer returns a bound: the
        # dataflow verdict flips, the pragma has nothing to suppress,
        # and hygiene must surface it instead of letting it rot.
        neutral = self.CHAIN.replace("return box.lo", "return 0.0")
        findings = lint(neutral)
        assert [f.rule for f in findings] == ["S000"]
        assert "unused" in findings[0].message

    def test_mixed_code_pragma_only_uses_matching_family(self):
        # A pragma listing both an S and a C code is "used" as soon as
        # either family fires under it.
        findings = lint(
            """
            def endpoint(box):
                return box.hi

            def use(box):
                # sound: ok [S001, C004] audited both ways
                v = endpoint(box) + 1.0
                return v
            """
        )
        assert findings == []


class TestHygiene:
    def test_reasonless_pragma_reported(self):
        findings = lint(
            "def f(iv):\n"
            "    return iv.lo + 1.0  # sound: ok\n"
        )
        assert [f.rule for f in findings] == ["S000"]
        assert "reason" in findings[0].message

    def test_unused_pragma_reported(self):
        findings = lint(
            "def f(a, b):\n"
            "    return a + b  # sound: ok nothing here needs this\n"
        )
        assert [f.rule for f in findings] == ["S000"]
        assert "unused" in findings[0].message

    def test_unused_not_reported_under_select(self):
        # --select runs a subset of rules; a pragma for a deselected rule
        # must not be punished as unused.
        policy = Policy(select=("S003",))
        findings = lint(
            "def f(iv):\n"
            "    return iv.lo + 1.0  # sound: ok [S001] vetted\n",
            policy=policy,
        )
        assert findings == []

    # CI's two filtered steps: the S-rule pass and the C-rule pass.
    S_STEP = Policy(select=tuple(c for c in ALL_CODES if c.startswith("S")))
    C_STEP = Policy(select=tuple(c for c in ALL_CODES if c.startswith("C")))

    def test_unused_pragma_reported_when_its_codes_ran(self):
        findings = lint(
            "def f(a, b):\n"
            "    return a + b  # sound: ok [S001] nothing here needs this\n",
            policy=self.S_STEP,
        )
        assert [f.rule for f in findings] == ["S000"]
        assert "unused" in findings[0].message

    def test_unused_pragma_not_judged_when_its_codes_did_not_run(self):
        assert lint(
            "def f(a, b):\n"
            "    return a + b  # sound: ok [S001] nothing here needs this\n",
            policy=self.C_STEP,
        ) == []

    def test_codeless_pragma_judged_only_on_a_full_run(self):
        assert lint(
            "def f(a, b):\n"
            "    return a + b  # sound: ok nothing here needs this\n",
            policy=self.S_STEP,
        ) == []
