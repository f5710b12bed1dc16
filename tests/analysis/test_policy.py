"""Policy matching: scope, sanctioned modules and per-package rules."""

from repro.analysis import Policy
from repro.analysis.rules import ALL_CODES


class TestScope:
    def test_default_includes_sound_path(self):
        policy = Policy()
        assert policy.in_scope("src/repro/intervals/interval.py")
        assert policy.in_scope("src/repro/ode/meanvalue.py")
        assert policy.in_scope("src/repro/sets/spec.py")
        assert policy.in_scope("src/repro/verify/symbolic.py")

    def test_default_excludes_rest(self):
        policy = Policy()
        assert not policy.in_scope("src/repro/nn/train.py")
        assert not policy.in_scope("src/repro/cli.py")
        assert not policy.in_scope("src/repro/intervals/rounding.py")

    def test_explicit_file_always_checked(self):
        policy = Policy()
        assert policy.in_scope("tests/analysis/fixtures/raw_bound.py", explicit=True)
        # ... but excludes still win, even explicitly.
        assert not policy.in_scope("src/repro/intervals/rounding.py", explicit=True)

    def test_segment_matching_anchors_on_segments(self):
        policy = Policy(include=("repro/ode",), exclude=())
        assert policy.in_scope("anywhere/repro/ode/x.py")
        assert not policy.in_scope("src/repro/odessa/x.py")


class TestRulesFor:
    def test_all_rules_by_default(self):
        policy = Policy()
        assert policy.rules_for("src/repro/intervals/a.py", ALL_CODES) == ALL_CODES

    def test_package_disable(self):
        policy = Policy(package_disable={"repro/verify": ("S005",)})
        active = policy.rules_for("src/repro/verify/a.py", ALL_CODES)
        assert "S005" not in active
        assert "S005" in policy.rules_for("src/repro/ode/a.py", ALL_CODES)

    def test_select_intersects(self):
        policy = Policy(select=("S001", "S003"))
        assert policy.rules_for("src/repro/intervals/a.py", ALL_CODES) == (
            "S001", "S003",
        )


class TestSanctioned:
    def test_only_the_wrapper_module_is_sanctioned(self):
        # mdp.py is out of scope for its own reasons; a bound it returns
        # to an in-scope caller is still an S007 escape.
        policy = Policy()
        assert policy.is_sanctioned("src/repro/intervals/rounding.py")
        assert not policy.in_scope("src/repro/acasxu/mdp.py")
        assert not policy.is_sanctioned("src/repro/acasxu/mdp.py")
