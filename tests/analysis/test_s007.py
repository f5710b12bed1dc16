"""S007 unsanctioned-bound-return, driven by the seeded fixture tree."""

import textwrap
from pathlib import Path

from repro.analysis import Policy
from repro.analysis.visitor import check_paths

FIXTURE = Path(__file__).parent / "fixtures" / "s007_src"

# `consumer.py` is in scope; `helpers.py` is neither in scope nor
# sanctioned, so its bound-returning `widest` triggers S007 at the
# call site.
POLICY = Policy(include=("boundpkg/consumer.py",), exclude=())


def s007_findings(findings):
    return [f for f in findings if f.rule == "S007"]


class TestSeededFixture:
    def test_fixture_fires_exactly_once(self):
        findings = check_paths([FIXTURE], POLICY)
        flagged = s007_findings(findings)
        assert len(flagged) == 1
        assert "widest" in flagged[0].message
        assert flagged[0].path.endswith("consumer.py")

    def test_neutral_helper_is_not_flagged(self):
        findings = check_paths([FIXTURE], POLICY)
        assert all("neutral" not in f.message for f in s007_findings(findings))


def write_tree(tmp_path, helper_body):
    pkg = tmp_path / "src" / "boundpkg"
    pkg.mkdir(parents=True)
    (pkg / "helpers.py").write_text(textwrap.dedent(helper_body))
    (pkg / "consumer.py").write_text(
        textwrap.dedent(
            """
            from .helpers import widest

            def shrink(box):
                w = widest(box)
                return w
            """
        )
    )
    return tmp_path


class TestScopeBoundaries:
    def test_in_scope_callee_is_quiet(self, tmp_path):
        # When the helper module is itself under the S-rules, the
        # S001-S006 family audits it directly — S007 stays quiet.
        root = write_tree(tmp_path, "def widest(box):\n    return box.lo\n")
        policy = Policy(include=("boundpkg/",), exclude=())
        findings = check_paths([root], policy)
        assert s007_findings(findings) == []

    def test_excluded_callee_still_fires(self, tmp_path):
        # Leaving the helper's module out of scope is not a sanction:
        # nothing audits how it computed the bound it returns.
        root = write_tree(tmp_path, "def widest(box):\n    return box.lo\n")
        policy = Policy(
            include=("boundpkg/consumer.py",),
            exclude=("boundpkg/helpers.py",),
        )
        flagged = s007_findings(check_paths([root], policy))
        assert len(flagged) == 1
        assert "helpers.py" in flagged[0].message

    def test_sanctioned_callee_is_quiet(self, tmp_path):
        # rounding.py implements the wrappers: its bounds are sanctioned.
        rounding = tmp_path / "src" / "repro" / "intervals" / "rounding.py"
        rounding.parent.mkdir(parents=True)
        rounding.write_text("def widest(box):\n    return box.lo\n")
        pkg = tmp_path / "src" / "boundpkg"
        pkg.mkdir(parents=True)
        (pkg / "consumer.py").write_text(
            "from repro.intervals.rounding import widest\n\n"
            "def shrink(box):\n    w = widest(box)\n    return w\n"
        )
        findings = check_paths(
            [tmp_path], Policy(include=("boundpkg/consumer.py",))
        )
        assert s007_findings(findings) == []

    def test_clean_helper_is_quiet(self, tmp_path):
        root = write_tree(tmp_path, "def widest(box):\n    return 2.0\n")
        findings = check_paths(
            [root], Policy(include=("boundpkg/consumer.py",), exclude=())
        )
        assert s007_findings(findings) == []

    def test_pragma_suppresses(self, tmp_path):
        pkg = tmp_path / "src" / "boundpkg"
        pkg.mkdir(parents=True)
        (pkg / "helpers.py").write_text(
            "def widest(box):\n    return box.lo\n"
        )
        (pkg / "consumer.py").write_text(
            textwrap.dedent(
                """
                from .helpers import widest

                def shrink(box):
                    # sound: ok [S007] helper audited by hand, wrapper lands next PR
                    w = widest(box)
                    return w
                """
            )
        )
        findings = check_paths(
            [tmp_path], Policy(include=("boundpkg/consumer.py",), exclude=())
        )
        assert s007_findings(findings) == []
