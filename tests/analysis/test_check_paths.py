"""Whole-program `check_paths`: each call reads only the files it is given."""

import textwrap

from repro.analysis import Policy
from repro.analysis.visitor import check_paths

HELPER = """
    def endpoint(box):
        return box.lo
"""

CONSUMER = """
    from repro.intervals.helper import endpoint

    def use(box):
        v = endpoint(box)
        return v + 1.0
"""


def make_universe(tmp_path):
    pkg = tmp_path / "src" / "repro" / "intervals"
    pkg.mkdir(parents=True)
    helper = pkg / "helper.py"
    consumer = pkg / "consumer.py"
    helper.write_text(textwrap.dedent(HELPER))
    consumer.write_text(textwrap.dedent(CONSUMER))
    return pkg, helper, consumer


class TestWholeProgram:
    def test_caller_follows_helper_source(self, tmp_path):
        # The helper stops returning a bound; the consumer file is
        # unchanged, but its S001 goes with the helper's new source.
        pkg, helper, _ = make_universe(tmp_path)
        before = check_paths([pkg], Policy())
        assert any(
            f.rule == "S001" and f.path.endswith("consumer.py") for f in before
        )
        helper.write_text("def endpoint(box):\n    return 0.0\n")
        after = check_paths([pkg], Policy())
        assert all(f.rule != "S001" for f in after)

    def test_explicit_files_ignore_include(self, tmp_path):
        _, helper, consumer = make_universe(tmp_path)
        assert check_paths([tmp_path], Policy(include=())) == []
        explicit = check_paths([helper, consumer], Policy(include=()))
        assert any(f.rule == "S001" for f in explicit)
