"""Module fact extraction and whole-program call resolution."""

import ast
import textwrap

from repro.analysis.callgraph import (
    COMMON_METHODS,
    ProgramIndex,
    extract_module_facts,
    module_name_for_path,
)


def facts_of(code, path="src/repro/intervals/mod.py"):
    return extract_module_facts(ast.parse(textwrap.dedent(code)), path)


def first_call(code):
    tree = ast.parse(textwrap.dedent(code))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            return node
    raise AssertionError("no call in snippet")


class TestModuleNames:
    def test_src_rooted(self):
        assert module_name_for_path("src/repro/core/reach.py") == "repro.core.reach"

    def test_last_src_segment_wins(self):
        assert module_name_for_path("a/src/b/src/pkg/m.py") == "pkg.m"

    def test_init_collapses_to_package(self):
        assert module_name_for_path("src/repro/sets/__init__.py") == "repro.sets"

    def test_no_src_falls_back_to_path_chain(self):
        assert module_name_for_path("tests/analysis/x.py") == "tests.analysis.x"


class TestExtraction:
    def test_function_skeleton(self):
        facts = facts_of(
            """
            def widen(iv, eps):
                w = iv.lo - eps
                return w
            """
        )
        fn = facts.functions["widen"]
        assert fn.params == ("iv", "eps")
        assert fn.assigns == ((("w",), ("name:eps", "name:iv", "seed")),)
        assert fn.returns == (("name:w",),)

    def test_seeded_params_by_name_and_annotation(self):
        facts = facts_of(
            """
            def f(lo, x: hi_scalar, y):
                return y
            """
        )
        assert set(facts.functions["f"].seeded_params) == {"lo", "x"}

    def test_syntactic_return_bound(self):
        facts = facts_of("def f(box):\n    return box.hi\n")
        assert facts.functions["f"].syntactic_return_bound

    def test_nested_function_calls_belong_to_the_nested_function(self):
        facts = facts_of(
            """
            def outer(x):
                def inner(y):
                    return helper(y)
                return inner(x)
            """
        )
        assert [site.parts for site in facts.functions["outer"].calls] == [
            ("inner",)
        ]
        assert [site.parts for site in facts.functions["outer.inner"].calls] == [
            ("helper",)
        ]

    def test_module_level_structure(self):
        facts = facts_of(
            """
            import numpy as np
            from math import sqrt

            LIMIT = 4.0

            class Seg:
                def width(self):
                    return self.span()

                def span(self):
                    return 1.0
            """
        )
        assert facts.imports["np"] == "numpy"
        assert facts.imports["sqrt"] == "math.sqrt"
        assert "LIMIT" in facts.module_names
        assert facts.classes["Seg"] == ("width", "span")
        assert "Seg.width" in facts.functions


class TestResolution:
    def make_index(self):
        lib = facts_of(
            """
            def widest(box):
                return box.lo

            class Pipe:
                def tighten(self):
                    return 0.0
            """,
            path="src/repro/intervals/lib.py",
        )
        user = facts_of(
            """
            from repro.intervals.lib import widest
            import numpy as np

            def consume(box):
                w = widest(box)
                return w
            """,
            path="src/repro/core/user.py",
        )
        index = ProgramIndex({lib.path: lib, user.path: user})
        return index, lib, user

    def test_same_module_name(self):
        index, lib, _ = self.make_index()
        assert (
            index.resolve(lib, "name", ("widest",))
            == "repro.intervals.lib.widest"
        )

    def test_imported_name(self):
        index, _, user = self.make_index()
        assert (
            index.resolve(user, "name", ("widest",))
            == "repro.intervals.lib.widest"
        )

    def test_unknown_import_attr_is_external(self):
        index, _, user = self.make_index()
        # np.stack: the root is a known import we cannot see into —
        # an external call, never a unique-method fallback.
        assert index.resolve(user, "attr", ("np", "stack")) is None

    def test_unique_method(self):
        index, _, user = self.make_index()
        assert (
            index.resolve(user, "method", ("tighten",))
            == "repro.intervals.lib.Pipe.tighten"
        )

    def test_common_method_names_never_resolve(self):
        index, _, user = self.make_index()
        assert "join" in COMMON_METHODS
        assert index.resolve(user, "method", ("join",)) is None

    def test_literal_receiver_is_not_a_call_site(self):
        index, _, user = self.make_index()
        call = first_call('", ".join(parts)')
        assert index.resolve_call(user, call) is None

    def test_self_method_resolution(self):
        index, lib, _ = self.make_index()
        assert (
            index.resolve(lib, "self", ("tighten",), enclosing_class="Pipe")
            == "repro.intervals.lib.Pipe.tighten"
        )
