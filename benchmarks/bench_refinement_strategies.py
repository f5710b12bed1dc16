"""Ablation — split-refinement strategies (Section 8 future work).

The paper uses blind 2^3-way bisection on (x0, y0, psi0) and proposes,
as future work, "identifying the variable having the most influence on
the overall system behaviour, and splitting along the corresponding
dimension only". Both are implemented; this bench compares them on
failing cells: coverage recovered per child verified.
"""

import pytest

from repro.core import (
    ReachSettings,
    RefinementPolicy,
    RunnerSettings,
    Verdict,
    verify_cell,
)


def _count_nodes(result):
    return 1 + sum(_count_nodes(c) for c in result.children)


@pytest.fixture(scope="module")
def failing_cells(tiny_system):
    from repro.acasxu import initial_cells

    cells = initial_cells(16, 4)
    plain = RunnerSettings(reach=ReachSettings(substeps=10, max_symbolic_states=5))
    failing = []
    for box, command, tags in cells:
        if len(failing) >= 3:
            break
        result = verify_cell(tiny_system, box, command, plain)
        if result.verdict is not Verdict.PROVED_SAFE:
            failing.append((box, command))
    assert failing, "the scaled partition should contain failing cells"
    return failing


def _policy(mode):
    if mode == "bisect_all":
        return RefinementPolicy(dims=(0, 1, 2), max_depth=2, mode="bisect_all")
    return RefinementPolicy(dims=(0, 1, 2), max_depth=3, mode="influence")


@pytest.mark.parametrize("mode", ["bisect_all", "influence"])
def test_refinement_strategy(benchmark, tiny_system, failing_cells, mode):
    box, command = failing_cells[0]
    settings = RunnerSettings(
        reach=ReachSettings(substeps=10, max_symbolic_states=5),
        refinement=_policy(mode),
    )

    result = benchmark.pedantic(
        verify_cell, args=(tiny_system, box, command, settings), rounds=1, iterations=1
    )
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["coverage_fraction"] = result.coverage_fraction()
    benchmark.extra_info["nodes_verified"] = _count_nodes(result)


def test_both_strategies_recover_coverage(benchmark, tiny_system, failing_cells, capsys):
    rows = []

    def evaluate():
        out = []
        for mode in ("bisect_all", "influence"):
            settings = RunnerSettings(
                reach=ReachSettings(substeps=10, max_symbolic_states=5),
                refinement=_policy(mode),
            )
            total_cov = 0.0
            total_nodes = 0
            for box, command in failing_cells:
                result = verify_cell(tiny_system, box, command, settings)
                total_cov += result.coverage_fraction()
                total_nodes += _count_nodes(result)
            out.append((mode, total_cov / len(failing_cells), total_nodes))
        return out

    rows = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    with capsys.disabled():
        print("\nRefinement-strategy ablation (failing cells):")
        for mode, cov, nodes in rows:
            print(f"  {mode:10s} coverage recovered {100 * cov:5.1f}% "
                  f"using {nodes} reachability runs")
    # Refinement must recover nonzero coverage under at least one mode.
    assert max(cov for _m, cov, _n in rows) > 0.0
