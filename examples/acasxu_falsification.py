#!/usr/bin/env python3
"""Couple reachability with falsification (Section 8 future work).

The reachability analysis leaves some initial cells unproved: either
the over-approximation was too loose, or the cell genuinely contains an
unsafe encounter. This example separates the two: it verifies a small
partition, then attacks every unproved leaf cell with the cross-entropy
falsifier. Cells where a concrete counterexample is found are *really*
unsafe (with a witness trajectory); the rest remain "unknown".

Run:  python examples/acasxu_falsification.py
"""

from repro.acasxu import (
    TINY_SCENARIO,
    build_system,
    initial_cells,
)
from repro.baselines import cross_entropy_falsification, min_distance_robustness
from repro.core import (
    ReachSettings,
    RefinementPolicy,
    RunnerSettings,
    verify_partition,
)
from repro.intervals import Box


def main() -> None:
    system_factory = lambda: build_system(TINY_SCENARIO)
    cells = initial_cells(16, 4)
    settings = RunnerSettings(
        reach=ReachSettings(substeps=10, max_symbolic_states=5),
        refinement=RefinementPolicy(dims=(0, 1, 2), max_depth=1),
        workers=4,
    )
    print(f"step 1: sound verification of {len(cells)} cells ...")
    report = verify_partition(system_factory, cells, settings)
    unproved = report.unproved_leaves()
    print(f"  coverage {report.coverage_percent():.1f}%, "
          f"{len(unproved)} unproved leaf regions")

    print("\nstep 2: falsification attack on the unproved leaves ...")
    system = system_factory()
    robustness = min_distance_robustness((0, 1), 500.0)
    confirmed_unsafe = 0
    unknown = 0
    for leaf in unproved[:12]:  # bound the demo's runtime
        box = leaf.box

        def decode(params, box=box):
            state = box.center.copy()
            state[0], state[1], state[2] = params
            return state, 0

        params_box = Box(
            [box.lo[0], box.lo[1], box.lo[2]], [box.hi[0], box.hi[1], box.hi[2]]
        )
        result = cross_entropy_falsification(
            system,
            params_box,
            decode,
            robustness=robustness,
            population=24,
            elites=6,
            generations=5,
            samples_per_period=4,
        )
        if result.falsified:
            confirmed_unsafe += 1
            t = result.witness.error_time
            print(f"  {leaf.cell_id}: UNSAFE — collision witness at t = {t:.1f}s, "
                  f"x0 = ({result.witness_params[0]:.0f}, "
                  f"{result.witness_params[1]:.0f}) ft")
        else:
            unknown += 1
            print(f"  {leaf.cell_id}: no counterexample "
                  f"(best margin {result.best_robustness:.0f} ft) — "
                  "likely an over-approximation artefact")

    print(f"\nsummary: {confirmed_unsafe} leaves confirmed unsafe with a witness, "
          f"{unknown} remain unknown.")
    print("Unsafe witnesses justify the red cells of Fig. 9a; unknown cells "
          "are candidates for deeper split refinement.")


if __name__ == "__main__":
    main()
