#!/usr/bin/env python3
"""Runtime monitoring from a partial safety proof (Section 7.2).

The paper notes that even a partial proof "could be used to design a
real-time monitoring mechanism that switches to a more robust
controller if the system encounters an initial state for which it was
not proved safe". This example builds exactly that:

1. verify a partition offline, producing the proved/unproved map;
2. wrap the neural controller in a :class:`SwitchingController` whose
   fallback is the original lookup-table controller (the thing the
   networks were distilled from);
3. simulate encounters from proved and unproved cells and show the
   monitor switching.

Run:  python examples/monitor_demo.py
"""

import numpy as np

from repro.acasxu import (
    LookupTableController,
    TINY_SCENARIO,
    build_system,
    initial_cells,
)
from repro.baselines import simulate
from repro.core import (
    ReachSettings,
    RefinementPolicy,
    RunnerSettings,
    RuntimeMonitor,
    SwitchingController,
    verify_partition,
)


def main() -> None:
    system_factory = lambda: build_system(TINY_SCENARIO)
    print("step 1: offline verification map (16 arcs x 4 headings) ...")
    report = verify_partition(
        system_factory,
        initial_cells(16, 4),
        RunnerSettings(
            reach=ReachSettings(substeps=10, max_symbolic_states=5),
            refinement=RefinementPolicy(dims=(0, 1, 2), max_depth=1),
            workers=4,
        ),
    )
    print(f"  coverage: {report.coverage_percent():.1f}%")

    system = system_factory()
    tables = system.metadata["tables"]
    monitor = RuntimeMonitor(report)
    switching = SwitchingController(
        primary=system.controller,
        fallback=LookupTableController(tables),
        monitor=monitor,
    )

    print("\nstep 2: online episodes through the monitor ...")
    rng = np.random.default_rng(3)
    episodes = {"verified": 0, "unproved": 0, "uncovered": 0}
    collisions = 0
    for _ in range(30):
        from repro.acasxu import sample_initial_state

        state = sample_initial_state(rng)
        switching.reset()
        switching.execute(state, 0)  # first step decides the mode
        advice = switching.last_advice
        episodes[advice.value] += 1

        # Run the episode with whichever controller the monitor chose.
        trajectory = simulate(
            _with_controller(system, switching), state, 0, samples_per_period=4
        )
        collisions += trajectory.reached_error

    print(f"  episodes by monitor advice: {episodes}")
    print(f"  collisions across monitored episodes: {collisions}")
    print("\nThe monitor routes encounters from unproved initial cells to the "
          "lookup-table fallback — the deployment pattern Section 7.2 suggests.")


def _with_controller(system, controller):
    """A shallow view of the closed loop with a swapped controller."""
    import copy

    clone = copy.copy(system)
    clone.controller = controller
    return clone


if __name__ == "__main__":
    main()
