#!/usr/bin/env python3
"""The paper's main experiment, scaled to a laptop: verify the neural
ACAS Xu over a partition of the possible initial encounters.

Reproduces the Section 7 pipeline end to end:

1. build (or load from cache) the synthetic score tables and the
   5-network controller bank;
2. partition the ribbon of initial states (intruder entering the
   8000 ft sensor circle with an inward heading) into arc x heading
   cells (Fig. 8);
3. run the sound reachability procedure per cell (M = 10, Gamma = 5),
   with the paper's 2^3-way split refinement on failures;
4. print the Fig. 9a safety map, the Fig. 9b per-arc profile, and the
   Section 7.2 headline numbers, and save the JSON report.

Run:  python examples/acasxu_verification.py [--arcs N] [--headings M]
"""

import argparse

from repro.core import ReachSettings, RefinementPolicy, RunnerSettings
from repro.experiments import ExperimentConfig, render_report, run_experiment
from repro.obs import CampaignProgress


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--arcs", type=int, default=24,
                        help="arcs around the sensor circle (paper: 629)")
    parser.add_argument("--headings", type=int, default=6,
                        help="heading-cone slices per arc (paper: 316)")
    parser.add_argument("--depth", type=int, default=2,
                        help="split-refinement depth (paper: 2)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--paper-networks", action="store_true",
                        help="use the 6x50 architecture (slower first run)")
    parser.add_argument("--out", default="acasxu_report.json")
    args = parser.parse_args()

    from repro.acasxu import PAPER_SCENARIO, TINY_SCENARIO

    config = ExperimentConfig(
        name="example",
        scenario=PAPER_SCENARIO if args.paper_networks else TINY_SCENARIO,
        num_arcs=args.arcs,
        num_headings=args.headings,
        runner=RunnerSettings(
            reach=ReachSettings(substeps=10, max_symbolic_states=5),
            refinement=RefinementPolicy(dims=(0, 1, 2), max_depth=args.depth),
            workers=args.workers,
        ),
    )

    print(f"verifying {config.total_cells} initial cells "
          f"({args.arcs} arcs x {args.headings} headings), "
          f"refinement depth {args.depth}, {args.workers} workers ...")

    # Rate, ETA and verdict counts on stderr, about once a second.
    report = run_experiment(config, progress=CampaignProgress())
    print()
    print(render_report(report))
    report.to_json(args.out)
    print(f"\nJSON report written to {args.out} "
          f"(render again with: python -m repro show {args.out})")


if __name__ == "__main__":
    main()
