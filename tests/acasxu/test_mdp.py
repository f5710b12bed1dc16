"""Tests for the synthetic score tables (MDP value iteration)."""

import math

import numpy as np

from repro.acasxu import (
    ADVISORIES,
    NUM_ADVISORIES,
    TINY_TABLE_CONFIG,
    AcasTables,
    LookupTableController,
    TableConfig,
    generate_tables,
)


class TestGeneration:
    def test_shapes(self, tiny_tables):
        cfg = TINY_TABLE_CONFIG
        assert tiny_tables.q_values.shape == (
            NUM_ADVISORIES,
            cfg.num_rho,
            cfg.num_theta,
            cfg.num_psi,
            NUM_ADVISORIES,
        )
        assert tiny_tables.grid_shape == (cfg.num_rho, cfg.num_theta, cfg.num_psi)

    def test_deterministic(self):
        small = TableConfig(num_rho=5, num_theta=7, num_psi=7, sweeps=10)
        a = generate_tables(small)
        b = generate_tables(small)
        assert np.array_equal(a.q_values, b.q_values)

    def test_costs_are_finite_and_nonnegative(self, tiny_tables):
        assert np.all(np.isfinite(tiny_tables.q_values))
        assert np.all(tiny_tables.q_values >= 0.0)

    def test_far_states_cheap_close_states_expensive(self, tiny_tables):
        far = tiny_tables.scores(0, 11000.0, 0.0, math.pi).min()
        close = tiny_tables.scores(0, 600.0, 0.0, math.pi).min()
        assert close > far

    def test_save_load_roundtrip(self, tiny_tables, tmp_path):
        path = tmp_path / "tables.npz"
        tiny_tables.save(path)
        loaded = AcasTables.load(path, TINY_TABLE_CONFIG)
        assert np.array_equal(loaded.q_values, tiny_tables.q_values)
        assert np.array_equal(loaded.rho_grid, tiny_tables.rho_grid)

    def test_grid_points_cover_ranges(self, tiny_tables):
        pts = tiny_tables.grid_points()
        assert pts.shape == (np.prod(tiny_tables.grid_shape), 3)
        assert pts[:, 0].min() == 0.0
        assert pts[:, 0].max() == TINY_TABLE_CONFIG.rho_max


class TestInterpolation:
    def test_exact_at_grid_points(self, tiny_tables):
        ir, it, ip = 3, 4, 5
        rho = tiny_tables.rho_grid[ir]
        theta = tiny_tables.theta_grid[it]
        psi = tiny_tables.psi_grid[ip]
        scores = tiny_tables.scores(0, rho, theta, psi)
        assert np.allclose(scores, tiny_tables.q_values[0, ir, it, ip])

    def test_clamps_out_of_range(self, tiny_tables):
        inside = tiny_tables.scores(0, tiny_tables.rho_grid[-1], 0.0, 0.0)
        outside = tiny_tables.scores(0, 1e6, 0.0, 0.0)
        assert np.allclose(inside, outside)

    def test_continuous_between_grid_points(self, tiny_tables):
        r0, r1 = tiny_tables.rho_grid[2], tiny_tables.rho_grid[3]
        a = tiny_tables.scores(0, r0, 0.1, 0.1)
        b = tiny_tables.scores(0, r1, 0.1, 0.1)
        mid = tiny_tables.scores(0, 0.5 * (r0 + r1), 0.1, 0.1)
        for k in range(NUM_ADVISORIES):
            lo, hi = min(a[k], b[k]), max(a[k], b[k])
            assert lo - 1e-9 <= mid[k] <= hi + 1e-9


class TestPolicyBehaviour:
    def test_benign_geometry_prefers_coc(self, tiny_tables):
        """An intruder far behind and flying away: no maneuver."""
        ctl = LookupTableController(tiny_tables)
        state = np.array([0.0, -6000.0, 0.0, 700.0, 600.0])
        assert ADVISORIES[ctl.execute(state, 0)] == "COC"

    def test_threat_triggers_maneuver(self, tiny_tables):
        # Head-on at sensor-range entry: maneuvering now is what buys
        # the miss distance (at closer range the coarse tiny grid can
        # rationally "give up", so test the entry geometry).
        ctl = LookupTableController(tiny_tables)
        state = np.array([0.0, 8000.0, math.pi, 700.0, 600.0])
        assert ADVISORIES[ctl.execute(state, 0)] != "COC"

    def test_mirror_symmetry_of_advisories(self, tiny_tables):
        """Left/right mirrored geometries yield mirrored advisories
        (the symmetry the paper observes in Fig. 9b)."""
        ctl = LookupTableController(tiny_tables)
        mirror = {0: 0, 1: 2, 2: 1, 3: 4, 4: 3}
        rng = np.random.default_rng(2)
        agreements = 0
        trials = 40
        for _ in range(trials):
            x = rng.uniform(500, 6000)
            y = rng.uniform(-6000, 6000)
            psi = rng.uniform(-3.0, 3.0)
            right = np.array([x, y, psi, 700.0, 600.0])
            left = np.array([-x, y, -psi, 700.0, 600.0])
            if mirror[ctl.execute(right, 0)] == ctl.execute(left, 0):
                agreements += 1
        # Interpolation can break ties near decision boundaries, so
        # require a strong majority rather than unanimity.
        assert agreements >= int(0.8 * trials)

    def test_switch_cost_creates_hysteresis(self, tiny_tables):
        """The relative preference for an advisory is strictly higher
        when it is already active (the switch cost shifts every
        alternative up). Stated relatively so that grid-interpolation
        noise at symmetric states cannot mask it."""
        state = np.array([0.0, 5000.0, math.pi, 700.0, 600.0])
        ctl = LookupTableController(tiny_tables)
        from_sr = ctl.scores(state, 4)  # previous = SR
        from_sl = ctl.scores(state, 3)  # previous = SL
        preference_when_sr = from_sr[4] - from_sr[3]
        preference_when_sl = from_sl[4] - from_sl[3]
        assert preference_when_sr < preference_when_sl

    def test_closed_loop_mostly_avoids(self, tiny_tables):
        """The table policy avoids collisions in a majority of random
        encounters (the tiny grid is coarse; the paper-scale grid does
        better — this guards against gross regressions)."""
        from repro.acasxu import AcasXuAnalyticFlow, TURN_RATES_DEG

        ctl = LookupTableController(tiny_tables)
        flow = AcasXuAnalyticFlow()
        rng = np.random.default_rng(11)
        violations = 0
        trials = 40
        for _ in range(trials):
            phi = rng.uniform(-math.pi, math.pi)
            delta = rng.uniform(-1.4, 1.4)
            psi = (phi + math.pi + delta + math.pi) % (2 * math.pi) - math.pi
            s = np.array(
                [-8000 * math.sin(phi), 8000 * math.cos(phi), psi, 700.0, 600.0]
            )
            cmd = 0
            min_dist = 8000.0
            for _step in range(30):
                nxt = ctl.execute(s, cmd)
                u = np.array([math.radians(TURN_RATES_DEG[cmd])])
                for frac in (0.5, 1.0):
                    p = flow.flow_point(s, u, frac)
                    min_dist = min(min_dist, math.hypot(p[0], p[1]))
                s = flow.flow_point(s, u, 1.0)
                cmd = nxt
            if min_dist < 500.0:
                violations += 1
        assert violations <= trials // 5
