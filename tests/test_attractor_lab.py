"""Experiment drivers: sweep, absorption, pairs, dimension, regularity."""

import math

import numpy as np
import pytest

from platelab.attractor_lab import (ExperimentError, SweepPlan, absorbing_time,
                                    correlation_dimension, dissipativity_sweep,
                                    quasistability_pair, regularity_probe,
                                    stationary_convergence)
from platelab.cli import make_nearby_pair
from platelab.integrator import SimPlan, Trajectory, run
from platelab.model import PlateConfig, SourceSpec


def cfg_with(**kw):
    return PlateConfig(**kw)


DAMPED = dict(alpha=0.0, delta=1.0, beta=0.5, kappa=2.0,
              damping_coeffs=(1.0, 0.0, 0.5),
              source=SourceSpec(kind="cubic_minus_load", load=1.0))


class TestSweep:
    def test_damped_config_passes(self, ops12):
        cfg = cfg_with(**DAMPED)
        plan = SweepPlan(radii=(0.5, 1.0, 3.0), samples_per_radius=2,
                         T=30.0, dt=4e-3, snapshot_every=10, seed=1)
        rep = dissipativity_sweep(ops12, cfg, plan)
        assert rep.verdict == "PASS"
        assert rep.spread <= 0.25
        assert not rep.blowups
        assert math.isfinite(rep.R0)

    def test_undamped_flow_fails(self, ops12):
        # no damping, beta != 0: the linearised dynamics grows, so no
        # single ultimate bound emerges across radii
        cfg = cfg_with(beta=2.0, delta=0.0, damping_coeffs=(0.0, 0.0))
        plan = SweepPlan(radii=(0.5, 1.0, 3.0), samples_per_radius=1,
                         T=30.0, dt=4e-3, snapshot_every=10, seed=1)
        rep = dissipativity_sweep(ops12, cfg, plan)
        assert rep.verdict == "FAIL"

    @staticmethod
    def preset(name, dom):
        from platelab import presets
        from platelab.discretization import make_operators

        cfg, (mx, ny), oversample, _, _ = presets.make(name)
        return cfg, make_operators(mx, ny, dom, oversample)

    def test_point_attractor_passes(self, dom):
        # every bound decays toward zero, so their relative spread is
        # large, but each tested ball ends inside the smallest one
        cfg, ops = self.preset("point", dom)
        plan = SweepPlan(radii=(1.0, 5.0, 25.0), samples_per_radius=1, T=20.0)
        rep = dissipativity_sweep(ops, cfg, plan)
        assert rep.spread > 0.25
        assert rep.R0 < 1.0
        assert rep.verdict == "PASS"

    def test_conservative_plate_fails(self, dom):
        # undamped: each tail bound stays near its initial radius
        cfg, ops = self.preset("conservative", dom)
        plan = SweepPlan(radii=(1.0, 5.0, 25.0), samples_per_radius=1, T=5.0)
        rep = dissipativity_sweep(ops, cfg, plan)
        assert rep.R0 >= 1.0
        assert rep.verdict == "FAIL"

    def test_worker_count_never_changes_output(self, ops12):
        cfg = cfg_with(**DAMPED)
        plan = SweepPlan(radii=(0.5, 2.0), samples_per_radius=2, T=2.0,
                         dt=4e-3, snapshot_every=10, seed=3)
        serial = dissipativity_sweep(ops12, cfg, plan, threads=1)
        pooled = dissipativity_sweep(ops12, cfg, plan, threads=2)
        for field in ("tail_sups", "radius_bounds", "R0", "spread", "verdict"):
            assert getattr(serial, field) == getattr(pooled, field), field

    def test_failed_member_is_a_blowup(self, dom):
        # undamped flutter: the radius-150 member's fixed point stops
        # converging; the radius-0.5 member keeps the bits it has alone
        from platelab.discretization import make_operators

        ops = make_operators(3, 2, dom)
        cfg = cfg_with(delta=1.0, beta=2.0, damping_coeffs=(0.0, 0.0))
        base = dict(samples_per_radius=1, T=2.0, dt=0.02, snapshot_every=5)
        rep = dissipativity_sweep(ops, cfg, SweepPlan(radii=(0.5, 150.0), **base))
        alone = dissipativity_sweep(ops, cfg, SweepPlan(radii=(0.5,), **base))
        assert rep.blowups == [(1, 0)] and rep.verdict == "FAIL"
        assert rep.tail_sups[0] == alone.tail_sups[0]

    def test_setup_failure_blows_up_every_member(self, dom):
        # buckling load alpha = 3 puts a mode at stiffness -2; dt = 3 is too
        # large for it, so the integrator cannot even be set up
        from platelab.discretization import make_operators
        from platelab.integrator import IntegratorError

        ops = make_operators(3, 2, dom)
        cfg = cfg_with(alpha=3.0, delta=1.0, damping_coeffs=(1.0, 0.0))
        plan = SweepPlan(radii=(1.0, 2.0), samples_per_radius=2, T=6.0, dt=3.0,
                         snapshot_every=1)
        with pytest.raises(IntegratorError, match="time step too large"):
            run(ops, cfg, plan.sim_plan(0), ("random", 1.0))
        rep = dissipativity_sweep(ops, cfg, plan)
        assert rep.blowups == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert rep.verdict == "FAIL"

    def test_zero_radius_stays_bounded(self, ops12):
        cfg = cfg_with(alpha=0.0, delta=1.0, beta=0.0, kappa=0.0,
                       damping_coeffs=(1.0, 0.0))
        plan = SweepPlan(radii=(0.0,), samples_per_radius=1, T=5.0,
                         dt=5e-3, snapshot_every=10, seed=0)
        rep = dissipativity_sweep(ops12, cfg, plan)
        assert rep.radius_bounds[0] == 0.0

    def test_more_samples_never_lower_the_sup(self, ops12):
        cfg = cfg_with(**DAMPED)
        base = dict(radii=(1.0,), T=20.0, dt=4e-3, snapshot_every=10, seed=9)
        few = dissipativity_sweep(ops12, cfg, SweepPlan(samples_per_radius=2, **base))
        many = dissipativity_sweep(ops12, cfg, SweepPlan(samples_per_radius=4, **base))
        assert many.radius_bounds[0] >= few.radius_bounds[0] - 1e-15

    def test_plan_validation(self):
        with pytest.raises(ExperimentError):
            SweepPlan(radii=(3.0, 1.0))
        with pytest.raises(ExperimentError):
            SweepPlan(tail_fraction=1.5)
        with pytest.raises(ExperimentError):
            SweepPlan(samples_per_radius=0)


class TestAbsorbingTime:
    def test_inside_ball_is_zero(self, ops12):
        cfg = cfg_with(**DAMPED)
        plan = SweepPlan(radii=(0.2,), samples_per_radius=2, T=10.0,
                         dt=4e-3, snapshot_every=10, seed=4)
        rep = absorbing_time(ops12, cfg, plan, radius=0.2, R0=50.0)
        assert rep.t0 == 0.0 and all(e == 0.0 for e in rep.entries)
        assert not rep.retained

    def test_larger_radius_enters_later(self, ops12):
        cfg = cfg_with(**DAMPED)
        plan = SweepPlan(radii=(1.0,), samples_per_radius=2, T=30.0,
                         dt=4e-3, snapshot_every=5, seed=4)
        small = absorbing_time(ops12, cfg, plan, radius=1.0, R0=1.0)
        large = absorbing_time(ops12, cfg, plan, radius=4.0, R0=1.0)
        assert large.t0 >= small.t0

    def test_stronger_damping_enters_sooner(self, ops12):
        plan = SweepPlan(radii=(3.0,), samples_per_radius=2, T=30.0,
                         dt=4e-3, snapshot_every=5, seed=4)
        weak = cfg_with(**{**DAMPED, "damping_coeffs": (0.3, 0.0, 0.5)})
        strong = cfg_with(**{**DAMPED, "damping_coeffs": (3.0, 0.0, 0.5)})
        t_weak = absorbing_time(ops12, weak, plan, radius=3.0, R0=1.0).t0
        t_strong = absorbing_time(ops12, strong, plan, radius=3.0, R0=1.0).t0
        assert t_strong <= t_weak

    def test_never_entered_retains_trajectory(self, ops12):
        cfg = cfg_with(**DAMPED)
        plan = SweepPlan(radii=(2.0,), samples_per_radius=1, T=2.0,
                         dt=4e-3, snapshot_every=5, seed=4)
        rep = absorbing_time(ops12, cfg, plan, radius=2.0, R0=1e-6)
        assert rep.t0 == math.inf
        assert rep.retained and len(rep.retained[0][1]) > 1


class TestQuasistability:
    def test_identical_pair_trivially_certified(self, ops12):
        cfg = cfg_with(**DAMPED)
        plan = SimPlan(dt=4e-3, T=5.0, snapshot_every=5, seed=0)
        y, _ = make_nearby_pair(ops12, cfg, 1.0, 1e-3, 0)
        stats = quasistability_pair(ops12, cfg, plan, y, y)
        assert stats.certified and stats.violations == 0
        assert np.max(stats.separation) == 0.0

    def test_separation_at_zero_exact(self, ops12):
        cfg = cfg_with(**DAMPED)
        plan = SimPlan(dt=4e-3, T=5.0, snapshot_every=5, seed=0)
        y1, y2 = make_nearby_pair(ops12, cfg, 1.0, 1e-3, 3)
        stats = quasistability_pair(ops12, cfg, plan, y1, y2)
        exact = ops12.state_norm_sq(y1.u - y2.u, y1.v - y2.v)
        assert stats.separation[0] == exact

    def test_nearby_pair_certifies_with_positive_rate(self, ops12):
        cfg = cfg_with(**DAMPED)
        plan = SimPlan(dt=2e-3, T=25.0, snapshot_every=5, seed=0)
        y1, y2 = make_nearby_pair(ops12, cfg, 1.0, 1e-3, 17)
        stats = quasistability_pair(ops12, cfg, plan, y1, y2)
        assert stats.certified
        assert stats.fitted_rate > 0
        assert stats.violations == 0

    def test_degenerate_damping_not_certified(self, ops12):
        # b_0 = 0 with strong overdamping: separation decay stalls, the
        # exponential part cannot be certified
        cfg = cfg_with(**{**DAMPED, "damping_coeffs": (0.0, 0.0, 8.0)})
        plan = SimPlan(dt=2e-3, T=25.0, snapshot_every=5, seed=0)
        y1, y2 = make_nearby_pair(ops12, cfg, 1.0, 1e-3, 23)
        stats = quasistability_pair(ops12, cfg, plan, y1, y2)
        assert not stats.certified
        assert "not certified" in stats.note or stats.fitted_rate <= 0


class TestCorrelationDimension:
    def test_insufficient_snapshots_rejected(self, ops12):
        cfg = cfg_with(**DAMPED)
        traj = run(ops12, cfg, SimPlan(dt=1e-2, T=1.0, snapshot_every=1),
                   ("mode", 1, 0, 0.5))
        with pytest.raises(ExperimentError):
            correlation_dimension(traj, ops12)

    def test_periodic_orbit_dimension_one(self, dom):
        from platelab.discretization import make_operators
        ops = make_operators(3, 2, dom)
        cfg = cfg_with(damping_coeffs=(0.0, 0.0))
        traj = run(ops, cfg, SimPlan(dt=0.01, T=130.0, snapshot_every=3),
                   ("mode", 1, 0, 1.0))
        rep = correlation_dimension(traj, ops)
        for est in rep.estimates:
            assert abs(est - 1.0) <= 0.2
        assert rep.saturated

    def test_collapsed_cloud_reports_zero(self, ops12):
        # synthetic trajectory: frozen state repeated
        n = ops12.n
        m = 4200
        us = np.tile(np.linspace(1, 2, n), (m, 1)) * 1e-30
        vs = np.zeros((m, n))
        times = np.linspace(0.0, 100.0, m)
        traj = Trajectory(times=times, us=us, vs=vs, ledger=None, meta={})
        rep = correlation_dimension(traj, ops12)
        assert all(est == 0.0 for est in rep.estimates)


class TestGrassbergerProcaccia:
    @staticmethod
    def orbit(n_points, embed=4, seed=0):
        """Noisy quasi-periodic curve, one frequency per coordinate."""
        t = np.linspace(0.0, 60.0, n_points)
        rng = np.random.default_rng(seed)
        cols = [np.cos((1.0 + 0.37 * j) * t + j) for j in range(embed)]
        return np.stack(cols, axis=1) + 1e-3 * rng.standard_normal((n_points, embed))

    def test_estimate_matches_broadcast_oracle(self):
        from platelab.attractor_lab import _gp_estimate, _ls_slope

        X = self.orbit(600)
        theiler = 20
        # every pair distance at once, then the pairs > theiler rows apart
        D = np.sqrt(np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1))
        i, j = np.triu_indices(len(X), k=theiler + 1)
        dists = D[i, j]
        pos = dists[dists > 0]
        rs = np.geomspace(np.quantile(pos, 0.02), np.quantile(pos, 0.4), 12)
        log_c = np.log([np.mean(dists < r) for r in rs])
        oracle = max(0.0, _ls_slope(np.log(rs), log_c))
        assert oracle > 0.5
        assert _gp_estimate(X, theiler, 1.0) == pytest.approx(oracle, rel=1e-5)

    def test_peak_memory_linear_in_pairs(self, ops12):
        import tracemalloc

        n_points = 2000
        c = self.orbit(n_points, embed=ops12.n)
        us = c @ ops12.phi.T
        traj = Trajectory(times=np.linspace(0.0, 1.0, n_points), us=us,
                          vs=np.zeros_like(us), ledger=None, meta={})
        tracemalloc.start()
        try:
            correlation_dimension(traj, ops12, tail_fraction=1.0,
                                  min_points=n_points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * n_points ** 2


class TestRegularity:
    def test_equilibrium_sups_zero(self, ops12):
        cfg = cfg_with(alpha=0.0, delta=1.0, kappa=2.0, damping_coeffs=(1.0, 0.0))
        traj = run(ops12, cfg, SimPlan(dt=1e-2, T=2.0, snapshot_every=5),
                   ("mode", 1, 0, 0.0))
        rep = regularity_probe(traj, ops12, cfg)
        assert rep.sup_velocity_bending == 0.0
        assert rep.sup_accel_l2 == 0.0
        assert rep.verdict == "PASS"

    def test_decaying_sups_shrink_with_window(self, ops12):
        cfg = cfg_with(**DAMPED)
        traj = run(ops12, cfg, SimPlan(dt=4e-3, T=30.0, snapshot_every=5),
                   ("random", 1.5))
        t_end = traj.times[-1]
        halves = []
        for lo in (0.5, 0.75):
            sup = 0.0
            for i in np.where(traj.times >= lo * t_end)[0]:
                sup = max(sup, ops12.bending_norm_sq(traj.vs[i]))
            halves.append(sup)
        assert halves[1] <= halves[0]

    def test_stride_invariance_on_sustained_motion(self, ops12):
        # stride stability needs an orbit that keeps moving; a decaying
        # trajectory pins the window sup to the left edge
        cfg = cfg_with(alpha=1.0, delta=1.0, beta=2.5, kappa=1.0,
                       damping_coeffs=(0.05, 0.0, 0.1),
                       source=SourceSpec(kind="cubic_minus_load", load=1.0))
        traj = run(ops12, cfg, SimPlan(dt=4e-3, T=40.0, snapshot_every=2),
                   ("mode", 1, 0, 0.5))
        rep_full = regularity_probe(traj, ops12, cfg)
        thin = Trajectory(times=traj.times[::2], us=traj.us[::2],
                          vs=traj.vs[::2], ledger=None, meta=traj.meta)
        rep_thin = regularity_probe(thin, ops12, cfg)
        assert rep_full.sup_velocity_bending > 0
        assert abs(rep_thin.sup_velocity_bending - rep_full.sup_velocity_bending) \
            <= 0.05 * rep_full.sup_velocity_bending
        assert abs(rep_thin.sup_accel_l2 - rep_full.sup_accel_l2) \
            <= 0.05 * rep_full.sup_accel_l2


class TestStationaryConvergence:
    def test_trivial_config_all_to_zero(self, ops12):
        cfg = cfg_with(alpha=0.0, delta=1.0, kappa=2.0, damping_coeffs=(1.0, 0.0))
        plan = SimPlan(dt=4e-3, T=40.0, snapshot_every=20, seed=0)
        rep = stationary_convergence(ops12, cfg, plan, samples=3, radius=1.0)
        assert rep.verdict == "PASS"
        for s in rep.samples:
            assert s.final_speed <= 1e-4 and s.distance <= 1e-3

    def test_flow_term_skips(self, ops12):
        cfg = cfg_with(beta=1.0, delta=1.0, damping_coeffs=(1.0, 0.0))
        rep = stationary_convergence(ops12, cfg, SimPlan(dt=1e-2, T=1.0),
                                     samples=2)
        assert rep.verdict == "SKIPPED"
        assert "gradient" in rep.note

    def test_degenerate_rest_damping_skips(self, ops12):
        cfg = cfg_with(delta=1.0, damping_coeffs=(0.0, 2.0))
        rep = stationary_convergence(ops12, cfg, SimPlan(dt=1e-2, T=1.0),
                                     samples=2)
        assert rep.verdict == "SKIPPED"

    def test_buckled_states_split_by_sign(self, ops12):
        # supercritical axial load: initial data near +/- buckled states
        # converge to distinct Newton-certified equilibria
        from platelab.model import solve_stationary
        cfg = cfg_with(alpha=3.0, delta=1.0, damping_coeffs=(1.0, 0.0))
        plan = SimPlan(dt=2e-3, T=50.0, snapshot_every=25, seed=0)
        finals = []
        for amp in (0.5, -0.5):
            traj = run(ops12, cfg, plan, ("mode", 1, 0, amp))
            uT = traj.us[-1]
            res = solve_stationary(cfg, ops12, uT, tol=1e-10)
            assert res.converged and res.residual <= 1e-10
            assert math.sqrt(ops12.bending_norm_sq(uT - res.u)) <= 1e-3
            finals.append(res.u)
        assert finals[0][0] > 0.1 and finals[1][0] < -0.1
