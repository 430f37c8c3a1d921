"""Experiment drivers: sweep (with entry times and regularity), pairs,
dimension, regularity."""

import dataclasses
import math

import gp_reference
import numpy as np
import pytest
from conftest import traced_peak

from platelab import attractor_lab
from platelab.attractor_lab import (ExperimentError, PairStats, SweepPlan, _entry_time,
                                    _sample_seed, correlation_dimension, dissipativity_sweep,
                                    make_nearby_pair, quasistability_pairs,
                                    regularity_probe, stationary_convergence,
                                    tail_points, tail_start)
from platelab.discretization import block_matvec
from platelab.integrator import IntegratorError, SimPlan, Trajectory, run
from platelab.model import PlateConfig, SourceSpec, damping_gains, force_load


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

    def test_member_tail_sup_is_its_solo_run(self, ops12):
        # the sweep's ensemble gives each member the bits of its solo run
        # from its own sample seed: tail sup, entry time and regularity
        cfg = cfg_with(**DAMPED)
        plan = SweepPlan(radii=(0.5, 2.0), samples_per_radius=2, T=2.0,
                         dt=4e-3, snapshot_every=10, seed=3)
        rep = dissipativity_sweep(ops12, cfg, plan)
        assert rep.meta["r_min"] == 0.5
        for i, radius in enumerate(plan.radii):
            for j in range(plan.samples_per_radius):
                solo = run(ops12, cfg, plan.sim_plan(_sample_seed(plan.seed, i, j)),
                           ("random", radius))
                norms = np.sqrt(ops12.state_norm_sq(solo.us, solo.vs))
                tail = norms[tail_start(solo.times, plan.tail_fraction):]
                assert rep.tail_sups[i][j] == np.max(tail)
                assert rep.entry_times[i][j] == _entry_time(norms, solo.times, 0.5)
                reg = regularity_probe(solo, ops12, cfg)
                assert rep.sup_velocity_bending[i][j] == reg.sup_velocity_bending
                assert rep.sup_accel_l2[i][j] == reg.sup_accel_l2
                assert rep.regularity[i][j] == reg.verdict

    def test_failed_member_is_a_blowup(self, dom):
        # undamped flutter: the radius-150 member's fixed point diverges
        # until its iterate overflows in the first step; the radius-0.5
        # member keeps the bits it has alone
        from platelab.discretization import make_operators

        ops = make_operators(3, 2, dom)
        cfg = cfg_with(delta=1.0, beta=2.0, damping_coeffs=(0.0, 0.0))
        base = dict(samples_per_radius=1, T=2.0, dt=0.02, snapshot_every=5)
        rep = dissipativity_sweep(ops, cfg, SweepPlan(radii=(0.5, 150.0), **base))
        alone = dissipativity_sweep(ops, cfg, SweepPlan(radii=(0.5,), **base))
        assert rep.blowups == [(1, 0)] and rep.verdict == "FAIL"
        assert rep.tail_sups[0] == alone.tail_sups[0]
        (failure,) = rep.failures                  # the evidence, parallel to blowups
        assert failure == {"message": "non-finite iterate at t = 0.0; reduce dt", "t": 0.0}
        assert math.isnan(rep.entry_times[1][0]) and math.isnan(rep.sup_accel_l2[1][0])
        assert rep.regularity[1][0] == "FAIL"

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
        assert all("time step too large" in f["message"] and f["t"] is None
                   for f in rep.failures)
        assert len(rep.failures) == 4

    def test_overflow_blows_up_only_its_member(self, dom):
        # the radius-60 member overflows the strong cubic source; the
        # radius-0.1 member keeps the tail sup it has alone
        from platelab.discretization import make_operators

        ops = make_operators(2, 1, dom)
        cfg = cfg_with(damping_coeffs=(1.0, 0.0),
                       source=SourceSpec(kind="cubic_minus_load", load=0.0))
        base = dict(samples_per_radius=1, T=10.0, dt=0.5, snapshot_every=1)
        with np.errstate(all="ignore"):
            rep = dissipativity_sweep(ops, cfg, SweepPlan(radii=(0.1, 60.0), **base))
        alone = dissipativity_sweep(ops, cfg, SweepPlan(radii=(0.1,), **base))
        assert rep.blowups == [(1, 0)] and rep.verdict == "FAIL"
        assert rep.tail_sups[0][0] == alone.tail_sups[0][0]

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
        with pytest.raises(ValueError, match="invalid simulation plan"):
            SweepPlan(fp_maxiter=0)     # the time plan and solver keys are SimPlan's


class TestAbsorbingTime:
    """The sweep's entry times into the ball of its smallest positive radius.
    That radius's own members start on the sphere only up to roundoff, so no
    test pins whether they enter at t = 0 or at the first snapshot."""

    def test_entry_time_rule(self):
        times = np.arange(5.0)
        assert _entry_time(np.array([3.0, 1.0, 2.0, 1.0, 0.5]), times, 1.0) == 3.0
        assert _entry_time(np.array([1.0, 1.0, 1.0]), times[:3], 1.0) == 0.0   # closed ball
        assert _entry_time(np.array([0.0, 0.0, 2.0]), times[:3], 1.0) == math.inf

    def test_inside_ball_is_zero(self, ops12):
        # the radius-0 members settle on the equilibrium, inside the radius-5 ball
        cfg = cfg_with(**DAMPED)
        plan = SweepPlan(radii=(0.0, 5.0), samples_per_radius=2, T=10.0,
                         dt=4e-3, snapshot_every=10, seed=4)
        rep = dissipativity_sweep(ops12, cfg, plan)
        assert rep.meta["r_min"] == 5.0
        assert rep.entry_times[0] == [0.0, 0.0]

    def test_larger_radius_enters_later(self, ops12):
        cfg = cfg_with(**DAMPED)
        plan = SweepPlan(radii=(1.0, 4.0), samples_per_radius=2, T=30.0,
                         dt=4e-3, snapshot_every=5, seed=4)
        small, large = dissipativity_sweep(ops12, cfg, plan).entry_times
        assert max(large) >= max(small)

    def test_stronger_damping_enters_sooner(self, ops12):
        plan = SweepPlan(radii=(1.0, 3.0), samples_per_radius=2, T=30.0,
                         dt=4e-3, snapshot_every=5, seed=4)
        weak = cfg_with(**{**DAMPED, "damping_coeffs": (0.3, 0.0, 0.5)})
        strong = cfg_with(**{**DAMPED, "damping_coeffs": (3.0, 0.0, 0.5)})
        t_weak = max(dissipativity_sweep(ops12, weak, plan).entry_times[1])
        t_strong = max(dissipativity_sweep(ops12, strong, plan).entry_times[1])
        assert t_strong <= t_weak

    def test_never_entered_is_inf(self, ops12):
        # every member settles near the equilibrium, far outside the 1e-6 ball
        cfg = cfg_with(**DAMPED)
        plan = SweepPlan(radii=(1e-6, 2.0), samples_per_radius=1, T=2.0,
                         dt=4e-3, snapshot_every=5, seed=4)
        rep = dissipativity_sweep(ops12, cfg, plan)
        assert rep.entry_times == [[math.inf], [math.inf]]


class TestQuasistability:
    def test_identical_pair_trivially_certified(self, ops12):
        cfg = cfg_with(**DAMPED)
        plan = SimPlan(dt=4e-3, T=5.0, snapshot_every=5, seed=0)
        y, _ = make_nearby_pair(ops12, cfg, 1.0, 1e-3, 0)
        (stats,) = quasistability_pairs(ops12, cfg, plan, [(y, y)])
        assert stats.certified and stats.violations == 0
        assert np.max(stats.separation) == 0.0

    def test_separation_at_zero_exact(self, ops12):
        cfg = cfg_with(**DAMPED)
        plan = SimPlan(dt=4e-3, T=5.0, snapshot_every=5, seed=0)
        y1, y2 = make_nearby_pair(ops12, cfg, 1.0, 1e-3, 3)
        (stats,) = quasistability_pairs(ops12, cfg, plan, [(y1, y2)])
        exact = ops12.state_norm_sq(y1.u - y2.u, y1.v - y2.v)
        assert stats.separation[0] == exact

    def test_nearby_pair_certifies_with_positive_rate(self, ops12):
        cfg = cfg_with(**DAMPED)
        plan = SimPlan(dt=2e-3, T=25.0, snapshot_every=5, seed=0)
        y1, y2 = make_nearby_pair(ops12, cfg, 1.0, 1e-3, 17)
        (stats,) = quasistability_pairs(ops12, cfg, plan, [(y1, y2)])
        assert stats.certified
        assert stats.fitted_rate > 0
        assert stats.violations == 0

    def test_degenerate_damping_not_certified(self, ops12):
        # b_0 = 0 with strong overdamping: separation decay stalls, the
        # exponential part cannot be certified
        cfg = cfg_with(**{**DAMPED, "damping_coeffs": (0.0, 0.0, 8.0)})
        plan = SimPlan(dt=2e-3, T=25.0, snapshot_every=5, seed=0)
        y1, y2 = make_nearby_pair(ops12, cfg, 1.0, 1e-3, 23)
        (stats,) = quasistability_pairs(ops12, cfg, plan, [(y1, y2)])
        assert not stats.certified
        assert "not certified" in stats.note or stats.fitted_rate <= 0

    def test_batch_matches_each_pair_alone(self, ops12):
        cfg = cfg_with(**DAMPED)
        plan = SimPlan(dt=4e-3, T=5.0, snapshot_every=5, seed=0)
        y, _ = make_nearby_pair(ops12, cfg, 1.0, 1e-3, 0)
        pairs = [make_nearby_pair(ops12, cfg, 1.0, 1e-3, 5), (y, y),
                 make_nearby_pair(ops12, cfg, 2.0, 1e-2, 9)]
        batch = quasistability_pairs(ops12, cfg, plan, pairs)
        assert len(batch) == 3 and batch[1].note == "identical pair"
        for pair, got in zip(pairs, batch):
            (alone,) = quasistability_pairs(ops12, cfg, plan, [pair])
            for f in dataclasses.fields(PairStats):
                a, b = getattr(got, f.name), getattr(alone, f.name)
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b

    def test_diverging_pair_fails_the_batch_as_alone(self, dom):
        # anti-damped flutter at a large amplitude stops converging within
        # the horizon; its small batch mates do not
        from platelab.discretization import make_operators

        ops = make_operators(3, 2, dom)
        cfg = cfg_with(delta=1.0, beta=2.0, damping_coeffs=(-2.0, 0.0))
        plan = SimPlan(dt=0.02, T=1.2, snapshot_every=5)
        small = make_nearby_pair(ops, cfg, 0.5, 1e-3, 1)
        boom = make_nearby_pair(ops, cfg, 40.0, 1e-3, 2)
        with pytest.raises(IntegratorError) as alone:
            quasistability_pairs(ops, cfg, plan, [boom])
        assert "did not converge" in str(alone.value)
        with pytest.raises(IntegratorError) as batch:
            quasistability_pairs(ops, cfg, plan, [small, boom, small])
        assert str(batch.value) == str(alone.value)


class TestCorrelationDimension:
    def test_insufficient_snapshots_rejected(self, ops12):
        cfg = cfg_with(**DAMPED)
        traj = run(ops12, cfg, SimPlan(dt=1e-2, T=1.0, snapshot_every=1),
                   ("mode", 1, 0, 0.5))
        with pytest.raises(ExperimentError):
            correlation_dimension(traj, ops12)

    @pytest.mark.parametrize("T, dt, every, fraction", [
        (1.0, 0.01, 5, 0.5),            # the tail starts on a snapshot
        (1.0, 0.01, 7, 0.5),            # ... between two, and the last is off the grid
        (0.3, 0.1, 1, 1.0 / 3.0),
        (2.0, 0.003, 10, 0.25),
        (0.0, 0.01, 3, 0.5),
        (80.0, 0.01, 1, 0.5),           # audit-dense's orbit
    ])
    def test_tail_count_known_before_the_run(self, ops1, T, dt, every, fraction):
        # a clock summed step by step finds one snapshot fewer than the plan
        # in the first, third and last of these
        plan = SimPlan(dt=dt, T=T, snapshot_every=every)
        traj = run(ops1, cfg_with(**DAMPED), plan, ("mode", 1, 0, 0.5))
        found = np.count_nonzero(traj.times >= traj.times[-1] * (1.0 - fraction))
        assert found == tail_points(plan, fraction)

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
        assert rep.meta["modes"] == [2, 4, 6]      # d = 8 embeds in all 6 modes

    @pytest.mark.parametrize("theiler", [290, 299, 500, -50])
    def test_window_without_pairs_rejected(self, ops12, theiler):
        # 300 tail points leave 45 pairs beyond a window of 290 and none
        # beyond 299 or 500; a negative window is no window
        rng = np.random.default_rng(0)
        us, vs = rng.standard_normal((2, 300, ops12.n))
        times = np.linspace(1.0, 2.0, 300)         # the whole run is its tail
        traj = Trajectory(times=times, us=us, vs=vs, ledger=None, meta={})
        with pytest.raises(ExperimentError, match=f"theiler = {theiler}"):
            correlation_dimension(traj, ops12, theiler=theiler, min_points=100)

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

    @classmethod
    def cloud(cls, case):
        if case == "orbit":
            return cls.orbit(600)
        if case == "ties":                      # integer coordinates
            return np.round(3.0 * cls.orbit(600))
        if case == "repeats":                   # zero distances at lags 200 and 400
            return np.tile(cls.orbit(200), (3, 1))
        if case == "collapsed":                 # diameter below 1e-8 of the scale
            return 1e-12 * cls.orbit(300)
        if case == "within-theiler":            # no pair more than 20 rows apart
            return cls.orbit(21)
        if case == "zero-cut":                  # period 16: every 16th lag is all zeros
            return np.tile(cls.orbit(16), (40, 1))
        if case == "circle":                    # an exact rotation: one distance per lag
            angle = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(1000)
            return np.stack([np.cos(angle), np.sin(angle)], axis=1)
        if case == "near-duplicates":           # 8% of the pairs below the lowest bucket,
            rng = np.random.default_rng(5)      # so the 2% order statistic is clamped there
            return (cls.orbit(12)[np.arange(600) % 12]
                    + 1e-9 * rng.standard_normal((600, 4)))
        # "pilot-misled": 16 points on a circle, visited so that the lags 5
        # mod 16 join neighbours, which other lags mostly do not
        i = np.arange(700)
        angle = 2.0 * np.pi * (13 * i % 16) / 16
        rng = np.random.default_rng(3)
        return (np.stack([np.cos(angle), np.sin(angle)], axis=1)
                + 1e-3 * rng.standard_normal((i.size, 2)))

    @pytest.mark.parametrize("case, theiler", [
        ("orbit", 20),
        ("ties", 20),
        ("repeats", 20),
        ("collapsed", 20),
        ("within-theiler", 20),
        ("zero-cut", 15),
        ("pilot-misled", 20),
        ("circle", 20),
        ("near-duplicates", 20),
    ])
    def test_estimate_equals_sorting_every_distance(self, case, theiler):
        X = self.cloud(case)
        estimate = attractor_lab._gp_estimate(X, theiler, 1.0)
        assert estimate == gp_reference.gp_estimate(X, theiler, 1.0)
        if case == "orbit":
            assert estimate > 0.5

    def test_second_pass_recomputes_few_lags_of_a_rotation(self, monkeypatch):
        lags = []
        sq_dists = attractor_lab._sq_dists

        def spy(X, k):
            lags.append(k)
            return sq_dists(X, k)

        monkeypatch.setattr(attractor_lab, "_sq_dists", spy)
        X = self.cloud("circle")
        assert attractor_lab._gp_estimate(X, 20, 1.0) > 0.5
        n_lags = len(X) - 21
        assert len(lags) - n_lags <= 0.05 * n_lags       # pass 1 computes every lag once

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

    def test_peak_memory_flat_in_pairs(self):
        peaks = [traced_peak(attractor_lab._gp_estimate, self.orbit(n_points, embed=12), 20, 1.0)
                 for n_points in (1000, 4000)]
        assert peaks[1] <= 1.35 * peaks[0]      # 16 times the pairs; 1.28 measured


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

    @staticmethod
    def flutter_run(ops, damping, amplitude):
        cfg = cfg_with(delta=1.0, beta=2.0, damping_coeffs=damping)
        traj = run(ops, cfg, SimPlan(dt=1e-2, T=10.0, snapshot_every=2),
                   ("mode", 1, 0, amplitude))
        return traj, regularity_probe(traj, ops, cfg)

    def test_growing_member_is_not_stable(self, ops12):
        # anti-damped flutter: the state norm grows from 0.089 to 0.230, and
        # the last quarter's sups (0.250, 0.270) exceed 1.2 times those of
        # the quarter before (0.148, 0.157)
        traj, rep = self.flutter_run(ops12, (-0.2, 0.0), 0.05)
        assert rep.verdict == "NOT_STABLE"
        half = traj.times >= 0.5 * traj.times[-1]
        assert rep.sup_velocity_bending == float(np.max(ops12.bending_norm_sq(traj.vs[half])))

    def test_decaying_member_passes(self, ops12):
        # damped flutter: the state norm decays from 1.77 to 0.052, and the
        # last quarter's sups (0.037, 0.038) sit below those of the quarter
        # before (0.158, 0.137), which stay the reported sups
        _, rep = self.flutter_run(ops12, (0.5, 0.0, 1.0), 1.0)
        assert rep.verdict == "PASS"
        assert rep.sup_velocity_bending == pytest.approx(0.158, abs=5e-4)
        assert rep.sup_accel_l2 == pytest.approx(0.137, abs=5e-4)

    def test_stride_invariance_on_sustained_motion(self, ops12):
        # stride stability needs an orbit that keeps moving; a decaying
        # trajectory pins the window sup to the left edge
        cfg = cfg_with(alpha=1.0, delta=1.0, beta=2.5, kappa=1.0,
                       damping_coeffs=(0.05, 0.0, 0.1),
                       source=SourceSpec(kind="cubic_minus_load", load=1.0))
        traj = run(ops12, cfg, SimPlan(dt=4e-3, T=40.0, snapshot_every=2),
                   ("mode", 1, 0, 0.5))
        rep_full = regularity_probe(traj, ops12, cfg)
        # the load taken in one call over the 2500-row window gives the same bits
        half = traj.times >= 0.5 * traj.times[-1]
        us, vs = traj.us[half], traj.vs[half]
        sp2 = ops12.l2_norm_sq(vs)
        acc = (force_load(us, ops12, cfg) - block_matvec(ops12.k_blocks, us)) / ops12.m_diag
        acc -= damping_gains(np.sqrt(sp2), cfg)[:, None] * vs
        assert rep_full.sup_accel_l2 == float(np.max(ops12.l2_norm_sq(acc)))
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

    def test_plan_reaches_the_integrator(self, ops12):
        # the fixed-point cap of the given plan holds: one iteration cannot
        # converge on a nonlinear config
        cfg = cfg_with(alpha=0.0, delta=1.0, kappa=2.0, damping_coeffs=(1.0, 0.0))
        plan = SimPlan(dt=4e-3, T=0.2, snapshot_every=10, fp_maxiter=1)
        with pytest.raises(IntegratorError, match="did not converge in 1 iterations"):
            stationary_convergence(ops12, cfg, plan, samples=2, radius=1.0)

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
