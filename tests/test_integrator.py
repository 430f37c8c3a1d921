"""Implicit-midpoint stepping: exactness, convergence, determinism."""

import math

import numpy as np
import pytest

from platelab.integrator import (IntegratorError, SimPlan, SolverCache, State,
                                 initial_state, run, run_ensemble, solve_midpoint_speed,
                                 step)
from platelab.model import PlateConfig, SourceSpec, damping_gain
from platelab.reporting import load_trajectory


def cfg_with(**kw):
    return PlateConfig(**kw)


class TestStep:
    def test_zero_state_stays_zero(self, ops12):
        cfg = cfg_with(delta=1.0, kappa=1.0, damping_coeffs=(1.0, 0.0, 1.0))
        plan = SimPlan(dt=1e-2, T=1.0)
        st = State(np.zeros(ops12.n), np.zeros(ops12.n))
        out = step(st, ops12, cfg, plan)
        assert np.max(np.abs(out.u)) == 0.0 and np.max(np.abs(out.v)) == 0.0

    def test_linear_mode_matches_exact_rotation(self, ops1):
        # closed-form midpoint map for u'' = -w^2 u:
        # u1 = ((1-a) u0 + dt v0)/(1+a), v1 = ((1-a) v0 - w^2 dt u0)/(1+a)
        cfg = cfg_with(damping_coeffs=(0.0, 0.0))
        plan = SimPlan(dt=0.05, T=1.0)
        cache = SolverCache(ops1, cfg, plan.dt)
        w2 = ops1.K[0, 0] / ops1.M[0, 0]
        a = w2 * plan.dt ** 2 / 4
        st = State(np.array([1.0]), np.array([0.0]))
        u, v = 1.0, 0.0
        for _ in range(500):
            st = step(st, ops1, cfg, plan, cache)
            u, v = ((1 - a) * u + plan.dt * v) / (1 + a), \
                   ((1 - a) * v - w2 * plan.dt * u) / (1 + a)
        assert abs(st.u[0] - u) < 1e-11
        assert abs(st.v[0] - v) < 1e-11

    def test_discrete_frequency_second_order(self, ops1):
        # midpoint frequency is (2/dt) atan(w dt / 2) = w (1 + O(dt^2))
        cfg = cfg_with(damping_coeffs=(0.0, 0.0))
        w = math.sqrt(ops1.K[0, 0] / ops1.M[0, 0])
        for dt in (0.1, 0.05):
            w_disc = (2 / dt) * math.atan(w * dt / 2)
            assert abs(w_disc / w - 1.0) <= (w * dt) ** 2 / 8
        # and the simulated trajectory shows that frequency: after one
        # discrete period the state returns to its start
        dt = 0.05
        plan = SimPlan(dt=dt, T=1.0)
        cache = SolverCache(ops1, cfg, dt)
        theta = 2 * math.atan(w * dt / 2)
        steps_per_period = round(2 * math.pi / theta)
        # pick dt so a period is nearly an integer number of steps
        st = State(np.array([1.0]), np.array([0.0]))
        for _ in range(steps_per_period):
            st = step(st, ops1, cfg, plan, cache)
        phase_defect = abs(steps_per_period * theta - 2 * math.pi)
        assert abs(st.u[0] - math.cos(phase_defect)) < 1e-6

    def test_second_order_self_convergence(self, ops12):
        cfg = cfg_with(alpha=0.5, delta=1.0, beta=1.0, kappa=2.0,
                       damping_coeffs=(0.5, 0.0, 1.0),
                       source=SourceSpec(kind="cubic_minus_load", load=1.0))
        T = 0.5
        init = ("mode", 1, 0, 0.5)

        def final_state(dt):
            traj = run(ops12, cfg, SimPlan(dt=dt, T=T, snapshot_every=10 ** 9), init)
            return traj.us[-1], traj.vs[-1]

        u_ref, v_ref = final_state(T / 2048)
        errs = []
        for dt in (T / 64, T / 128, T / 256):
            u, v = final_state(dt)
            errs.append(math.sqrt(ops12.state_norm_sq(u - u_ref, v - v_ref)))
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 3.0 < r1 < 5.0
        assert 3.0 < r2 < 5.0

    def test_nonfinite_state_rejected(self, ops12):
        cfg = cfg_with(delta=1.0)
        st = State(np.full(ops12.n, np.nan), np.zeros(ops12.n))
        with pytest.raises(IntegratorError):
            step(st, ops12, cfg, SimPlan(dt=1e-2, T=1.0))


class TestSpeedSolve:
    def _cache_and_modal_rhs(self, ops, cfg, dt, seed=0):
        cache = SolverCache(ops, cfg, dt)
        rng = np.random.default_rng(seed)
        return cache, rng.standard_normal(ops.n)

    def test_undamped_is_direct_norm(self, ops12):
        cfg = cfg_with(damping_coeffs=(0.0, 0.0))
        cache, r = self._cache_and_modal_rhs(ops12, cfg, 1e-2)
        rho = solve_midpoint_speed(r, cache)
        direct = float(np.linalg.norm(r / cache.base))
        assert rho == pytest.approx(direct, rel=1e-14)

    def test_linear_damping_closed_form(self, ops12):
        cfg = cfg_with(damping_coeffs=(2.0, 0.0))
        cache, r = self._cache_and_modal_rhs(ops12, cfg, 1e-2)
        rho = solve_midpoint_speed(r, cache)
        closed = float(np.linalg.norm(r / (cache.base + 2.0)))
        assert rho == pytest.approx(closed, rel=1e-14)

    def test_nonlinear_damping_consistency_and_contraction(self, ops12):
        cfg = cfg_with(damping_coeffs=(0.5, 0.0, 10.0))
        cache, r = self._cache_and_modal_rhs(ops12, cfg, 1e-2)
        r = 50.0 * r
        rho = solve_midpoint_speed(r, cache)
        recomputed = float(np.linalg.norm(
            r / (cache.base + damping_gain(rho, cfg))))
        assert rho == pytest.approx(recomputed, rel=1e-12)
        undamped_norm = float(np.linalg.norm(r / (cache.base + 0.5)))
        assert rho < undamped_norm  # overdamping shrinks the speed

    def test_stack_rows_match_single_solves(self, ops12):
        # each row stops at its own tolerance, so a row of the stacked solve
        # has the bits of the single solve, with or without a warm start
        cfg = cfg_with(damping_coeffs=(0.5, 0.0, 10.0))
        cache = SolverCache(ops12, cfg, 1e-2)
        rng = np.random.default_rng(5)
        R = rng.standard_normal((5, ops12.n)) * np.array([[0.1], [1.0], [50.0], [0.0], [3.0]])
        guess = np.array([0.0, 1.0, 2.0, 0.5, 1e3])
        stacked = solve_midpoint_speed(R, cache, guess=guess)
        for r, g, rho in zip(R, guess, stacked):
            assert solve_midpoint_speed(r, cache, guess=g) == rho
            recomputed = float(np.linalg.norm(r / (cache.base + damping_gain(rho, cfg))))
            assert rho == pytest.approx(recomputed, rel=1e-12, abs=0.0)
        assert stacked[3] == 0.0


class TestRun:
    def test_zero_horizon_single_snapshot(self, ops12):
        cfg = cfg_with(delta=1.0, damping_coeffs=(1.0, 0.0))
        traj = run(ops12, cfg, SimPlan(dt=1e-2, T=0.0), ("mode", 1, 0, 0.3))
        assert len(traj) == 1 and traj.times[0] == 0.0

    def test_seeded_runs_identical(self, ops12):
        cfg = cfg_with(delta=1.0, beta=0.5, kappa=1.0,
                       damping_coeffs=(0.5, 0.0, 1.0))
        plan = SimPlan(dt=5e-3, T=0.5, seed=77)
        t1 = run(ops12, cfg, plan, ("random", 1.0))
        t2 = run(ops12, cfg, plan, ("random", 1.0))
        assert np.array_equal(t1.us, t2.us)
        assert np.array_equal(t1.vs, t2.vs)
        assert np.array_equal(t1.ledger.identity_residual,
                              t2.ledger.identity_residual)

    def test_gradient_energy_monotone(self, ops12):
        cfg = cfg_with(alpha=3.0, delta=1.0, damping_coeffs=(1.0, 0.0))
        traj = run(ops12, cfg, SimPlan(dt=2e-3, T=5.0, snapshot_every=10),
                   ("random", 1.5))
        increments = np.diff(traj.ledger.Etot)
        assert np.all(increments <= 1e-8)

    def test_damping_integral_nondecreasing(self, ops12):
        cfg = cfg_with(delta=1.0, beta=1.0, kappa=2.0,
                       damping_coeffs=(0.5, 0.0, 1.0))
        traj = run(ops12, cfg, SimPlan(dt=5e-3, T=2.0, snapshot_every=5),
                   ("random", 1.0))
        assert np.all(np.diff(traj.ledger.damping_integral) >= -1e-15)

    def test_undamped_flow_accepts_all_zero_damping(self, ops12):
        # control experiments integrate the undamped system directly
        cfg = cfg_with(beta=1.0, damping_coeffs=(0.0, 0.0))
        traj = run(ops12, cfg, SimPlan(dt=1e-2, T=0.2), ("mode", 1, 0, 0.5))
        assert len(traj) > 1


GENERAL = dict(delta=1.0, beta=1.0, kappa=2.0, damping_coeffs=(0.5, 0.0, 1.0),
               source=SourceSpec(kind="cubic_minus_load", load=1.0))
LEDGER_FIELDS = ("t", "kinetic", "bending", "Pi", "Pi0", "Pi1", "E", "Etot",
                 "damping_integral", "flux_integral", "identity_residual")


def assert_same_bits(a, b):
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.us, b.us) and np.array_equal(a.vs, b.vs)
    for name in LEDGER_FIELDS:
        assert np.array_equal(getattr(a.ledger, name), getattr(b.ledger, name)), name


class TestEnsemble:
    """run_ensemble advances a member stack; every member keeps its own bits."""

    @pytest.fixture(scope="class")
    def members(self, ops12):
        cfg = cfg_with(**GENERAL)
        starts = [initial_state(("random", r), ops12, cfg, seed)
                  for r in (1.0, 5.0, 25.0) for seed in (3, 4)]
        return cfg, SimPlan(dt=2e-3, T=0.2, snapshot_every=7), starts

    def test_member_bits_independent_of_batch(self, ops12, members):
        cfg, plan, starts = members
        alone = [run_ensemble(ops12, cfg, plan, [x])[0] for x in starts]
        for batch in ([0, 1], [5, 2], list(range(6)), [3, 0, 5, 1, 4, 2]):
            out = run_ensemble(ops12, cfg, plan, [starts[i] for i in batch])
            for i, traj in zip(batch, out):
                assert_same_bits(traj, alone[i])

    def test_run_is_the_one_member_case(self, ops12, members):
        cfg, plan, starts = members
        assert_same_bits(run(ops12, cfg, plan, starts[4]),
                         run_ensemble(ops12, cfg, plan, [starts[4]])[0])

    def test_failing_member_leaves_the_others_unchanged(self, dom, tmp_path):
        # undamped flutter at a large amplitude: the fixed point stops
        # converging at step 40 of 60, while the small members carry on
        from platelab.discretization import make_operators

        ops = make_operators(3, 2, dom)
        cfg = cfg_with(delta=1.0, beta=2.0, damping_coeffs=(0.0, 0.0))
        plan = SimPlan(dt=0.02, T=1.2, snapshot_every=5)
        small = [("mode", 1, 0, 0.5), ("mode", 2, 1, 0.3)]
        boom = ("mode", 1, 0, 20.0)
        with pytest.raises(IntegratorError):
            run(ops, cfg, plan, boom)
        out = run_ensemble(ops, cfg, plan, [small[0], boom, small[1]],
                           flush_paths=[None, tmp_path / "boom.json", None])
        assert isinstance(out[1], IntegratorError)
        assert "did not converge" in str(out[1])
        partial = load_trajectory(tmp_path / "boom.json")
        assert 1 < partial["n_snapshots"] < len(out[0].times)
        for x, traj in zip(small, (out[0], out[2])):
            assert_same_bits(traj, run(ops, cfg, plan, x))

    def test_step_records_member_failures(self, ops12):
        cfg = cfg_with(**GENERAL)
        plan = SimPlan(dt=1e-2, T=1.0)
        good = initial_state(("random", 1.0), ops12, cfg, 1)
        U = np.array([good.u, np.full(ops12.n, np.nan), good.u])
        V = np.array([good.v, np.zeros(ops12.n), good.v])
        failures = {}
        out = step(State(U, V), ops12, cfg, plan, failures=failures)
        assert list(failures) == [1] and "non-finite" in failures[1]
        assert np.all(np.isnan(out.u[1]))
        alone = step(good, ops12, cfg, plan)
        assert np.array_equal(out.u[0], alone.u) and np.array_equal(out.u[2], alone.u)
        with pytest.raises(IntegratorError, match="non-finite"):
            step(State(U, V), ops12, cfg, plan)


class TestInitialConditions:
    def test_mode_generator(self, ops12):
        st = initial_state(("mode", 2, 1, 0.7), ops12, cfg_with(), seed=0)
        assert st.u[(2 - 1) * ops12.basis.Ny + 1] == 0.7
        assert np.count_nonzero(st.u) == 1 and np.max(np.abs(st.v)) == 0.0

    def test_mode_out_of_range(self, ops12):
        with pytest.raises(ValueError):
            initial_state(("mode", 9, 0, 1.0), ops12, cfg_with(), seed=0)

    def test_random_norm_matches_radius(self, ops12):
        st = initial_state(("random", 2.5), ops12, cfg_with(), seed=3)
        assert math.sqrt(ops12.state_norm_sq(st.u, st.v)) == pytest.approx(2.5, rel=1e-12)

    def test_stationary_kick_speed(self, ops12):
        cfg = cfg_with(alpha=3.0, delta=1.0)
        st = initial_state(("stationary_kick", 0.4), ops12, cfg, seed=1)
        assert math.sqrt(ops12.l2_norm_sq(st.v)) == pytest.approx(0.4, rel=1e-12)
