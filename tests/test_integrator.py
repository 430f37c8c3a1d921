"""Implicit-midpoint stepping: exactness, convergence, determinism."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from platelab import integrator, presets
from platelab.discretization import bilinear_form, make_operators
from platelab.integrator import (IntegratorError, SimPlan, SolverCache, State,
                                 initial_state, run, run_ensemble, solve_midpoint_speed,
                                 step)
from platelab.model import PlateConfig, SourceSpec, damping_gain, damping_gains, force_load


def cfg_with(**kw):
    return PlateConfig(**kw)


class TestStep:
    def test_zero_state_stays_zero(self, ops12):
        cfg = cfg_with(delta=1.0, kappa=1.0, damping_coeffs=(1.0, 0.0, 1.0))
        plan = SimPlan(dt=1e-2, T=1.0)
        st = State(np.zeros(ops12.n), np.zeros(ops12.n))
        out = step(st, SolverCache(ops12, cfg, plan))
        assert np.max(np.abs(out.u)) == 0.0 and np.max(np.abs(out.v)) == 0.0

    def test_linear_mode_matches_exact_rotation(self, ops1):
        # closed-form midpoint map for u'' = -w^2 u:
        # u1 = ((1-a) u0 + dt v0)/(1+a), v1 = ((1-a) v0 - w^2 dt u0)/(1+a)
        cfg = cfg_with(damping_coeffs=(0.0, 0.0))
        plan = SimPlan(dt=0.05, T=1.0)
        cache = SolverCache(ops1, cfg, plan)
        w2 = ops1.K[0, 0] / ops1.M[0, 0]
        a = w2 * plan.dt ** 2 / 4
        st = State(np.array([1.0]), np.array([0.0]))
        u, v = 1.0, 0.0
        for _ in range(500):
            st = step(st, cache)
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
        cache = SolverCache(ops1, cfg, SimPlan(dt=dt, T=1.0))
        theta = 2 * math.atan(w * dt / 2)
        steps_per_period = round(2 * math.pi / theta)
        # pick dt so a period is nearly an integer number of steps
        st = State(np.array([1.0]), np.array([0.0]))
        for _ in range(steps_per_period):
            st = step(st, cache)
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
            step(st, SolverCache(ops12, cfg, SimPlan(dt=1e-2, T=1.0)))

    def test_stack_rows_settle_with_their_solo_bits(self, ops12):
        # the finite rows converge after 3, 5 and 2 iterations; the row with
        # a NaN never iterates
        cfg = cfg_with(**GENERAL)
        cache = SolverCache(ops12, cfg, SimPlan(dt=1e-2, T=1.0))
        good = [initial_state(("random", r), ops12, cfg, seed)
                for r, seed in ((1.0, 1), (8.0, 2), (0.1, 3))]
        bad = good[0].u.copy()
        bad[3] = np.nan
        U = np.array([good[0].u, bad, good[1].u, good[2].u])
        V = np.array([good[0].v, good[0].v, good[1].v, good[2].v])
        failures, its = {}, []
        out = step(State(U, V), cache, failures, its)
        assert failures == {1: "non-finite state at t = 0.0"} and its[1] == 0
        assert np.all(np.isnan(out.u[1])) and np.all(np.isnan(out.v[1]))
        for row, st in zip((0, 2, 3), good):
            alone = []
            solo = step(st, cache, iterations=alone)
            assert np.array_equal(out.u[row], solo.u) and np.array_equal(out.v[row], solo.v)
            assert its[row] == alone[0]
        assert [its[0], its[2], its[3]] == [3, 5, 2]

    def test_change_stalled_at_roundoff_converges(self, ops12):
        # from a state of norm 1e7 the fixed-point change stops shrinking
        # near 2.4e-9: far above fp_tol, but below the roundoff floor
        # 1024 eps * 1e7 = 2.3e-6 of the midpoint norm, so each step
        # converges; without that rule step 1 fails after 60 iterations
        cfg = cfg_with(**GENERAL)
        plan = SimPlan(dt=2.5e-3, T=0.0125, seed=99)
        traj = run(ops12, cfg, plan, ("random", 1e7))
        assert len(traj) == 6
        assert traj.meta["fp_iterations"] == {9: 1, 10: 3, 11: 1}

    def test_overflowed_norm_sets_no_roundoff_floor(self, dom):
        # a huge step on a strong cubic: the iterates diverge until the
        # state norm overflows, which must not pass for a roundoff floor
        ops = make_operators(2, 1, dom)
        cfg = cfg_with(damping_coeffs=(1.0, 0.0),
                       source=SourceSpec(kind="cubic_minus_load", load=0.0))
        st = initial_state(("mode", 1, 0, 60.0), ops, cfg)
        with pytest.raises(IntegratorError, match="overflowed"), np.errstate(all="ignore"):
            step(st, SolverCache(ops, cfg, SimPlan(dt=0.5, T=10.0)))


class TestStopRule:
    """A member stops at iteration k once L/(1 - L) D_k <= fp_tol, L = D_k/D_{k-1} <= 0.5."""

    @pytest.fixture(scope="class", params=["chaotic", "general"])
    def preset_run(self, request):
        cfg, (mx, ny), oversample, plan, initial = presets.make(request.param)
        ops = make_operators(mx, ny, cfg.dom, oversample)
        plan = replace(plan, T=2000 * plan.dt, snapshot_every=1)
        return ops, cfg, plan, run(ops, cfg, plan, initial)

    def test_every_step_takes_two_iterations(self, preset_run):
        *_, traj = preset_run
        assert traj.meta["fp_iterations"] == {2: 2000}

    def test_accepted_state_within_fp_tol_of_reference(self, preset_run):
        # every step of the run again, as one stack, against steps from the
        # same states with fp_tol = 1e-15
        ops, cfg, plan, traj = preset_run
        starts = State(traj.us[:-1], traj.vs[:-1], 0.0)
        its = []
        out = step(starts, SolverCache(ops, cfg, plan), iterations=its)
        assert its == [2] * 2000
        assert np.array_equal(out.u, traj.us[1:]) and np.array_equal(out.v, traj.vs[1:])
        ref = step(starts, SolverCache(ops, cfg, replace(plan, fp_tol=1e-15)))
        err = np.sqrt(ops.state_norm_sq(out.u - ref.u, out.v - ref.v))
        assert err.max() <= plan.fp_tol

    def test_growing_change_is_not_accepted_by_the_bound(self, dom):
        # a strong cubic at a large step: from the 10.0 mode the change grows
        # from iteration 1 to 2 (L > 1), where a bare L/(1 - L) D_2 is
        # negative; that member must not be accepted but diverge until its
        # load overflows, while its batch-mate converges
        ops = make_operators(2, 1, dom)
        cfg = cfg_with(damping_coeffs=(1.0, 0.0),
                       source=SourceSpec(kind="cubic_minus_load", load=0.0))
        plan = SimPlan(dt=0.3, T=10.0)
        grows, small = (initial_state(("mode", 1, 0, a), ops, cfg) for a in (10.0, 2.0))

        def last_change(maxiter):
            with pytest.raises(IntegratorError, match="did not converge") as info:
                step(grows, SolverCache(ops, cfg, replace(plan, fp_maxiter=maxiter)))
            return float(re.search(r"last change (\S+)", str(info.value)).group(1))

        assert last_change(2) > last_change(1)
        failures, its, cache = {}, [], SolverCache(ops, cfg, plan)
        with np.errstate(all="ignore"):
            out = step(State(np.array([grows.u, small.u]), np.array([grows.v, small.v])),
                       cache, failures=failures, iterations=its)
        assert failures == {0: "load evaluation overflowed at t = 0.0"}
        assert 2 < its[0] < plan.fp_maxiter and 2 <= its[1] < plan.fp_maxiter
        assert np.array_equal(out.u[1], step(small, cache).u)


class TestSpeedSolve:
    def _cache_and_modal_rhs(self, ops, cfg, dt, seed=0):
        cache = SolverCache(ops, cfg, SimPlan(dt=dt))
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
        cache = SolverCache(ops12, cfg, SimPlan(dt=1e-2))
        rng = np.random.default_rng(5)
        R = rng.standard_normal((5, ops12.n)) * np.array([[0.1], [1.0], [50.0], [0.0], [3.0]])
        guess = np.array([0.0, 1.0, 2.0, 0.5, 1e3])
        stacked = solve_midpoint_speed(R, cache, guess=guess)
        for r, g, rho in zip(R, guess, stacked):
            assert solve_midpoint_speed(r, cache, guess=g) == rho
            recomputed = float(np.linalg.norm(r / (cache.base + damping_gain(rho, cfg))))
            assert rho == pytest.approx(recomputed, rel=1e-12, abs=0.0)
        assert stacked[3] == 0.0


class TestSolverCache:
    def test_residual_load_drops_the_alpha_part(self, ops12):
        cfg = cfg_with(alpha=1.3, delta=0.7, beta=0.4, kappa=0.5,
                       source=SourceSpec("cubic_minus_load", load=0.3))
        cache = SolverCache(ops12, cfg, SimPlan(dt=1e-2))
        U = np.random.default_rng(8).standard_normal((4, ops12.n))
        expected = force_load(U, ops12, cfg) - cfg.alpha * U @ ops12.Gx
        err = np.max(np.abs(cache.residual_load(U) - expected))
        assert err <= 1e-13 * np.max(np.abs(expected))


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

    def test_failing_member_leaves_the_others_unchanged(self, dom):
        # anti-damped (b_0 < 0) flutter at a large amplitude: the energy
        # grows until the fixed point stops converging (at step 54 of 60),
        # while the small members carry on
        ops = make_operators(3, 2, dom)
        cfg = cfg_with(delta=1.0, beta=2.0, damping_coeffs=(-2.0, 0.0))
        plan = SimPlan(dt=0.02, T=1.2, snapshot_every=5)
        small = [("mode", 1, 0, 0.5), ("mode", 2, 1, 0.3)]
        boom = ("mode", 1, 0, 15.0)
        with pytest.raises(IntegratorError) as alone:
            run(ops, cfg, plan, boom)
        out = run_ensemble(ops, cfg, plan, [small[0], boom, small[1]])
        assert isinstance(out[1], IntegratorError)
        assert "did not converge" in str(out[1])
        assert 1 < len(out[1].partial) < len(out[0].times)
        # the partial is the member's own run up to the failure
        partial = alone.value.partial
        assert np.array_equal(out[1].partial.us, partial.us)
        assert np.array_equal(out[1].partial.vs, partial.vs)
        head = replace(plan, T=plan.dt * plan.snapshot_every * (len(partial) - 1))
        assert np.array_equal(run(ops, cfg, head, boom).us, partial.us)
        for x, traj in zip(small, (out[0], out[2])):
            assert_same_bits(traj, run(ops, cfg, plan, x))

    @pytest.mark.parametrize("every", [1, 7])
    def test_ledger_integrals_are_the_per_step_trapezoid(self, dom, monkeypatch, every):
        # blocks of 7 steps: 60 steps make 8 full blocks and one of 4; the
        # member at amplitude 15 fails during the run
        monkeypatch.setattr(integrator, "ROW_BLOCK_BYTES", 7 * 8 * 3 * 6)
        flushes = []
        monkeypatch.setattr(integrator, "bilinear_form",
                            lambda *a: flushes.append(1) or bilinear_form(*a))
        ops = make_operators(3, 2, dom)
        cfg = cfg_with(delta=1.0, beta=2.0, damping_coeffs=(-2.0, 0.0))
        plan = SimPlan(dt=0.02, T=1.2, snapshot_every=every)
        inits = [("mode", 1, 0, 0.5), ("mode", 1, 0, 15.0), ("mode", 2, 1, 0.3)]
        out = run_ensemble(ops, cfg, plan, inits)
        assert len(flushes) == 1 + 9       # the start, then one per block

        def integrands(st):
            sp2 = ops.l2_norm_sq(st.v)
            return (damping_gains(np.sqrt(np.maximum(sp2, 0.0)), cfg) * sp2,
                    bilinear_form(ops.dy_blocks, st.u, st.v))

        starts = [initial_state(x, ops, cfg) for x in inits]
        state = State(np.array([st.u for st in starts]), np.array([st.v for st in starts]))
        cache = SolverCache(ops, cfg, plan)
        damp, flux = [np.zeros(3)], [np.zeros(3)]
        prev = integrands(state)
        failed_at = None
        for k in range(1, 61):
            failed = {}
            state = step(state, cache, failed)
            if failed and failed_at is None:
                assert list(failed) == [1]
                failed_at = k
            state.u[list(failed)] = state.v[list(failed)] = np.nan
            now = integrands(state)
            damp.append(damp[-1] + 0.5 * plan.dt * (prev[0] + now[0]))
            flux.append(flux[-1] + -cfg.beta * 0.5 * plan.dt * (prev[1] + now[1]))
            prev = now
        snaps = plan.snapshot_steps()
        assert 1 < failed_at < 60
        assert isinstance(out[1], IntegratorError)
        assert len(out[1].partial) == np.count_nonzero(snaps < failed_at)
        for m in (0, 2):
            assert np.array_equal(out[m].ledger.damping_integral, np.array(damp)[snaps, m])
            assert np.array_equal(out[m].ledger.flux_integral, np.array(flux)[snaps, m])

    def test_setup_failure_ends_every_member(self, dom):
        # buckling load alpha = 3 puts a mode at stiffness -2; dt = 3 is too
        # large for it
        ops = make_operators(3, 2, dom)
        cfg = cfg_with(alpha=3.0, delta=1.0, damping_coeffs=(1.0, 0.0))
        plan = SimPlan(T=6.0, dt=3.0)
        out = run_ensemble(ops, cfg, plan, [("random", 1.0), ("random", 2.0)])
        assert len(out) == 2
        for err in out:
            assert isinstance(err, IntegratorError)
            assert "time step too large" in str(err) and err.partial is None

    @pytest.mark.parametrize("physics, amplitude", [
        (dict(source=SourceSpec(kind="cubic_minus_load", load=0.0)), 60.0),
        (dict(delta=1.0), 1e120),
    ], ids=["cubic-source", "berger-term"])
    def test_overflow_ends_only_its_member(self, dom, physics, amplitude):
        # the large member overflows the load in the first step, through the
        # strong cubic source or through the Berger term alone; the small
        # member keeps the bits it has alone
        ops = make_operators(2, 1, dom)
        cfg = cfg_with(damping_coeffs=(1.0, 0.0), **physics)
        plan = SimPlan(dt=0.5, T=10.0)
        with np.errstate(all="ignore"):
            out = run_ensemble(ops, cfg, plan, [("mode", 1, 0, amplitude), ("mode", 1, 0, 0.1)])
            with pytest.raises(IntegratorError, match="overflowed"):
                run(ops, cfg, plan, ("mode", 1, 0, amplitude))
        err = out[0]
        assert isinstance(err, IntegratorError)
        assert str(err).startswith("load evaluation overflowed at t = 0.0")
        assert len(err.partial) == 1 and err.partial.times[0] == 0.0
        assert_same_bits(out[1], run(ops, cfg, plan, ("mode", 1, 0, 0.1)))

    def test_speed_solve_miss_ends_only_its_member(self, ops12, monkeypatch):
        # one Newton iteration cannot close the speed of the moving member;
        # the member at rest (a fixed point, as the source has no load)
        # needs no speed solve and keeps the bits it has alone
        monkeypatch.setattr(integrator, "SPEED_MAXITER", 1)
        cfg = cfg_with(**dict(GENERAL, source=SourceSpec(kind="cubic_minus_load", load=0.0)))
        plan = SimPlan(dt=1e-2, T=0.05)
        out = run_ensemble(ops12, cfg, plan, [("mode", 1, 0, 0.0), ("random", 1.0)])
        assert_same_bits(out[0], run(ops12, cfg, plan, ("mode", 1, 0, 0.0)))
        assert isinstance(out[1], IntegratorError)
        assert str(out[1]) == "speed solve did not converge in 1 iterations"

    def test_step_records_member_failures(self, ops12):
        cfg = cfg_with(**GENERAL)
        cache = SolverCache(ops12, cfg, SimPlan(dt=1e-2, T=1.0))
        good = initial_state(("random", 1.0), ops12, cfg, 1)
        U = np.array([good.u, np.full(ops12.n, np.nan), good.u])
        V = np.array([good.v, np.zeros(ops12.n), good.v])
        failures = {}
        out = step(State(U, V), cache, failures=failures)
        assert list(failures) == [1] and "non-finite" in failures[1]
        assert np.all(np.isnan(out.u[1]))
        alone = step(good, cache)
        assert np.array_equal(out.u[0], alone.u) and np.array_equal(out.u[2], alone.u)
        with pytest.raises(IntegratorError, match="non-finite"):
            step(State(U, V), cache)


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
