"""Barrier scalar machinery: gamma, balancing, sigma equation, bounds.

The sigma roots are checked against a plain-bisection oracle on the
defining equation, kept independent of the implementation under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platelab import barrier as bar
from platelab.attractor_lab import _sample_seed
from platelab.discretization import make_operators
from platelab.integrator import SimPlan, initial_state, run
from platelab.model import PlateConfig, SourceSpec, certify_source, damping_gains, force_load
from platelab.presets import make

from conftest import random_coeffs
from kron_reference import lyapunov_value


def bisect_oracle(f, lo, hi, iters=200):
    """Sign-change bisection; f(lo) and f(hi) must straddle the root."""
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


class TestGamma:
    def test_q1_quarter(self):
        assert bar.damping_growth_exponent(1) == 0.25

    def test_q2_third(self):
        assert bar.damping_growth_exponent(2) == pytest.approx(1 / 3, abs=1e-15)

    def test_limit_below_half(self):
        assert bar.damping_growth_exponent(10 ** 6) < 0.5
        for q in range(1, 11):
            assert 0 < bar.damping_growth_exponent(q) < 0.5

    def test_invalid_degree(self):
        with pytest.raises(bar.BarrierError):
            bar.damping_growth_exponent(0)


class TestBalanceFunction:
    def test_exponent_q1(self):
        # (3/13) * (1 + 32/7) = 9/7
        assert bar.balance_exponent(1) == pytest.approx(9 / 7, abs=1e-14)

    def test_value_at_one(self):
        for q in range(1, 8):
            assert bar.balance_function(1.0, bar.balance_exponent(q), 3.3) == 3.3

    def test_monotone_over_decades(self):
        e = bar.balance_exponent(3)
        xs = np.logspace(0, 6, 13)
        vals = [bar.balance_function(x, e) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(bar.BarrierError):
            bar.balance_function(0.0, 1.0)


class TestBalancingCheck:
    def test_q1_passes(self):
        gamma = bar.damping_growth_exponent(1)
        e = bar.balance_exponent(1)
        rep = bar.balancing_check(gamma, lambda x: bar.balance_function(x, e))
        assert rep.verdict == "PASS"

    def test_all_q_up_to_ten_pass(self):
        for q in range(1, 11):
            gamma = bar.damping_growth_exponent(q)
            e = bar.balance_exponent(q)
            rep = bar.balancing_check(gamma, lambda x: bar.balance_function(x, e))
            assert rep.verdict == "PASS", f"q = {q}"

    def test_linear_damping_skipped(self):
        rep = bar.balancing_check(0.0, lambda x: x)
        assert rep.verdict == "SKIPPED" and rep.passed

    def test_constructed_counterexample_fails(self):
        # b(x) = x^3 with gamma = 1/4: net exponent -3 + 3 = 0, no decay
        rep = bar.balancing_check(0.25, lambda x: x ** 3)
        assert rep.verdict == "FAIL"


class TestSigmaEquation:
    def test_toy_root_against_oracle(self):
        bc = bar.toy_constants()
        sigma = bar.solve_barrier_scale(1.0, bc)
        oracle = bisect_oracle(lambda s: s * s - s ** 1.5 - 3.0, 1.0, 10.0)
        assert abs(sigma - oracle) < 1e-6
        assert abs(sigma - 2.750) < 2e-3   # the documented approximate value

    def test_toy_root_zero_energy(self):
        bc = bar.toy_constants()
        sigma = bar.solve_barrier_scale(0.0, bc)
        oracle = bisect_oracle(lambda s: s * s - s ** 1.5 - 2.0, 1.0, 10.0)
        assert abs(sigma - oracle) < 1e-6

    def test_monotone_in_energy(self):
        bc = bar.toy_constants()
        sigmas = [bar.solve_barrier_scale(E, bc) for E in (0.0, 0.5, 1.0, 4.0, 20.0)]
        assert all(b > a for a, b in zip(sigmas, sigmas[1:]))

    def test_root_unique_by_fine_scan(self):
        bc = bar.toy_constants()
        E = 1.0

        def gap(s):
            lhs = (1 + E + bc.d0 * (1 + s * bc.b(bc.d1 * s))) ** bc.gamma
            return lhs - 0.5 * bc.d3 * s

        sigma = bar.solve_barrier_scale(E, bc)
        xs = np.linspace(1e-6, 4 * sigma, 20_000)
        signs = np.sign([gap(x) for x in xs])
        crossings = np.count_nonzero(np.diff(signs) != 0)
        assert crossings == 1

    def test_gamma_zero_closed_form(self):
        bc = bar.BarrierConstants(gamma=0.0, d3=0.5)
        assert bar.solve_barrier_scale(3.0, bc) == pytest.approx(4.0)

    @settings(max_examples=25, deadline=None)
    @given(E=st.floats(0.0, 50.0), d0=st.floats(0.1, 10.0),
           d3=st.floats(0.5, 10.0), gamma=st.floats(0.05, 0.45))
    def test_random_constants_match_oracle(self, E, d0, d3, gamma):
        bc = bar.BarrierConstants(gamma=gamma, d0=d0, d1=1.0, d3=d3,
                                  b_c_eta=1.0, b_exponent=1.0,
                                  C1=1.0, C2=1.0, c=0.0)
        sigma = bar.solve_barrier_scale(E, bc)

        def gap(s):
            return (1 + E + d0 * (1 + s * s)) ** gamma - 0.5 * d3 * s

        hi = max(2 * sigma, 1.0)
        while gap(hi) > 0:
            hi *= 2
        oracle = bisect_oracle(gap, 1e-8, hi)
        assert abs(sigma - oracle) < 1e-8 * max(1.0, oracle)

    @pytest.mark.parametrize("kw", [
        # (1 + b_exponent) gamma = 2 > 1: the left side overflows a float
        # before the bracket has doubled 400 times
        dict(gamma=0.5, d3=2.0, b_exponent=3.0),
        # (1 + b_exponent) gamma = 1.98 > 1 with a finite left side throughout
        dict(gamma=0.9, d0=5.0, d3=0.5, b_exponent=1.2),
    ])
    def test_unbalanced_constants_fail_the_bracket(self, kw):
        with pytest.raises(bar.BarrierError, match="bracket expansion failed"):
            bar.solve_barrier_scale(1.0, bar.BarrierConstants(**kw))

    def test_no_positive_gap_at_zero(self):
        with pytest.raises(bar.BarrierError, match="no positive gap at sigma -> 0"):
            bar.solve_barrier_scale(1.0, bar.BarrierConstants(gamma=0.5, d3=1e10))


class TestEpsilon:
    def test_reciprocal_of_sigma(self):
        bc = bar.toy_constants()
        sigma = bar.solve_barrier_scale(1.0, bc)
        eps = bar.decay_rate_at_energy(1.0, bc)
        assert eps == pytest.approx(1.0 / sigma, rel=1e-14)
        assert abs(eps - 0.3637) < 1e-3

    def test_decreasing_in_energy(self):
        bc = bar.toy_constants()
        eps = [bar.decay_rate_at_energy(E, bc) for E in (0.0, 1.0, 10.0, 100.0)]
        assert all(b < a for a, b in zip(eps, eps[1:]))
        assert all(e > 0 for e in eps)


class TestLyapunov:
    def _setup(self, ops):
        cfg = PlateConfig(alpha=0.5, delta=1.0, kappa=2.0, beta=1.0,
                          damping_coeffs=(0.5, 0.0, 1.0),
                          source=SourceSpec(kind="cubic_minus_load", load=1.0))
        return cfg, certify_source(cfg)

    def test_eps_zero_is_total_energy(self, ops12):
        from platelab.energy import total_energy
        cfg, cert = self._setup(ops12)
        u = random_coeffs(ops12, 0)
        v = random_coeffs(ops12, 1)
        _, etot = total_energy(u, v, ops12, cfg, cert)
        assert lyapunov_value(u, v, 0.0, ops12, cfg, cert) == pytest.approx(etot)

    def test_velocity_flip_cancels_cross_term(self, ops12):
        cfg, cert = self._setup(ops12)
        u = random_coeffs(ops12, 2)
        v = random_coeffs(ops12, 3)
        plus = lyapunov_value(u, v, 0.3, ops12, cfg, cert)
        minus = lyapunov_value(u, -v, 0.3, ops12, cfg, cert)
        from platelab.energy import total_energy
        _, etot = total_energy(u, v, ops12, cfg, cert)
        assert plus + minus == pytest.approx(2 * etot, rel=1e-12)

    def test_sandwich_from_embedding_constant(self, ops12):
        from platelab.energy import sandwich_constants, total_energy
        cfg, cert = self._setup(ops12)
        lam = 1.0 / ops12.lambda_min
        sc = sandwich_constants(ops12, cfg, cert)
        eps = 1.0 / (4.0 * max(1.0, lam))
        C1, C2 = bar.sandwich_for_eps(eps, lam)
        assert C1 > 0
        for seed in range(100):
            u = random_coeffs(ops12, seed, scale=2.0)
            v = random_coeffs(ops12, seed + 500, scale=2.0)
            E, _ = total_energy(u, v, ops12, cfg, cert)
            V = lyapunov_value(u, v, eps, ops12, cfg, cert)
            assert C1 * E - sc.C <= V + 1e-9
            assert V <= C2 * E + sc.C + 1e-9


class TestUltimateBound:
    def test_radius_independent(self):
        bc = bar.toy_constants()
        stars = [bar.ultimate_bound(bc, R)[1] for R in (1.0, 10.0, 100.0)]
        assert abs(stars[0] - stars[1]) < 1e-8
        assert abs(stars[1] - stars[2]) < 1e-8

    def test_zero_level_finite(self):
        bc = bar.toy_constants()
        K0, vstar = bar.ultimate_bound(bc, 0.0)
        assert math.isfinite(K0) and math.isfinite(vstar) and K0 > 0

    def test_stronger_damping_margin_lowers_bound(self):
        weak = bar.toy_constants()
        strong = bar.BarrierConstants(gamma=0.5, d0=1.0, d1=1.0, d2=1.0, d3=4.0,
                                      b_c_eta=1.0, b_exponent=0.5,
                                      C1=1.0, C2=1.0, c=0.0)
        assert bar.ultimate_bound(strong, 10.0)[1] < bar.ultimate_bound(weak, 10.0)[1]


@pytest.fixture(scope="module")
def fitted_setup(ops12):
    cfg = PlateConfig(alpha=0.0, delta=1.0, beta=1.0, kappa=2.0,
                      damping_coeffs=(0.5, 0.0, 1.0),
                      source=SourceSpec(kind="cubic_minus_load", load=1.0))
    cert = certify_source(cfg)
    plan = SimPlan(dt=2e-3, T=15.0, snapshot_every=5, seed=2)
    traj = run(ops12, cfg, plan, ("stationary_kick", 0.5), cert)
    bc = bar.fit_barrier_constants([traj], ops12, cfg, cert)
    return cfg, cert, traj, bc


class TestFit:
    def test_velocity_control_without_linear_damping(self, ops12):
        # b_0 = 0: c1 = 1, and c0 is the largest excess of ||u_t||_0^2 over
        # (D u_t, u_t) on every snapshot of every trajectory
        cfg = PlateConfig(alpha=0.0, delta=1.0, kappa=2.0, damping_coeffs=(0.0, 0.0, 1.0))
        cert = certify_source(cfg)
        trajs = [run(ops12, cfg, SimPlan(dt=1e-2, T=1.0, snapshot_every=5, seed=seed),
                     ("random", radius), cert) for seed, radius in ((1, 0.5), (2, 2.0))]
        bc = bar.fit_barrier_constants(trajs, ops12, cfg, cert)
        sp2 = np.concatenate([ops12.l2_norm_sq(traj.vs) for traj in trajs])
        excess = sp2 - damping_gains(np.sqrt(sp2), cfg) * sp2
        assert bc.c1 == 1.0
        assert bc.c0 == max(0.0, float(np.max(excess))) > 0.0


class TestDecayAudit:
    def test_fitted_constants_pass_bracket(self, ops12, fitted_setup):
        cfg, cert, traj, bc = fitted_setup
        audit = bar.decay_audit(traj, ops12, cfg, cert, bc)
        assert audit.bracket_violations == 0
        assert np.max(audit.bracket) < 0.0
        assert audit.eps <= bc.eps_struct * (1 + 1e-12)

    def test_margins_nonnegative_with_allowance(self, ops12, fitted_setup):
        cfg, cert, traj, bc = fitted_setup
        audit = bar.decay_audit(traj, ops12, cfg, cert, bc)
        assert audit.violations == 0

    def test_lhs_matches_per_snapshot_lyapunov(self, ops12, fitted_setup):
        # dV/dt + eps V from the equation, one snapshot at a time on dense operators
        cfg, cert, traj, bc = fitted_setup
        audit = bar.decay_audit(traj, ops12, cfg, cert, bc)
        eps, M = audit.eps, ops12.M
        ref = []
        for u, v in zip(traj.us, traj.vs):
            sp2 = v @ M @ v
            g = sum(b * math.sqrt(sp2) ** j for j, b in enumerate(cfg.damping_coeffs))
            acc = np.linalg.solve(M, force_load(u, ops12, cfg) - ops12.K @ u) - g * v
            dV = -g * sp2 - cfg.beta * (u @ ops12.Dy @ v) + eps * (sp2 + (M @ acc) @ u)
            ref.append(dV + eps * lyapunov_value(u, v, eps, ops12, cfg, cert))
        ref = np.array(ref)
        np.testing.assert_allclose(audit.lhs, ref, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(ref)))

    def test_lhs_agrees_with_finite_differences(self, ops12, fitted_setup):
        cfg, cert, traj, bc = fitted_setup
        audit = bar.decay_audit(traj, ops12, cfg, cert, bc)
        V = lyapunov_value(traj.us, traj.vs, audit.eps, ops12, cfg, cert)
        fd = np.gradient(V, traj.times) + audit.eps * V
        assert np.max(np.abs(fd - audit.lhs)[1:-1]) <= 1e-2 * np.max(np.abs(audit.lhs))

    def test_lhs_independent_of_snapshot_stride(self, ops12, fitted_setup):
        cfg, cert, _, bc = fitted_setup
        lhs = {}
        for every in (5, 10):
            plan = SimPlan(dt=2e-3, T=3.0, snapshot_every=every, seed=2)
            traj = run(ops12, cfg, plan, ("stationary_kick", 0.5), cert)
            lhs[every] = bar.decay_audit(traj, ops12, cfg, cert, bc).lhs
        assert np.array_equal(lhs[5][::2], lhs[10])

    def test_no_violation_at_the_start_of_a_large_member(self):
        # member (2, 1) of criterion 7's sweep (radius 25), audited with the
        # constants of the `general` run: V falls so steeply at t = 0 that a
        # one-sided difference misses dV/dt + eps V by a factor of 20
        cfg, (mx, ny), ov, plan, init = make("general")
        ops = make_operators(mx, ny, cfg.dom, ov)
        cert = certify_source(cfg)
        bc = bar.fit_barrier_constants([run(ops, cfg, plan, init, cert)], ops, cfg, cert)
        member = run(ops, cfg, SimPlan(dt=2.5e-3, T=0.25, snapshot_every=10, seed=99),
                     initial_state(("random", 25.0), ops, cfg, _sample_seed(99, 2, 1)), cert)
        audit = bar.decay_audit(member, ops, cfg, cert, bc)
        assert audit.violations == 0
        assert audit.lhs[0] < audit.rhs[0]

    def test_oversized_eps_flagged(self, ops12, fitted_setup):
        cfg, cert, traj, bc = fitted_setup
        # force an eps far beyond 1/sigma: the bracket must turn positive
        audit = bar.decay_audit(traj, ops12, cfg, cert, bc, eps=10.0 * bc.d3)
        assert audit.bracket_violations > 0

    def test_equilibrium_trajectory_consistent(self, ops12):
        cfg = PlateConfig(alpha=0.0, delta=1.0, kappa=2.0,
                          damping_coeffs=(1.0, 0.0))
        cert = certify_source(cfg)
        traj = run(ops12, cfg, SimPlan(dt=1e-2, T=1.0, snapshot_every=10),
                   ("mode", 1, 0, 0.0))
        bc = bar.fit_barrier_constants([traj], ops12, cfg, cert)
        audit = bar.decay_audit(traj, ops12, cfg, cert, bc)
        assert audit.violations == 0

    def test_balancing_passes_for_fit(self, fitted_setup):
        *_, bc = fitted_setup
        assert bar.balancing_check(bc.gamma, bc.b).passed

    def test_vstar_radius_independent_for_fit(self, fitted_setup):
        *_, bc = fitted_setup
        stars = [bar.ultimate_bound(bc, R)[1] for R in (1.0, 10.0, 100.0)]
        assert max(stars) - min(stars) < 1e-8 * max(1.0, max(stars))
