"""Potential split, energy sandwich, Poincare and interpolation checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platelab.energy import (EnergyError, energy_identity_residual,
                             interpolation_gap, poincare_ratio,
                             potential_energy, potential_split_pad,
                             sandwich_constants, fit_sandwich_constant,
                             split_potential, total_energy)
from platelab.model import PlateConfig, SourceSpec, certify_source

from conftest import random_coeffs


def cfg_with(**kw):
    return PlateConfig(**kw)


class TestPotential:
    def test_zero_displacement(self, ops12):
        cfg = cfg_with(alpha=1.0, delta=2.0, kappa=3.0)
        assert potential_energy(np.zeros(ops12.n), ops12, cfg) == 0.0

    def test_sin_x_value(self, ops1):
        # ||u_x||^2 = pi: Pi = -pi/2 + (2/4) pi^2
        cfg = cfg_with(alpha=1.0, delta=2.0)
        val = potential_energy(np.array([1.0]), ops1, cfg)
        assert abs(val - (-np.pi / 2 + 0.5 * np.pi ** 2)) < 1e-12

    def test_stay_energy_for_positive_field(self, ops1):
        # u = sin x >= 0 everywhere: Pi = (kappa/2) ||u||^2
        cfg = cfg_with(kappa=2.0)
        val = potential_energy(np.array([1.0]), ops1, cfg)
        assert abs(val - 0.5 * 2.0 * np.pi) < 1e-12


class TestSplit:
    def test_trivial_split(self, ops12, rng):
        # f0 = 0, kappa = 0, alpha = 0: Pi1 = 0 and Pi0 = (delta/4)||u_x||^4
        cfg = cfg_with(delta=1.0)
        cert = certify_source(cfg)
        u = rng.standard_normal(ops12.n)
        pi0, pi1 = split_potential(u, ops12, cfg, cert)
        assert pi1 == 0.0
        ux2 = float(u @ ops12.Gx @ u)
        assert abs(pi0 - 0.25 * ux2 ** 2) < 1e-10 * max(1.0, pi0)

    def test_split_is_exact_partition(self, ops12):
        cfg = cfg_with(alpha=0.5, delta=1.0, kappa=2.0,
                       source=SourceSpec(kind="cubic_minus_load", load=1.0))
        cert = certify_source(cfg)
        for seed in range(10):
            u = random_coeffs(ops12, seed, scale=1.5)
            pi0, pi1 = split_potential(u, ops12, cfg, cert)
            pi = potential_energy(u, ops12, cfg)
            assert abs((pi0 + pi1) - pi) < 1e-10 * max(1.0, abs(pi))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), scale=st.floats(0.1, 4.0))
    def test_pi0_nonnegative(self, ops12, seed, scale):
        cfg = cfg_with(alpha=1.0, delta=1.0, kappa=2.0, beta=1.0,
                       source=SourceSpec(kind="cubic_minus_load", load=1.0))
        cert = certify_source(cfg)
        u = random_coeffs(ops12, seed, scale=scale)
        pi0, _ = split_potential(u, ops12, cfg, cert)
        assert pi0 >= 0.0

    def test_pi0_lower_bound(self, ops12):
        # Pi0 >= (kappa/2)||u^+||^2 + (delta/8)||u_x||^4
        cfg = cfg_with(alpha=1.0, delta=1.0, kappa=2.0,
                       source=SourceSpec(kind="cubic_minus_load", load=1.0))
        cert = certify_source(cfg)
        grid = ops12.grid
        for seed in range(20):
            u = random_coeffs(ops12, seed, scale=2.0)
            pi0, _ = split_potential(u, ops12, cfg, cert)
            plus_sq = grid.integrate(np.maximum(grid.eval_coeffs(u, "val"), 0.0) ** 2)
            ux2 = float(u @ ops12.Gx @ u)
            lower = 0.5 * cfg.kappa * plus_sq + cfg.delta / 8.0 * ux2 ** 2
            assert pi0 >= lower - 1e-9 * max(1.0, lower)

    def test_pad_rule_reporting(self):
        assert potential_split_pad(cfg_with(alpha=0.0, delta=1.0))[0] == 0.0
        pad, rule = potential_split_pad(cfg_with(alpha=2.0, delta=0.5))
        assert pad == 8.0 and "delta" in rule
        pad, rule = potential_split_pad(cfg_with(alpha=2.0, delta=0.0))
        assert pad == 1.0 and "alpha^2/4" in rule

    def test_remainder_sandwich_constant_finite(self, ops12):
        # |Pi1| <= eta~ [a(u,u) + Pi0] + C with the analytic certificate
        cfg = cfg_with(alpha=0.5, delta=1.0, kappa=2.0,
                       source=SourceSpec(kind="cubic_minus_load", load=1.0))
        cert = certify_source(cfg)
        sc = sandwich_constants(ops12, cfg, cert)
        assert math.isfinite(sc.C)
        for seed in range(50):
            u = random_coeffs(ops12, seed, scale=3.0)
            pi0, pi1 = split_potential(u, ops12, cfg, cert)
            bound = sc.eta_tilde * (ops12.bending_norm_sq(u) + pi0) + sc.C
            assert abs(pi1) <= bound * (1 + 1e-12)

    def test_fitted_constant_not_above_analytic(self, ops12):
        cfg = cfg_with(alpha=0.5, delta=1.0, kappa=2.0,
                       source=SourceSpec(kind="cubic_minus_load", load=1.0))
        cert = certify_source(cfg)
        states = [random_coeffs(ops12, s, scale=2.0) for s in range(30)]
        fitted = fit_sandwich_constant(states, ops12, cfg, cert)
        analytic = sandwich_constants(ops12, cfg, cert)
        assert fitted.C <= analytic.C + 1e-9


class TestTotalEnergy:
    def test_zero_state(self, ops12):
        cfg = cfg_with(alpha=0.5, delta=1.0, kappa=2.0,
                       source=SourceSpec(kind="cubic_minus_load", load=1.0))
        cert = certify_source(cfg)
        E, etot = total_energy(np.zeros(ops12.n), np.zeros(ops12.n), ops12, cfg, cert)
        assert abs(etot - potential_energy(np.zeros(ops12.n), ops12, cfg)) < 1e-12

    def test_pure_kinetic_state(self, ops12, rng):
        cfg = cfg_with(delta=1.0, kappa=1.0)
        cert = certify_source(cfg)
        v = rng.standard_normal(ops12.n)
        E, _ = total_energy(np.zeros(ops12.n), v, ops12, cfg, cert)
        pi0_at_zero, _ = split_potential(np.zeros(ops12.n), ops12, cfg, cert)
        assert abs(E - (0.5 * ops12.l2_norm_sq(v) + pi0_at_zero)) < 1e-12


class TestIdentityResidual:
    def test_same_snapshot_is_zero(self, ops12):
        from platelab.integrator import SimPlan, run
        cfg = cfg_with(delta=1.0, damping_coeffs=(1.0, 0.0))
        traj = run(ops12, cfg, SimPlan(dt=1e-2, T=0.1), ("mode", 1, 0, 0.5))
        assert energy_identity_residual(traj.ledger, 3, 3) == 0.0

    def test_order_validation(self, ops12):
        from platelab.integrator import SimPlan, run
        cfg = cfg_with(delta=1.0, damping_coeffs=(1.0, 0.0))
        traj = run(ops12, cfg, SimPlan(dt=1e-2, T=0.1), ("mode", 1, 0, 0.5))
        with pytest.raises(EnergyError):
            energy_identity_residual(traj.ledger, 5, 2)


class TestPoincare:
    def test_sin_x_ratio_one(self, ops1):
        assert abs(poincare_ratio(np.array([1.0]), ops1) - 1.0) < 1e-12

    def test_linear_y_profile_ratio_one(self, dom):
        # u = sin x * (y/l): the y-factor cancels in the ratio
        from platelab.discretization import make_operators
        ops = make_operators(1, 2, dom)
        u = np.array([0.0, 1.0])
        assert abs(poincare_ratio(u, ops) - 1.0) < 1e-12

    def test_sup_over_random_states(self, ops12):
        worst = 0.0
        for seed in range(1000):
            u = random_coeffs(ops12, seed)
            worst = max(worst, poincare_ratio(u, ops12))
        assert worst < np.pi ** 2

    def test_every_basis_member(self, ops12):
        for e in np.eye(ops12.n):
            assert poincare_ratio(e, ops12) <= np.pi ** 2

    def test_zero_gradient_flagged(self, ops12):
        with pytest.raises(EnergyError):
            poincare_ratio(np.zeros(ops12.n), ops12)


class TestInterpolationGap:
    def test_zero_state(self, ops12):
        assert interpolation_gap(np.zeros(ops12.n), ops12, s=1.0, eta=0.5) == 0.0

    def test_l2_surrogate_bounded(self, ops12):
        # s = 2: the low norm is plain L2; the gap stays bounded over samples
        sup = -math.inf
        for seed in range(1000):
            u = random_coeffs(ops12, seed, scale=2.0)
            sup = max(sup, interpolation_gap(u, ops12, s=2.0, eta=0.5))
        assert math.isfinite(sup)
        assert sup < 1.0   # eta = 1/2 dominates comfortably at this size

    def test_gap_diverges_down_the_ray(self, ops12):
        u = np.zeros(ops12.n)
        u[0] = 1.0
        vals = [interpolation_gap(R * u, ops12, s=2.0, eta=0.5)
                for R in (1.0, 10.0, 100.0)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < -1e4

    def test_order_validation(self, ops12):
        with pytest.raises(EnergyError):
            interpolation_gap(np.zeros(ops12.n), ops12, s=2.5, eta=0.5)

    def test_surrogate_endpoints(self, ops12, rng):
        u = rng.standard_normal(ops12.n)
        assert abs(ops12.fractional_norm_sq(u, 2.0)
                   - ops12.bending_norm_sq(u)) < 1e-9 * ops12.bending_norm_sq(u)
        assert abs(ops12.fractional_norm_sq(u, 0.0)
                   - ops12.l2_norm_sq(u)) < 1e-9 * ops12.l2_norm_sq(u)


class TestPhaseNormConsistency:
    def test_two_route_norm_agreement(self, ops3, rng):
        # u^T K u + v^T M v against direct quadrature of a(u,u) + ||v||^2
        u = rng.standard_normal(ops3.n)
        v = rng.standard_normal(ops3.n)
        grid = ops3.grid
        sig = ops3.dom.sigma
        uxx = grid.eval_coeffs(u, "dxx")
        uyy = grid.eval_coeffs(u, "dyy")
        uxy = grid.eval_coeffs(u, "dxy")
        a_direct = grid.integrate((uxx + uyy) ** 2
                                  - (1 - sig) * (2 * uxx * uyy - 2 * uxy ** 2))
        v_direct = grid.integrate(grid.eval_coeffs(v, "val") ** 2)
        two_way = a_direct + v_direct
        matrix = ops3.state_norm_sq(u, v)
        assert abs(two_way - matrix) < 1e-10 * max(1.0, matrix)


class TestSnapshotStacks:
    """The norms and energies of a snapshot stack (m, n) are computed in one
    call; each row must agree with the single-state call on that row."""

    @pytest.fixture(scope="class")
    def general(self, ops12):
        from platelab import presets
        from platelab.integrator import SimPlan, run

        cfg, _, _, _, initial = presets.make("general")
        cert = certify_source(cfg)
        traj = run(ops12, cfg, SimPlan(dt=1e-3, T=0.5, snapshot_every=10, seed=3),
                   initial, cert)
        return cfg, cert, traj

    def test_ledger_matches_per_snapshot_calls(self, ops12, general):
        cfg, cert, traj = general
        led = traj.ledger
        rows = [(potential_energy(u, ops12, cfg), *split_potential(u, ops12, cfg, cert),
                 *total_energy(u, v, ops12, cfg, cert)) for u, v in zip(traj.us, traj.vs)]
        pi, pi0, pi1, E, etot = np.array(rows).T
        for column, ref in ((led.Pi, pi), (led.Pi0, pi0), (led.Pi1, pi1),
                            (led.E, E), (led.Etot, etot)):
            np.testing.assert_allclose(column, ref, rtol=1e-12, atol=0.0)

    def test_rows_bit_identical_to_single_calls(self, ops12, general):
        cfg, cert, traj = general
        us, vs = traj.us, traj.vs
        stacked = {
            "l2": ops12.l2_norm_sq(vs),
            "bending": ops12.bending_norm_sq(us),
            "state": ops12.state_norm_sq(us, vs),
            "modal": ops12.modal_coords(us),
            "Pi": potential_energy(us, ops12, cfg),
            "Pi0": split_potential(us, ops12, cfg, cert)[0],
            "Etot": total_energy(us, vs, ops12, cfg, cert)[1],
        }
        for i in (0, len(traj) // 2, len(traj) - 1):
            u, v = us[i], vs[i]
            single = {
                "l2": ops12.l2_norm_sq(v),
                "bending": ops12.bending_norm_sq(u),
                "state": ops12.state_norm_sq(u, v),
                "modal": ops12.modal_coords(u),
                "Pi": potential_energy(u, ops12, cfg),
                "Pi0": split_potential(u, ops12, cfg, cert)[0],
                "Etot": total_energy(u, v, ops12, cfg, cert)[1],
            }
            for name, value in single.items():
                assert np.array_equal(stacked[name][i], value), name

    def test_potential_holds_at_most_two_grids(self, ops12, general):
        # the nodal values and the antiderivative, with no temporaries
        import tracemalloc

        cfg, _, _ = general
        us = np.random.default_rng(1).standard_normal((2000, ops12.n))
        grid_bytes = us.shape[0] * ops12.grid.n_nodes * 8
        tracemalloc.start()
        try:
            potential_energy(us, ops12, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * grid_bytes

    def test_negative_pi0_in_any_row_raises(self, ops12):
        # a certificate with c = b = 0 cannot cover the negative source
        # integral of a large displacement; one bad row fails the stack
        from platelab.model import SourceCertificate

        cfg = cfg_with(source=SourceSpec(kind="cubic_minus_load", load=1.0))
        weak = SourceCertificate(ok=True, c=0.0, b=0.0)
        u_bad = np.zeros(ops12.n)
        u_bad[0] = 0.5
        stack = np.array([np.zeros(ops12.n), u_bad])
        with pytest.raises(EnergyError):
            split_potential(stack, ops12, cfg, weak)
