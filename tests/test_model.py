"""Damping, force load, source certification, stationary states."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platelab.discretization import DomainSpec, make_operators
from platelab.model import (PlateConfig, SourceSpec, _newton_matrix,
                            _subtract_weighted_gram, acceleration, berger_coefficient,
                            certify_source, damping_gains, force_jacobian,
                            force_load, solve_stationary)
from platelab.energy import potential_energy

from conftest import random_coeffs, traced_peak
from kron_reference import basis_table, dense_operators


def cfg_with(**kw):
    return PlateConfig(**kw)


KNOTS = np.linspace(-4, 4, 17)
SPLINE = SourceSpec(kind="custom", table_s=tuple(KNOTS),
                    table_f=tuple(KNOTS ** 3 + 0.5 * np.sin(3 * KNOTS) - 1))


class TestDampingGain:
    def test_at_zero_returns_b0(self):
        cfg = cfg_with(damping_coeffs=(0.7, 0.0, 2.0))
        assert damping_gains(0.0, cfg) == 0.7

    def test_polynomial_value(self):
        cfg = cfg_with(damping_coeffs=(1.0, 0.0, 2.0))
        assert damping_gains(3.0, cfg) == 1.0 + 2.0 * 9.0

    def test_array_form_matches_scalar_bits(self):
        cfg = cfg_with(damping_coeffs=(0.5, 0.0, 1.0, 0.25))
        speeds = np.linspace(0.0, 7.0, 29)
        expected = [damping_gains(float(s), cfg) for s in speeds]
        assert np.array_equal(damping_gains(speeds, cfg), expected)

    @settings(max_examples=50, deadline=None)
    @given(s1=st.floats(0, 50), s2=st.floats(0, 50),
           b=st.tuples(st.floats(0, 3), st.floats(0, 3), st.floats(0, 3)))
    def test_monotone(self, s1, s2, b):
        cfg = cfg_with(damping_coeffs=b)
        lo, hi = sorted((s1, s2))
        assert damping_gains(hi, cfg) >= damping_gains(lo, cfg)


class TestDampingLoad:
    """The tested damping D(v) = g(||v||_0) M v, formed as the step forms it."""

    @staticmethod
    def damping_load(v, ops, cfg):
        return damping_gains(np.sqrt(ops.l2_norm_sq(v)), cfg) * (ops.m_diag * v)

    def test_zero_velocity_maps_to_zero(self, ops12):
        cfg = cfg_with(damping_coeffs=(1.0, 0.0, 2.0))
        assert np.all(self.damping_load(np.zeros(ops12.n), ops12, cfg) == 0.0)

    def test_linear_case_is_mass_times_velocity(self, ops12, rng):
        cfg = cfg_with(damping_coeffs=(1.0, 0.0))
        v = rng.standard_normal(ops12.n)
        assert np.allclose(self.damping_load(v, ops12, cfg), ops12.M @ v, atol=1e-14)

    def test_monotonicity_on_random_pairs(self, ops12, rng):
        cfg = cfg_with(damping_coeffs=(0.5, 0.3, 1.5))
        for _ in range(100):
            v1 = rng.standard_normal(ops12.n)
            v2 = rng.standard_normal(ops12.n)
            gap = self.damping_load(v1, ops12, cfg) - self.damping_load(v2, ops12, cfg)
            pairing = float(gap @ (v1 - v2))
            assert pairing >= -1e-12 * (np.linalg.norm(v1) + np.linalg.norm(v2)) ** 2


class TestBergerCoefficient:
    def test_zero_displacement(self, ops12):
        cfg = cfg_with(alpha=2.5, delta=1.0)
        assert berger_coefficient(np.zeros(ops12.n), ops12, cfg) == 2.5

    def test_sin_x_value(self, ops1):
        # ||u_x||^2 = pi l = pi for u = sin x, l = 1
        cfg = cfg_with(alpha=1.0, delta=1.0)
        u = np.array([1.0])
        assert abs(berger_coefficient(u, ops1, cfg) - (1.0 - np.pi)) < 1e-12

    def test_delta_zero_ignores_displacement(self, ops12, rng):
        cfg = cfg_with(alpha=0.3, delta=0.0)
        u = rng.standard_normal(ops12.n)
        assert berger_coefficient(u, ops12, cfg) == 0.3


class TestForceLoad:
    def test_zero_state_zero_load(self, ops12):
        cfg = cfg_with(alpha=1.0, delta=1.0, beta=2.0, kappa=3.0)
        assert np.max(np.abs(force_load(np.zeros(ops12.n), ops12, cfg))) < 1e-14

    def test_flow_pairing_bound(self, ops12, rng):
        # |(F(u), u)| = |beta (u_y, u)| <= |beta| ||u||_1^2 for the flow-only config
        cfg = cfg_with(beta=0.8)
        ref = dense_operators(ops12.grid, ops12.dom.sigma)
        for seed in range(20):
            u = random_coeffs(ops12, seed)
            pairing = float(force_load(u, ops12, cfg) @ u)
            h1_sq = float(u @ (ref["M"] + ref["Gx"] + ref["Gy"]) @ u)
            assert abs(pairing) <= abs(cfg.beta) * h1_sq * (1 + 1e-12)

    def test_negative_displacement_kills_stay_term(self, ops12):
        # u < 0 at the nodes: kappa u^+ contributes nothing
        u = np.zeros(ops12.n)
        u[0] = -2.0
        with_kappa = force_load(u, ops12, cfg_with(kappa=5.0))
        without = force_load(u, ops12, cfg_with(kappa=0.0))
        assert np.allclose(with_kappa, without, atol=1e-14)

    def test_beta_flip_negates_flow_load(self, ops12, rng):
        u = rng.standard_normal(ops12.n)
        # beta is the only load of these configs
        plus = force_load(u, ops12, cfg_with(beta=1.7))
        minus = force_load(u, ops12, cfg_with(beta=-1.7))
        assert np.allclose(plus, -minus, atol=1e-14)

    def test_local_lipschitz_constant_stable(self, ops12):
        # fitted L_R is finite and stable as the sample count grows
        cfg = cfg_with(alpha=0.5, delta=1.0, beta=1.0, kappa=2.0,
                       source=SourceSpec(kind="cubic_minus_load", load=1.0))
        Minv = np.linalg.inv(ops12.M)

        def fit(n_pairs, seed0):
            worst = 0.0
            for s in range(n_pairs):
                u = random_coeffs(ops12, seed0 + s)
                v = random_coeffs(ops12, seed0 + 1000 + s)
                df = force_load(u, ops12, cfg) - force_load(v, ops12, cfg)
                num = math.sqrt(df @ Minv @ df)
                den = math.sqrt((u - v) @ ops12.K @ (u - v))
                worst = max(worst, num / den)
            return worst

        L1 = fit(40, 0)
        L2 = fit(80, 0)
        assert math.isfinite(L2)
        assert L2 <= 1.5 * L1 + 1e-12

    def test_conservative_part_is_potential_gradient(self, ops12, rng):
        # (-Pi'(u), w) equals the path derivative of -Pi, to O(h^2)
        cfg = cfg_with(alpha=0.7, delta=1.2, kappa=1.5,
                       source=SourceSpec(kind="cubic_minus_load", load=0.5))
        u = random_coeffs(ops12, 3, scale=0.8)
        w = random_coeffs(ops12, 4)
        exact = float(force_load(u, ops12, cfg) @ w)   # beta = 0: load = -Pi'

        def fd(h):
            return -(potential_energy(u + h * w, ops12, cfg)
                     - potential_energy(u - h * w, ops12, cfg)) / (2 * h)

        e1 = abs(fd(1e-3) - exact)
        e2 = abs(fd(5e-4) - exact)
        assert e1 < 1e-4
        assert e2 < e1 / 2.5  # second-order shrink (ratio ~4 with slack)


class TestAcceleration:
    def test_stack_matches_rows_and_solves_the_equation(self, ops12):
        # 600 rows at once against one row at a time
        cfg = cfg_with(alpha=0.5, delta=1.0, beta=1.0, kappa=2.0,
                       damping_coeffs=(0.5, 0.0, 1.0),
                       source=SourceSpec(kind="cubic_minus_load", load=1.0))
        us = np.array([random_coeffs(ops12, s, scale=2.0) for s in range(600)])
        vs = np.array([random_coeffs(ops12, s + 1000, scale=2.0) for s in range(600)])
        acc = acceleration(us, vs, ops12, cfg)
        rows = [acceleration(u[None], v[None], ops12, cfg)[0] for u, v in zip(us, vs)]
        assert np.array_equal(acc, rows)
        # M u_tt + K u + g(||v||) M v = load(u)
        gain = damping_gains(np.sqrt(ops12.l2_norm_sq(vs)), cfg)
        lhs = acc @ ops12.M + us @ ops12.K + gain[:, None] * (vs @ ops12.M)
        load = force_load(us, ops12, cfg)
        np.testing.assert_allclose(lhs, load, rtol=0, atol=1e-10 * np.max(np.abs(load)))


class TestSourceCertification:
    def test_zero_source(self):
        cert = certify_source(cfg_with())
        assert cert.ok and cert.c == 0.0 and cert.b == 0.0

    def test_cubic_minus_load_accepted_and_certified(self):
        cfg = cfg_with(source=SourceSpec(kind="cubic_minus_load", load=1.0))
        cert = certify_source(cfg)
        assert cert.ok
        # oracle: the returned pair really certifies the bound on the range
        s = np.linspace(-10, 10, 4001)
        h = cfg.source.antiderivative(s) + cert.c * s * s + cert.b
        assert h.min() >= 0.0

    def test_softening_cubic_rejected_with_large_witness(self):
        table = np.linspace(-12, 12, 97)
        cfg = cfg_with(source=SourceSpec(kind="custom",
                                         table_s=tuple(table),
                                         table_f=tuple(-table ** 3)))
        cert = certify_source(cfg)
        assert not cert.ok
        assert abs(cert.witness) >= 8.0

    def test_custom_spline_matches_cubic(self):
        table = np.linspace(-3, 3, 61)
        src = SourceSpec(kind="custom", table_s=tuple(table),
                         table_f=tuple(table ** 3 - 1.0))
        s = np.linspace(-2.5, 2.5, 11)
        assert np.allclose(src.f(s), s ** 3 - 1.0, atol=1e-6)
        assert np.allclose(src.antiderivative(s), s ** 4 / 4 - s, atol=1e-6)

    def test_custom_spline_built_once(self, ops12, monkeypatch):
        # every force load of a run reads the source, and none rebuilds it
        from scipy.interpolate import CubicSpline
        from platelab.integrator import SimPlan, run

        built = []
        init = CubicSpline.__init__
        monkeypatch.setattr(CubicSpline, "__init__",
                            lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
        table = np.linspace(-3, 3, 7)
        cfg = cfg_with(delta=1.0, source=SourceSpec(kind="custom", table_s=tuple(table),
                                                    table_f=tuple(table ** 3 - 1.0)))
        traj = run(ops12, cfg, SimPlan(dt=1e-2, T=0.1), ("mode", 1, 0, 0.5))
        assert len(traj) == 11 and len(built) == 1


class TestStationary:
    def test_trivial_equilibrium(self, ops12):
        res = solve_stationary(cfg_with(), ops12)
        assert res.converged and np.max(np.abs(res.u)) < 1e-12

    def test_buckled_amplitude_closed_form(self, dom):
        # with Ny = 1 the first mode decouples: A = sqrt((alpha-1)/(delta pi l))
        from platelab.discretization import make_operators
        ops = make_operators(2, 1, dom)
        cfg = cfg_with(alpha=3.0, delta=1.0)
        res = solve_stationary(cfg, ops, np.array([0.5, 0.0]))
        assert res.converged and res.residual <= 1e-10
        A = math.sqrt((cfg.alpha - 1.0) / (cfg.delta * np.pi * dom.l))
        assert abs(abs(res.u[0]) - A) < 1e-10
        assert abs(res.u[1]) < 1e-10

    def test_full_basis_buckled_state(self, ops12):
        cfg = cfg_with(alpha=3.0, delta=1.0, damping_coeffs=(1.0, 0.0))
        guess = np.zeros(ops12.n)
        guess[0] = 0.8
        res = solve_stationary(cfg, ops12, guess)
        assert res.converged and res.residual <= 1e-10
        assert ops12.bending_norm_sq(res.u) > 0.1  # genuinely buckled

    def test_residual_definition_consistent(self, ops12):
        cfg = cfg_with(alpha=3.0, delta=1.0)
        guess = np.zeros(ops12.n)
        guess[0] = 0.8
        res = solve_stationary(cfg, ops12, guess)
        balance = ops12.K @ res.u - force_load(res.u, ops12, cfg)
        assert np.linalg.norm(balance) == pytest.approx(res.residual, abs=1e-15)

    def test_weighted_gram_matches_direct_quadrature(self, ops12, rng):
        grid = ops12.grid
        w = rng.standard_normal((grid.x_nodes.size, grid.y_nodes.size))
        phi = basis_table(grid)
        direct = np.einsum("iab,ab,jab->ij", phi, grid.w2d * w, phi)
        gram = np.zeros((ops12.n, ops12.n))
        _subtract_weighted_gram(gram, grid, w)
        assert np.max(np.abs(-gram - direct)) <= 1e-13 * np.max(np.abs(direct))

    def test_jacobian_matches_finite_differences(self, ops12):
        # the custom spline runs its derivative; kappa = 0 leaves it no kink
        for kappa, source, scale in ((2.0, SourceSpec(kind="cubic_minus_load", load=1.0), 0.6),
                                     (0.0, SPLINE, 5.0)):
            cfg = cfg_with(alpha=0.5, delta=1.0, kappa=kappa, beta=0.7, source=source)
            u = random_coeffs(ops12, 11, scale=scale)
            J = force_jacobian(u, ops12, cfg)
            rng = np.random.default_rng(5)
            w = rng.standard_normal(ops12.n)
            h = 1e-6
            fd = (force_load(u + h * w, ops12, cfg)
                  - force_load(u - h * w, ops12, cfg)) / (2 * h)
            assert np.allclose(J @ w, fd, atol=1e-5, rtol=1e-5), source.kind

    def test_custom_source_equilibrium(self, ops12):
        res = solve_stationary(cfg_with(alpha=0.5, delta=1.0, beta=0.7, source=SPLINE), ops12)
        assert res.converged and res.residual <= 1e-10

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unreachable_tolerance_stops_at_the_line_search(self, ops12, seed):
        # tol = 0 lies below the residual's roundoff floor: once no step
        # lowers the residual, Newton returns its last iterate unconverged
        from platelab.integrator import initial_state
        from platelab.presets import make

        cfg = make("general")[0]
        start = initial_state(("random", 2.0), ops12, cfg, seed).u
        res = solve_stationary(cfg, ops12, start, tol=0.0)
        assert not res.converged and res.iterations < 80
        assert np.all(np.isfinite(res.u)) and 0.0 < res.residual < 1e-12


class TestJacobianAssembly:
    """The in-place sine-block assembly against a dense one from the
    Kronecker operators and the nodal basis table."""

    CUBIC = SourceSpec(kind="cubic_minus_load", load=1.0)

    @staticmethod
    def dense_jacobian(u, ops, cfg):
        ref = dense_operators(ops.grid, ops.dom.sigma)
        gxu = ref["Gx"] @ u
        J = (cfg.alpha - cfg.delta * (gxu @ u)) * ref["Gx"] - 2.0 * cfg.delta * np.outer(gxu, gxu)
        phi = basis_table(ops.grid)
        vals = np.einsum("iab,i->ab", phi, u)
        wgt = cfg.kappa * (vals > 0.0) + cfg.source.f_prime(vals)
        J -= np.einsum("iab,ab,jab->ij", phi, ops.grid.w2d * wgt, phi)
        return J - cfg.beta * ref["Dy"].T, ref["K"]

    @pytest.mark.parametrize("shape", [(4, 3), (5, 4)])
    @pytest.mark.parametrize("kappa, source, beta", [
        (2.0, CUBIC, 0.7),          # every term
        (0.0, SourceSpec(), 0.7),   # no pointwise term
        (2.0, SourceSpec(), 0.7),   # the kink alone
        (0.0, CUBIC, 0.7),          # the source alone
        (2.0, CUBIC, 0.0),          # no flow term
    ])
    def test_matches_dense_assembly(self, shape, kappa, source, beta):
        ops = make_operators(*shape, DomainSpec(l=0.8, sigma=0.25))
        cfg = cfg_with(alpha=0.5, delta=1.3, kappa=kappa, beta=beta, source=source)
        u = random_coeffs(ops, 4, scale=0.7)
        J_ref, K = self.dense_jacobian(u, ops, cfg)
        J = force_jacobian(u, ops, cfg)
        assert np.max(np.abs(J - J_ref)) <= 1e-13 * np.max(np.abs(J_ref))
        A_ref = K - J_ref
        assert np.max(np.abs(_newton_matrix(u, ops, cfg) - A_ref)) \
            <= 1e-13 * np.max(np.abs(A_ref))

    def test_newton_peak_memory_bounded_by_three_matrices(self):
        # general physics at 24 x 16 (n = 384); every dense view would cost n^2
        ops = make_operators(24, 16)
        cfg = cfg_with(delta=1.0, beta=1.0, kappa=2.0, source=self.CUBIC)
        guess = random_coeffs(ops, 10)
        n, Mx, grid = ops.n, ops.basis.Mx, ops.grid
        tables = 8 * Mx * Mx * (grid.x_nodes.size + grid.y_nodes.size)
        assert traced_peak(solve_stationary, cfg, ops, guess) <= 3 * 8 * n * n + tables
        assert solve_stationary(cfg, ops, guess).converged
