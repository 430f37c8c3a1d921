"""Basis, quadrature, and operator assembly against analytic integrals."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from kron_reference import (basis_table, dense_operators, embedding_constant, evaluate,
                            nodal_derivative)
from platelab.discretization import (Basis, DiscretizationError, DomainSpec, build_operators,
                                     make_operators, quadrature_grid)
from platelab.integrator import SimPlan, SolverCache, run, step
from platelab.model import PlateConfig, SourceSpec, State


class TestBasis:
    def test_single_mode_is_sin_x(self, dom):
        basis = Basis(1, 1, dom)
        x = np.linspace(0, np.pi, 7)
        vals = evaluate(basis, [1.0], x, np.zeros_like(x))
        assert np.allclose(vals, np.sin(x), atol=1e-14)

    def test_members_vanish_on_short_edges(self, dom):
        basis = Basis(2, 1, dom)
        ys = np.linspace(-dom.l, dom.l, 5)
        for coeffs in np.eye(basis.n):
            for xe in (0.0, np.pi):
                assert np.max(np.abs(evaluate(basis, coeffs, xe, ys))) < 1e-14

    def test_twelve_functions_independent(self):
        # Gram determinant of the mass matrix stays positive
        dom = DomainSpec(l=0.5, sigma=0.3)
        basis = Basis(3, 4, dom)
        assert basis.n == 12
        grid = quadrature_grid(basis)
        M = dense_operators(grid, dom.sigma)["M"]
        sign, logdet = np.linalg.slogdet(M)
        assert sign > 0 and np.isfinite(logdet)

    def test_zero_counts_rejected(self, dom):
        with pytest.raises(DiscretizationError):
            Basis(0, 1, dom)
        with pytest.raises(DiscretizationError):
            Basis(1, 0, dom)

    def test_domain_validation(self):
        with pytest.raises(DiscretizationError):
            DomainSpec(l=-1.0)
        with pytest.raises(DiscretizationError):
            DomainSpec(sigma=0.7)


class TestQuadrature:
    def test_weight_sum_is_area(self):
        for l in (1.0, 0.5, 2.5):
            dom = DomainSpec(l=l)
            grid = quadrature_grid(Basis(3, 3, dom))
            assert abs(grid.weight_sum - 2 * np.pi * l) < 1e-12 * 2 * np.pi * l

    def test_sin_squared_integral(self, ops3, dom):
        grid = ops3.grid
        e = np.zeros(ops3.n)
        e[0] = 1.0
        val = grid.integrate(grid.eval_coeffs(e) ** 2)
        assert abs(val - np.pi * dom.l) < 1e-12

    def test_legendre_one_integral(self, dom):
        # int_Omega L_1(y/l)^2 sin^2 x = (pi/2) * (2 l / 3)
        basis = Basis(1, 2, dom)
        grid = quadrature_grid(basis)
        e = np.array([0.0, 1.0])
        val = grid.integrate(grid.eval_coeffs(e) ** 2)
        assert abs(val - (np.pi / 2) * (2 * dom.l / 3)) < 1e-12

    def test_oversample_precondition(self, dom):
        basis = Basis(2, 2, dom)
        with pytest.raises(DiscretizationError):
            quadrature_grid(basis, oversample=1)


class TestMass:
    def test_single_mode_value(self, ops1, dom):
        assert abs(ops1.M[0, 0] - np.pi * dom.l) < 1e-12

    def test_diagonal_for_tensor_basis(self, ops3):
        off = ops3.M - np.diag(np.diag(ops3.M))
        assert np.max(np.abs(off)) < 1e-12

    def test_normalized_mass_is_identity(self, ops3):
        d = 1.0 / np.sqrt(np.diag(ops3.M))
        Mn = d[:, None] * ops3.M * d[None, :]
        assert np.max(np.abs(Mn - np.eye(ops3.n))) < 1e-12


class TestStiffness:
    def test_sin_x_bilinear_value(self, ops1, dom):
        # phi = sin x is y-constant: a(phi, phi) = int sin^2 x = pi l
        assert abs(ops1.K[0, 0] - np.pi * dom.l) < 1e-12

    def test_symmetry(self, ops12):
        assert np.max(np.abs(ops12.K - ops12.K.T)) < 1e-12

    def test_generalized_eigenvalues_positive(self):
        ops = make_operators(4, 4, DomainSpec(l=1.0, sigma=0.3))
        assert ops.mu[0] > 0

    @settings(max_examples=10, deadline=None)
    @given(l=st.floats(0.3, 3.0), sigma=st.floats(0.05, 0.45),
           mx=st.integers(1, 4), ny=st.integers(1, 4))
    def test_assembly_always_spd(self, l, sigma, mx, ny):
        ops = make_operators(mx, ny, DomainSpec(l=l, sigma=sigma))
        for A in (ops.M, ops.K):
            assert np.max(np.abs(A - A.T)) < 1e-12 * max(1.0, np.max(np.abs(A)))
            assert np.linalg.eigvalsh(A)[0] > 0


class TestDerivativeGrams:
    def test_gx_sin_x(self, ops1, dom):
        # u = sin x: int cos^2 x = pi l
        assert abs(ops1.Gx[0, 0] - np.pi * dom.l) < 1e-12

    def test_gx_symmetric_positive_semidefinite(self, ops12):
        assert np.max(np.abs(ops12.Gx - ops12.Gx.T)) < 1e-12
        assert np.linalg.eigvalsh(ops12.Gx)[0] >= -1e-12

    def test_weights_positive(self, ops12):
        assert np.all(ops12.grid.x_weights > 0)
        assert np.all(ops12.grid.y_weights > 0)

    def test_dy_vanishes_for_y_constant(self, ops3):
        # u constant in y (k = 0 modes): u_y = 0, so rows pair to zero
        u = np.zeros(ops3.n)
        u[0] = 1.3
        u[ops3.basis.Ny] = -0.4   # sin(2x) P_0
        assert np.max(np.abs(u @ ops3.Dy)) < 1e-12

    def test_y_pairing_boundary_identity(self, ops3, rng):
        # (u_y, v) + (u, v_y) = int_x [u v](x, l) - [u v](x, -l)
        a = rng.standard_normal(ops3.n)
        b = rng.standard_normal(ops3.n)
        lhs = a @ ops3.Dy @ b + b @ ops3.Dy @ a
        grid = ops3.grid
        basis = ops3.basis
        top = evaluate(basis, a, grid.x_nodes, grid.basis.dom.l) * \
            evaluate(basis, b, grid.x_nodes, grid.basis.dom.l)
        bot = evaluate(basis, a, grid.x_nodes, -grid.basis.dom.l) * \
            evaluate(basis, b, grid.x_nodes, -grid.basis.dom.l)
        rhs = float(grid.x_weights @ (top - bot))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


class TestEmbeddingConstant:
    def test_single_mode_is_one(self, ops1):
        lam, _ = embedding_constant(ops1)
        assert abs(lam - 1.0) < 1e-10

    def test_matches_dense_eigensolve(self, ops12):
        lam, vec = embedding_constant(ops12)
        assert abs(lam - 1.0 / ops12.mu[0]) < 1e-9 * lam
        # the returned vector achieves the ratio
        ratio = (vec @ ops12.M @ vec) / (vec @ ops12.K @ vec)
        assert abs(ratio - lam) < 1e-9 * lam

    def test_invariant_under_congruence(self, ops3, rng):
        import scipy.linalg
        C = np.eye(ops3.n) + 0.1 * rng.standard_normal((ops3.n, ops3.n))
        muc = scipy.linalg.eigh(C.T @ ops3.K @ C, C.T @ ops3.M @ C,
                                eigvals_only=True)
        assert abs(muc[0] - ops3.mu[0]) < 1e-9 * ops3.mu[0]

    def test_nondecreasing_in_basis_size(self, dom):
        lams = []
        for ny in (1, 2, 3):
            ops = make_operators(3, ny, dom)
            lams.append(embedding_constant(ops)[0])
        assert lams[0] <= lams[1] + 1e-12 and lams[1] <= lams[2] + 1e-12


class TestConsistency:
    def test_galerkin_consistency_direct_quadrature(self, ops3, rng):
        # u^T K u recomputed by direct 2-D quadrature of the bilinear form
        u = rng.standard_normal(ops3.n)
        grid = ops3.grid
        sig = ops3.dom.sigma
        uxx, uyy, uxy = (nodal_derivative(grid, u, d) for d in ("dxx", "dyy", "dxy"))
        lap = uxx + uyy
        integrand = lap ** 2 - (1 - sig) * (2 * uxx * uyy - 2 * uxy ** 2)
        direct = grid.integrate(integrand)
        quad = float(u @ ops3.K @ u)
        assert abs(direct - quad) < 1e-10 * max(1.0, abs(quad))

    def test_refinement_nestedness(self, dom):
        small = make_operators(3, 3, dom)
        big = make_operators(4, 4, dom)
        # map (m, k) indices of the small basis into the big one
        idx = [(m - 1) * 4 + k for m in range(1, 4) for k in range(3)]
        for A_small, A_big in ((small.M, big.M), (small.K, big.K),
                               (small.Gx, big.Gx), (small.Dy, big.Dy)):
            sub = A_big[np.ix_(idx, idx)]
            assert np.max(np.abs(sub - A_small)) < 1e-12

    def test_full_tables_match_factored_eval(self, ops3, rng):
        u = rng.standard_normal(ops3.n)
        direct = np.tensordot(u, basis_table(ops3.grid), axes=(0, 0))
        assert np.allclose(direct, ops3.grid.eval_coeffs(u), atol=1e-13)


class TestBlockForm:
    DOM = DomainSpec(l=0.7, sigma=0.22)

    @pytest.mark.parametrize("mx, ny", [(6, 5), (12, 9)])
    def test_operators_match_kron_reference(self, mx, ny):
        ops = make_operators(mx, ny, self.DOM)
        ref = dense_operators(ops.grid, self.DOM.sigma)
        for name in ("M", "K", "Gx", "Dy"):
            err = np.max(np.abs(getattr(ops, name) - ref[name]))
            assert err <= 1e-13 * np.max(np.abs(ref[name])), name

    def test_spectrum_matches_dense_generalized_eigh(self):
        ops = make_operators(8, 8, self.DOM)
        ref = dense_operators(ops.grid, self.DOM.sigma)
        mu = scipy.linalg.eigh(ref["K"], ref["M"], eigvals_only=True)
        assert np.all(np.abs(ops.mu - mu) <= 1e-10 * mu)
        assert np.all(np.diff(ops.mu) >= 0)
        gram = ops.phi.T @ ops.M @ ops.phi
        assert np.max(np.abs(gram - np.eye(ops.n))) < 1e-12
        resid = ops.K @ ops.phi - ops.M @ ops.phi * ops.mu
        assert np.max(np.abs(resid)) < 1e-10 * ops.mu[-1]

    def test_modal_transforms_match_dense_phi(self, rng):
        ops = make_operators(5, 4, self.DOM)
        u = rng.standard_normal((3, ops.n))
        c = rng.standard_normal((3, ops.n))
        assert np.allclose(ops.modal_coords(u), u @ ops.M @ ops.phi, atol=1e-13)
        assert np.allclose(ops.from_modal(c), c @ ops.phi.T, atol=1e-13)

    def test_run_forms_no_dense_view(self):
        ops = make_operators(4, 3, self.DOM)
        cfg = PlateConfig(alpha=0.8, delta=1.0, beta=0.5, kappa=0.3,
                          damping_coeffs=(0.2, 0.0, 0.4),
                          source=SourceSpec("cubic_minus_load", load=0.5), dom=self.DOM)
        plan = SimPlan(dt=1e-2, T=0.2)
        for start in (("random", 1.0), ("stationary_kick", 0.2)):     # the latter by Newton
            traj = run(ops, cfg, plan, start)
            cache = SolverCache(ops, cfg, plan)
            step(State(traj.us[-1:], traj.vs[-1:], traj.times[-1]), cache)
            assert not {"M", "K", "Gx", "Dy", "phi"} & vars(ops).keys()
            for holder in (ops, cache):
                for name, a in vars(holder).items():
                    assert not (isinstance(a, np.ndarray) and a.shape == (ops.n, ops.n)), name

    def test_nonpositive_mass_entry_named(self, dom):
        grid = quadrature_grid(Basis(2, 2, dom))
        bad = dataclasses.replace(grid, y_weights=-grid.y_weights)
        with pytest.raises(DiscretizationError, match="mass entry"):
            build_operators(bad)

    def test_nonpositive_block_eigenvalue_named(self, dom):
        # without x-derivatives the stiffness form sees only u_yy, which
        # vanishes on the Legendre degrees 0 and 1
        grid = quadrature_grid(Basis(2, 3, dom))
        bad = dataclasses.replace(grid, dsx=0.0 * grid.dsx, d2sx=0.0 * grid.d2sx)
        with pytest.raises(DiscretizationError, match="stiffness block m = 1"):
            build_operators(bad)
