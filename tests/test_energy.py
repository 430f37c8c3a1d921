"""Potential split, energy sandwich and Poincare checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from platelab.discretization import DomainSpec, make_operators
from platelab.energy import (LEDGER_COLUMNS, EnergyError, poincare_ratio, potential_energy,
                             potential_split_pad, sandwich_constants,
                             split_potential, total_energy)
from platelab.model import ROW_BLOCK_BYTES, PlateConfig, SourceSpec, certify_source

from conftest import random_coeffs, traced_peak
from kron_reference import nodal_derivative


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
            plus_sq = grid.integrate(np.maximum(grid.eval_coeffs(u), 0.0) ** 2)
            ux2 = float(u @ ops12.Gx @ u)
            lower = 0.5 * cfg.kappa * plus_sq + cfg.delta / 8.0 * ux2 ** 2
            assert pi0 >= lower - 1e-9 * max(1.0, lower)

    def test_pad_rule_reporting(self):
        assert potential_split_pad(cfg_with(alpha=0.0, delta=1.0)) == 0.0
        assert potential_split_pad(cfg_with(alpha=2.0, delta=0.5)) == 8.0
        assert potential_split_pad(cfg_with(alpha=2.0, delta=0.0)) == 1.0

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
        # the sup over sample states of |Pi1| - eta~ (a + Pi0)
        us = np.array([random_coeffs(ops12, s, scale=2.0) for s in range(30)])
        analytic = sandwich_constants(ops12, cfg, cert)
        pi0, pi1 = split_potential(us, ops12, cfg, cert)
        fitted = np.max(np.abs(pi1) - analytic.eta_tilde * (ops12.bending_norm_sq(us) + pi0))
        assert max(0.0, fitted) <= analytic.C + 1e-9

    def test_no_route_certifies_a_large_source_constant(self):
        # on l = 5 the embedding constant 1/lambda_min is 1.007, so c = 1/4
        # exceeds eta~ / lambda, and delta = 0 rules out the quartic route
        ops = make_operators(4, 3, DomainSpec(l=5.0))
        cfg = cfg_with(source=SourceSpec(kind="cubic_minus_load", load=1.0))
        cert = certify_source(cfg)
        assert cert.c == 0.25 and cert.c / ops.lambda_min > 0.25
        with pytest.raises(EnergyError, match="no analytic sandwich certificate"):
            sandwich_constants(ops, cfg, cert)


class TestDomainOwner:
    def test_energies_read_the_grid_domain_not_the_config(self):
        # a config left at the default l = 1 on a grid with l = 2 must give
        # the bits of the config that states the grid's domain
        from platelab.integrator import SimPlan, run

        ops = make_operators(4, 3, DomainSpec(l=2.0))
        cfg = cfg_with(delta=1.0, beta=1.0, kappa=2.0, damping_coeffs=(0.5, 0.0, 1.0),
                       source=SourceSpec(kind="cubic_minus_load", load=1.0))
        cert = certify_source(cfg)
        plan = SimPlan(dt=1e-3, T=0.05, snapshot_every=10, seed=0)
        runs = [(run(ops, c, plan, ("random", 1.0), cert).ledger,
                 sandwich_constants(ops, c, cert).C)
                for c in (cfg, dataclasses.replace(cfg, dom=ops.dom))]
        (led, C), (ref, C_ref) = runs
        assert cfg.dom != ops.dom
        assert led.E[0] == pytest.approx(13.2251, abs=1e-4)
        for name in LEDGER_COLUMNS:
            assert np.array_equal(getattr(led, name), getattr(ref, name)), name
        assert C == C_ref


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


class TestPhaseNormConsistency:
    def test_two_route_norm_agreement(self, ops3, rng):
        # u^T K u + v^T M v against direct quadrature of a(u,u) + ||v||^2
        u = rng.standard_normal(ops3.n)
        v = rng.standard_normal(ops3.n)
        grid = ops3.grid
        sig = ops3.dom.sigma
        uxx, uyy, uxy = (nodal_derivative(grid, u, d) for d in ("dxx", "dyy", "dxy"))
        a_direct = grid.integrate((uxx + uyy) ** 2
                                  - (1 - sig) * (2 * uxx * uyy - 2 * uxy ** 2))
        v_direct = grid.integrate(grid.eval_coeffs(v) ** 2)
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

    def test_ledger_takes_the_potential_in_row_blocks(self, ops12, monkeypatch):
        from platelab import energy, presets
        from platelab.integrator import SimPlan, run

        rows = []
        whole_stack = energy.potential_energy

        def spy(u, ops, cfg):
            rows.append(len(u))
            return whole_stack(u, ops, cfg)

        monkeypatch.setattr(energy, "potential_energy", spy)
        cfg, _, _, _, initial = presets.make("general")
        traj = run(ops12, cfg, SimPlan(dt=1e-3, T=0.6, snapshot_every=1, seed=3), initial)
        # the most rows whose nodal array fits the budget: 192 on 170 nodes
        block = ROW_BLOCK_BYTES // (8 * ops12.grid.n_nodes)
        assert rows == [block] * (601 // block) + [601 % block]     # 601 snapshots
        assert np.array_equal(traj.ledger.Pi, whole_stack(traj.us, ops12, cfg))

    def test_analysis_peaks_flat_in_snapshots(self, dom, monkeypatch):
        # 16 x 16 (n = 256): one stack row is 2048 bytes.  An analysis that
        # reads its stacks in row blocks holds one block plus a few floats
        # per snapshot (its per-row columns), so 4 times the snapshots add
        # at most 32 floats a snapshot and no peak reaches one stack.
        from platelab import barrier, energy, integrator, presets
        from platelab.attractor_lab import _fit_pair, regularity_probe
        from platelab.discretization import make_operators

        ops = make_operators(16, 16, dom)
        cfg = presets.make("general")[0]
        cert = certify_source(cfg)
        build = energy.build_ledger
        peaks, ledger_peaks = {}, []

        def spy(*args):
            out = []
            ledger_peaks.append(traced_peak(lambda: out.append(build(*args))))
            return out[0]

        monkeypatch.setattr(energy, "build_ledger", spy)
        for steps in (800, 3200):
            ledger_peaks.clear()
            plan = integrator.SimPlan(dt=1e-3, T=steps * 1e-3, snapshot_every=1, seed=1)
            t1, t2 = integrator.run_ensemble(ops, cfg, plan, [("mode", 1, 0, 0.5),
                                                              ("mode", 1, 0, 0.501)], cert)
            bc = barrier.fit_barrier_constants([t1], ops, cfg, cert)
            for name, peak in (
                    ("ledger", max(ledger_peaks)),          # one build per member
                    ("fit", traced_peak(barrier.fit_barrier_constants, [t1], ops, cfg, cert)),
                    ("audit", traced_peak(barrier.decay_audit, t1, ops, cfg, cert, bc)),
                    ("regularity", traced_peak(regularity_probe, t1, ops, cfg)),
                    ("pair", traced_peak(_fit_pair, ops, t1, t2))):
                assert peak < t1.us.nbytes, (name, steps, peak)
                peaks.setdefault(name, []).append(peak)
        for name, (short, long) in peaks.items():
            assert long - short <= 32 * 8 * 2400, (name, short, long)

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
        cfg, _, _ = general
        us = np.random.default_rng(1).standard_normal((2000, ops12.n))
        grid_bytes = us.shape[0] * ops12.grid.n_nodes * 8
        assert traced_peak(potential_energy, us, ops12, cfg) <= 2.2 * grid_bytes

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
