"""Energy functionals, the positive/remainder split, and identity checks.

Total energy along the flow:

    Etot = 1/2 (||u||_{2,*}^2 + ||v||_0^2) + Pi(u),
    Pi(u) = kappa/2 ||u^+||^2 - alpha/2 ||u_x||^2 + delta/4 ||u_x||^4
            + int F0~(u).

The split Pi = Pi0 + Pi1 takes Pi1(u) = -c ||u||_0^2 - (b |Omega| + pad)
with (c, b) from the source certificate and |Omega| the area of `ops.dom`,
the domain of the grid every norm and quadrature here integrates on;
`PlateConfig.dom` is only the domain a caller builds operators on.  The
additive pad is alpha^2 / delta when delta > 0 (the choice that provably
keeps Pi0 >= 0 by absorbing the negative alpha term into the quartic),
alpha^2 / 4 otherwise; `split_potential` asserts nonnegativity at runtime.

The positive energy is E = kinetic + bending + Pi0, and the balance
that trajectories are audited against is

    Etot(t) + int_s^t g(||u_t||) ||u_t||^2  =  Etot(s) - beta int_s^t (u_y, u_t).

`_columns` (kinetic, bending, Pi) and `rates` (the damping rate and the
flux) define each quantity of the ledger once; `build_ledger` joins them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .discretization import DiscreteOperators, bilinear_form
from .model import PlateConfig, SourceCertificate, damping_gains, in_row_blocks, nodal_load


class EnergyError(ValueError):
    row = None      # the first failing row of a checked stack, where one is known


@dataclass
class EnergyLedger:
    """Column-aligned per-snapshot energy bookkeeping, one row per snapshot.
    Its fields, in order, are the columns of ledger.csv."""

    t: np.ndarray
    kinetic: np.ndarray
    bending: np.ndarray
    Pi: np.ndarray
    Pi0: np.ndarray
    Pi1: np.ndarray
    E: np.ndarray
    Etot: np.ndarray
    damping_integral: np.ndarray
    flux_integral: np.ndarray
    identity_residual: np.ndarray

    def rows(self):
        for i in range(len(self.t)):
            yield tuple(getattr(self, c)[i] for c in LEDGER_COLUMNS)


LEDGER_COLUMNS = tuple(f.name for f in fields(EnergyLedger))


def potential_split_pad(cfg: PlateConfig) -> float:
    """Additive constant of the Pi1 offset."""
    if cfg.alpha == 0.0:
        return 0.0
    if cfg.delta > 0.0:
        return cfg.alpha ** 2 / cfg.delta
    # delta = 0: nonnegativity of Pi0 is not guaranteed
    return cfg.alpha ** 2 / 4.0


def potential_energy(u, ops: DiscreteOperators, cfg: PlateConfig):
    """Pi(u) of one state (n,), or per row of a snapshot stack (m, n); the
    source integral uses the analytic antiderivative at nodes."""
    ux_sq = ops.ux_norm_sq(u)
    out = -0.5 * cfg.alpha * ux_sq + 0.25 * cfg.delta * ux_sq ** 2
    nodal = nodal_load(u, ops, cfg, order=-1)
    if nodal is not None:
        out = out + ops.grid.integrate(nodal)
    return out


def split_potential(u, ops: DiscreteOperators, cfg: PlateConfig,
                    cert: SourceCertificate):
    """(Pi0, Pi1) with Pi0 + Pi1 = Pi exactly and Pi0 >= 0 asserted.

    Takes one state or a snapshot stack, like `potential_energy`.
    Raises EnergyError when Pi0 comes out negative beyond roundoff: the
    certified (c, b) need refitting with larger constants, or, with delta
    = 0 < alpha, ||u_x||^2 exceeds alpha/2.
    """
    return split_from_potential(potential_energy(u, ops, cfg), ops.l2_norm_sq(u), ops, cfg, cert)


def split_from_potential(pi, u_sq, ops: DiscreteOperators, cfg: PlateConfig,
                         cert: SourceCertificate):
    """`split_potential` for Pi and ||u||_0^2 already evaluated at u; checks
    every row, and an EnergyError's `row` is the first that fails."""
    pad = potential_split_pad(cfg)
    pi1 = -cert.c * u_sq - (cert.b * ops.dom.area + pad)
    pi0 = pi - pi1
    bad = np.flatnonzero(pi0 < -1e-9 * (1.0 + np.abs(pi)))
    if bad.size:
        exc = EnergyError(f"Pi0 = {np.min(pi0):.6g} < 0: " + (
            "with delta = 0 the pad alpha^2/4 bounds -alpha/2 ||u_x||^2 only while "
            "||u_x||^2 <= alpha/2; take delta > 0" if cfg.delta == 0.0 and cfg.alpha > 0.0 else
            f"certified (c, b) = ({cert.c}, {cert.b}) are insufficient; refit the "
            "source certificate with larger constants"))
        exc.row = int(bad[0])
        raise exc
    return pi0, pi1


def _columns(u, v, ops: DiscreteOperators, cfg: PlateConfig):
    """(kinetic, bending, Pi, ||u||_0^2) of a state or per row of stacks u, v."""
    return (0.5 * ops.l2_norm_sq(v), 0.5 * ops.bending_norm_sq(u),
            potential_energy(u, ops, cfg), ops.l2_norm_sq(u))


def total_energy(u, v, ops: DiscreteOperators, cfg: PlateConfig,
                 cert: SourceCertificate):
    """(E, Etot): positive energy and total energy of a state or a stack."""
    kin, bend, pi, u_sq = _columns(u, v, ops, cfg)
    pi0, pi1 = split_from_potential(pi, u_sq, ops, cfg, cert)
    E = kin + bend + pi0
    return E, E + pi1


def rates(u, v, ops: DiscreteOperators, cfg: PlateConfig):
    """(g(||v||_0) ||v||_0^2, (u_y, v)) per row of stacks u, v: the damping
    rate and the flux, the integrands of the energy identity at u_t = v."""
    sp2 = ops.l2_norm_sq(v)
    return damping_gains(np.sqrt(sp2), cfg) * sp2, bilinear_form(ops.dy_blocks, u, v)


def build_ledger(times, us, vs, damp, flux, ops: DiscreteOperators, cfg: PlateConfig,
                 cert: SourceCertificate) -> EnergyLedger:
    """The energy ledger of one member's snapshots, given the time integrals
    of its damping rate and of -beta times its flux.  Raises EnergyError
    at its first bad snapshot, the error's `row`: the first with a
    non-finite entry, or an earlier one whose Pi0 is negative beyond
    roundoff."""
    def finite_rows(x):     # the rows before the first non-finite one
        return int(np.argmin(np.isfinite(np.append(x, np.inf))))

    kin, bend, pi, u_sq = in_row_blocks(ops, lambda u, v: _columns(u, v, ops, cfg), us, vs)
    # a non-finite entry makes its row's sum non-finite; the split checks the rows before it
    end = finite_rows(kin + bend + pi + u_sq + damp + flux)
    pi0, pi1 = split_from_potential(pi[:end], u_sq[:end], ops, cfg, cert)
    if end == len(times):
        E = kin + bend + pi0
        Etot = E + pi1
        residual = (Etot - Etot[0]) + (damp - damp[0]) - (flux - flux[0])
        end = finite_rows(residual)     # every entry of its row and of row 0 feeds it
    if end < len(times):
        exc = EnergyError("an entry is not finite")
        exc.row = end
        raise exc
    return EnergyLedger(t=times, kinetic=kin, bending=bend, Pi=pi, Pi0=pi0, Pi1=pi1,
                        E=E, Etot=Etot, damping_integral=damp, flux_integral=flux,
                        identity_residual=residual)


def poincare_ratio(u, ops: DiscreteOperators) -> float:
    """||u||_0^2 / ||u_x||_0^2; must stay below pi^2 on the whole space."""
    u = np.asarray(u, dtype=float)
    den = float(ops.ux_norm_sq(u))
    if den <= 0.0:
        raise EnergyError("u has vanishing x-derivative (only u = 0 allows this)")
    ratio = ops.l2_norm_sq(u) / den
    if ratio > np.pi ** 2:
        raise EnergyError(f"Poincare ratio {ratio:.6g} exceeds pi^2")
    return ratio


# ---------------------------------------------------------------------------
# sandwich constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SandwichConstants:
    """Certified constants: |Pi1(u)| <= eta_tilde [a(u,u) + Pi0(u)] + C.

    Derived route A uses the embedding ||u||_0^2 <= lambda a(u, u); route
    B (delta > 0) goes through Poincare and the quartic lower bound of
    Pi0.  Whichever route yields the smaller constant wins.  With
    eta_tilde <= 1/2 this gives the energy sandwich
        1/2 E - C <= Etot <= 2 E + C.
    """

    eta_tilde: float
    C: float


def sandwich_constants(ops: DiscreteOperators, cfg: PlateConfig,
                       cert: SourceCertificate, eta_tilde: float = 0.25) -> SandwichConstants:
    pad = potential_split_pad(cfg)
    K_pad = cert.b * ops.dom.area + pad
    lam = 1.0 / ops.lambda_min
    candidates = []
    if cert.c == 0.0 or cert.c * lam <= eta_tilde:
        # c ||u||^2 <= c lam a(u,u) <= eta~ a(u,u) directly
        candidates.append(K_pad)
    if cert.c > 0.0 and cfg.delta > 0.0:
        # c ||u||^2 <= c pi^2 ||u_x||^2 <= eta~ Pi0 + 2 c^2 pi^4 / (eta~ delta),
        # using ||u_x||^4 <= (8/delta) Pi0 from the quartic lower bound
        candidates.append(K_pad + 2.0 * (cert.c * np.pi ** 2) ** 2 / (eta_tilde * cfg.delta))
    if not candidates:
        raise EnergyError(
            "no analytic sandwich certificate: source constant c is too large "
            "for the embedding route and delta = 0 blocks the quartic route")
    return SandwichConstants(eta_tilde=eta_tilde, C=min(candidates))

