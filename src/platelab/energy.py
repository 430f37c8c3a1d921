"""Energy functionals, the positive/remainder split, and identity checks.

Total energy along the flow:

    Etot = 1/2 (||u||_{2,*}^2 + ||v||_0^2) + Pi(u),
    Pi(u) = kappa/2 ||u^+||^2 - alpha/2 ||u_x||^2 + delta/4 ||u_x||^4
            + int F0~(u).

The split Pi = Pi0 + Pi1 takes Pi1(u) = -c ||u||_0^2 - (b |Omega| + pad)
with (c, b) from the source certificate.  The additive pad is alpha^2 /
delta when delta > 0 (the choice that provably keeps Pi0 >= 0 by
absorbing the negative alpha term into the quartic), alpha^2 / 4
otherwise; `split_potential` asserts nonnegativity at runtime.

The positive energy is E = kinetic + bending + Pi0, and the balance
that trajectories are audited against is

    Etot(t) + int_s^t g(||u_t||) ||u_t||^2  =  Etot(s) - beta int_s^t (u_y, u_t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import DiscreteOperators
from .model import PlateConfig, SourceCertificate, nodal_load


class EnergyError(ValueError):
    pass


LEDGER_COLUMNS = ("t", "kinetic", "bending", "Pi", "Pi0", "Pi1", "E", "Etot",
                  "damping_integral", "flux_integral", "identity_residual")


@dataclass
class EnergyLedger:
    """Column-aligned per-snapshot energy bookkeeping, one row per snapshot."""

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

    def __len__(self):
        return len(self.t)

    def rows(self):
        for i in range(len(self.t)):
            yield tuple(getattr(self, c)[i] for c in LEDGER_COLUMNS)


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
    Raises EnergyError when Pi0 comes out negative beyond roundoff,
    which signals that the certified (c, b) are insufficient and need
    refitting with larger constants.
    """
    return split_from_potential(potential_energy(u, ops, cfg), ops.l2_norm_sq(u), cfg, cert)


def split_from_potential(pi, u_sq, cfg: PlateConfig, cert: SourceCertificate):
    """`split_potential` for Pi and ||u||_0^2 already evaluated at u; checks
    every row."""
    pad = potential_split_pad(cfg)
    pi1 = -cert.c * u_sq - (cert.b * cfg.dom.area + pad)
    pi0 = pi - pi1
    if np.any(pi0 < -1e-9 * (1.0 + np.abs(pi))):
        raise EnergyError(
            f"Pi0 = {np.min(pi0):.6g} < 0: certified (c, b) = ({cert.c}, {cert.b}) "
            "are insufficient; refit the source certificate with larger constants")
    return pi0, pi1


def total_energy(u, v, ops: DiscreteOperators, cfg: PlateConfig,
                 cert: SourceCertificate):
    """(E, Etot): positive energy and total energy of a state or a stack."""
    kin = 0.5 * ops.l2_norm_sq(v)
    bend = 0.5 * ops.bending_norm_sq(u)
    pi0, pi1 = split_potential(u, ops, cfg, cert)
    E = kin + bend + pi0
    return E, E + pi1


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
    K_pad = cert.b * cfg.dom.area + pad
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

