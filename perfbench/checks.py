"""Output checks of the benchmark workloads.

Each check recomputes what it tests from the program's outputs with its own
formulas (analytic Grams, its own basis evaluation and projection, its own
barrier equation) or tests a property the method must have.  None compares
against recorded output.  Every check returns a `Check`; `ok` is False when
the output is wrong.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.polynomial import legendre as npleg


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def _legendre_norms(ny: int, l: float) -> np.ndarray:
    """int_{-l}^{l} P_k(y/l)^2 dy = 2 l / (2k + 1)."""
    return 2.0 * l / (2.0 * np.arange(ny) + 1.0)


# ---------------------------------------------------------------------------
# refine-16: operators, equilibrium, energy ledger
# ---------------------------------------------------------------------------

def mass_diagonal(M: np.ndarray, mx: int, ny: int, l: float) -> Check:
    """M is the analytic diagonal (pi/2) * 2l/(2k+1) of the sine-Legendre basis."""
    expected = np.kron(np.full(mx, 0.5 * np.pi), _legendre_norms(ny, l))
    err = float(np.max(np.abs(M - np.diag(expected))))
    return Check("mass_matrix_analytic", err <= 1e-12 * float(expected.max()),
                 f"max |M - diag| = {err:.3e}")


def sine_blocks(mats: dict, mx: int, ny: int) -> Check:
    """Entries coupling different sine indices m != m' vanish."""
    off = np.ones((mx, mx), dtype=bool)
    np.fill_diagonal(off, False)
    worst = {}
    for name, A in mats.items():
        blocks = np.abs(A).reshape(mx, ny, mx, ny).transpose(0, 2, 1, 3)
        worst[name] = float(blocks[off].max()) / float(np.abs(A).max())
    return Check("operators_block_diagonal", max(worst.values()) <= 1e-12,
                 "off-block / max: " + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def analytic_gx(mx: int, ny: int, l: float) -> np.ndarray:
    """(d_x phi_i, d_x phi_j) = m^2 (pi/2) 2l/(2k+1) on the diagonal."""
    m = np.arange(1, mx + 1, dtype=float)
    return np.diag(np.kron(0.5 * np.pi * m * m, _legendre_norms(ny, l)))


def analytic_dy(mx: int, ny: int) -> np.ndarray:
    """(d_y phi_(m,k), phi_(m,j)) = (pi/2) * 2 when j < k and k - j is odd."""
    k = np.arange(ny)[:, None]
    j = np.arange(ny)[None, :]
    y = np.where((j < k) & ((k - j) % 2 == 1), 2.0, 0.0)
    return np.kron(np.eye(mx) * 0.5 * np.pi, y)


def plate_load(u: np.ndarray, mx: int, ny: int, l: float, x_nodes, x_weights,
               y_nodes, y_weights, delta: float, beta: float, kappa: float,
               load: float) -> np.ndarray:
    """Tested load F(u) of the `general` physics (alpha = 0, f0(s) = s^3 - load).

    The basis is evaluated here at the discretisation's quadrature nodes, and
    the Berger and flow terms use the analytic Grams.
    """
    gx = analytic_gx(mx, ny, l)
    ms = np.arange(1, mx + 1)[:, None]
    sx = np.sin(ms * np.asarray(x_nodes)[None, :])
    ly = np.stack([npleg.legval(np.asarray(y_nodes) / l, np.eye(ny)[k])
                   for k in range(ny)])
    vals = sx.T @ u.reshape(mx, ny) @ ly
    nodal = kappa * np.maximum(vals, 0.0) + vals ** 3 - load
    pointwise = ((sx * x_weights) @ nodal @ (ly * y_weights).T).ravel()
    gxu = gx @ u
    return -delta * float(u @ gxu) * gxu - pointwise - beta * (analytic_dy(mx, ny).T @ u)


def equilibrium(u: np.ndarray, K: np.ndarray, load_of_u: np.ndarray) -> Check:
    """The Newton state solves K u = F(u) to 1e-10 (relative to max(1, |K u|))."""
    ku = K @ u
    res = float(np.linalg.norm(ku - load_of_u))
    scale = max(1.0, float(np.linalg.norm(ku)))
    return Check("equilibrium_residual", res <= 1e-10 * scale,
                 f"|K u - F(u)| = {res:.3e} (scale {scale:.3g})")


ENERGY_IDENTITY_C = 10.0


def energy_identity(t, kinetic, bending, Pi, damping, flux, dt: float) -> Check:
    """Etot(t) - Etot(0) + damping - flux stays within C dt^2 T (1 + |Etot(0)|).

    Etot is rebuilt from the kinetic, bending and potential columns; the
    midpoint scheme's defect is O(dt^2) per unit time.
    """
    etot = np.asarray(kinetic) + np.asarray(bending) + np.asarray(Pi)
    res = (etot - etot[0]) + (np.asarray(damping) - damping[0]) \
        - (np.asarray(flux) - flux[0])
    horizon = float(t[-1] - t[0])
    bound = ENERGY_IDENTITY_C * dt * dt * horizon * (1.0 + abs(float(etot[0])))
    worst = float(np.max(np.abs(res)))
    return Check("energy_identity", bool(worst <= bound),
                 f"max |residual| = {worst:.3e}, bound {bound:.3e}")


def finite_states(us: np.ndarray, vs: np.ndarray) -> Check:
    ok = bool(np.all(np.isfinite(us)) and np.all(np.isfinite(vs)))
    return Check("states_finite", ok, f"{len(us)} snapshots")


# ---------------------------------------------------------------------------
# sweep-small: verdict and direct recomputation
# ---------------------------------------------------------------------------

def sweep_verdict(verdict: str, blowups, tail_sups, radius_bounds) -> Check:
    """PASS with no blow-up, each bound the max of its row, spread <= 25%."""
    bounds = [max(row) for row in tail_sups]
    spread = (max(bounds) - min(bounds)) / max(bounds)
    ok = (verdict == "PASS" and not blowups and list(radius_bounds) == bounds
          and spread <= 0.25)
    return Check("sweep_verdict", ok,
                 f"verdict {verdict}, blow-ups {len(blowups)}, spread {spread:.3f}")


def tail_sup(times, us, vs, K, M, tail_fraction: float) -> float:
    """sup of the phase-space norm sqrt(u.K.u + v.M.v) over the tail window."""
    times = np.asarray(times)
    mask = times >= times[-1] * (1.0 - tail_fraction)
    u, v = np.asarray(us)[mask], np.asarray(vs)[mask]
    sq = np.einsum("ij,jk,ik->i", u, K, u) + np.einsum("ij,jk,ik->i", v, M, v)
    return float(np.sqrt(np.max(sq)))


def tail_matches(radius: float, direct: float, swept: float, bound: float) -> Check:
    """A direct run reproduces the sweep's tail sup to 1e-9 and lies under its bound."""
    rel = abs(direct - swept) / abs(swept)
    ok = rel <= 1e-9 and direct <= bound * (1.0 + 1e-12)
    return Check(f"sweep_tail_radius_{radius:g}", ok,
                 f"direct {direct:.12g} vs sweep {swept:.12g} (rel {rel:.1e})")


# ---------------------------------------------------------------------------
# audit-dense: dimension and barrier battery
# ---------------------------------------------------------------------------

def periodic_dimension(estimates) -> Check:
    """A periodic orbit is a closed curve: every estimate within 1 +- 0.2."""
    ok = bool(estimates) and all(abs(e - 1.0) <= 0.2 for e in estimates)
    return Check("periodic_dimension", ok,
                 "estimates " + ", ".join(f"{e:.4f}" for e in estimates))


def bracket_nonpositive(E, eps: float, gamma: float, d3: float,
                        reported_violations: int) -> Check:
    """eps (1 + E)^gamma - d3 <= 0 at every snapshot, and the audit agrees."""
    worst = float(np.max(eps * (1.0 + np.asarray(E)) ** gamma - d3))
    ok = worst <= 0.0 and reported_violations == 0
    return Check("barrier_bracket", ok,
                 f"max bracket {worst:.3e}, reported violations {reported_violations}")


def balancing(gamma: float, b_exponent: float, verdict: str) -> Check:
    """x^(1 - 1/gamma) c x^e -> 0 iff 1 - 1/gamma + e < 0; the check must PASS."""
    power = 1.0 - 1.0 / gamma + b_exponent
    return Check("balancing", power < 0.0 and verdict == "PASS",
                 f"limit power {power:.4f}, verdict {verdict}")


def decay_scale(sigma: float, E: float, bc: dict) -> Check:
    """sigma solves [1 + (C2/C1) E + 2c/C1 + d0 (1 + sigma b(d1 sigma))]^gamma = d3 sigma / 2."""
    b = bc["b_c_eta"] * (bc["d1"] * sigma) ** bc["b_exponent"]
    lhs = (1.0 + bc["C2"] / bc["C1"] * E + 2.0 * bc["c"] / bc["C1"]
           + bc["d0"] * (1.0 + sigma * b)) ** bc["gamma"]
    rhs = 0.5 * bc["d3"] * sigma
    rel = abs(lhs - rhs) / abs(rhs)
    return Check("decay_scale_equation", rel <= 1e-9,
                 f"sigma {sigma:.12g}, relative defect {rel:.1e}")


def ultimate_level(levels: dict) -> Check:
    """V* does not depend on the initial level R (1e-9 relative)."""
    vals = list(levels.values())
    rel = (max(vals) - min(vals)) / abs(vals[0])
    return Check("ultimate_level_independent", rel <= 1e-9,
                 f"V* over R = {sorted(levels)}: relative spread {rel:.1e}")

