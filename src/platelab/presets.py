"""Named desk-scale configurations used by scripts, tests, and docs.

Each preset bundles the physical parameters, basis size, simulation
plan, and initial condition.  `config_text` renders a preset as a
config file for the CLI.
"""

from __future__ import annotations

from .integrator import SimPlan
from .model import PlateConfig, SourceSpec


_CUBIC = SourceSpec(kind="cubic_minus_load", load=1.0)

PRESETS: dict[str, dict] = {
    # driven, damped, non-conservative: the workhorse configuration.
    # Starting from the Newton equilibrium keeps the high-mode transient
    # out of the energy-identity error budget.
    "general": dict(
        cfg=PlateConfig(alpha=0.0, delta=1.0, beta=1.0, kappa=2.0,
                        damping_coeffs=(0.5, 0.0, 1.0), source=_CUBIC),
        basis=(8, 8), oversample=3,
        plan=SimPlan(dt=1e-3, T=5.0, snapshot_every=1, seed=1234),
        initial=("stationary_kick", 0.2),
    ),
    # undamped linear plate: exact discrete energy conservation over
    # 100+ periods of the slowest mode
    "conservative": dict(
        cfg=PlateConfig(alpha=0.0, delta=0.0, beta=0.0, kappa=0.0,
                        damping_coeffs=(0.0, 0.0)),
        basis=(2, 2), oversample=3,
        plan=SimPlan(dt=0.05, T=680.0, snapshot_every=50, seed=7),
        initial=("mode", 1, 0, 1.0),
    ),
    # gradient case with a supercritical axial load: buckled equilibria
    "gradient": dict(
        cfg=PlateConfig(alpha=3.0, delta=1.0, beta=0.0, kappa=0.0,
                        damping_coeffs=(1.0, 0.0)),
        basis=(4, 3), oversample=3,
        plan=SimPlan(dt=2e-3, T=60.0, snapshot_every=25, seed=42),
        initial=("random", 2.0),
    ),
    # gradient case whose only equilibrium is the origin: point attractor
    "point": dict(
        cfg=PlateConfig(alpha=0.0, delta=1.0, beta=0.0, kappa=2.0,
                        damping_coeffs=(1.0, 0.0)),
        basis=(3, 2), oversample=3,
        plan=SimPlan(dt=2e-3, T=240.0, snapshot_every=25, seed=5),
        initial=("random", 1.5),
    ),
    # conservative single mode: an exactly periodic orbit
    "periodic": dict(
        cfg=PlateConfig(alpha=0.0, delta=0.0, beta=0.0, kappa=0.0,
                        damping_coeffs=(0.0, 0.0)),
        basis=(3, 2), oversample=3,
        plan=SimPlan(dt=0.01, T=130.0, snapshot_every=3, seed=3),
        initial=("mode", 1, 0, 1.0),
    ),
    # moderate flow, weak two-term damping, cubic source: sustained
    # oscillations (exploratory demonstration, not a reported regime)
    "chaotic": dict(
        cfg=PlateConfig(alpha=1.0, delta=1.0, beta=2.5, kappa=1.0,
                        damping_coeffs=(0.05, 0.0, 0.1), source=_CUBIC),
        basis=(4, 3), oversample=3,
        plan=SimPlan(dt=2e-3, T=260.0, snapshot_every=25, seed=11),
        initial=("mode", 1, 0, 0.5),
    ),
}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def make(name: str):
    """(cfg, (Mx, Ny), oversample, plan, initial) for a named preset."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; choices: {preset_names()}")
    p = PRESETS[name]
    return p["cfg"], p["basis"], p["oversample"], p["plan"], p["initial"]


def config_text(name: str) -> str:
    """Render a preset as a CLI config file."""
    cfg, (mx, ny), oversample, plan, initial = make(name)
    lines = [
        f"# platelab preset: {name}",
        "[domain]",
        f"l = {cfg.dom.l!r}",
        f"sigma = {cfg.dom.sigma!r}",
        "",
        "[plate]",
        f"alpha = {cfg.alpha!r}",
        f"delta = {cfg.delta!r}",
        f"beta = {cfg.beta!r}",
        f"kappa = {cfg.kappa!r}",
        "damping = " + " ".join(repr(b) for b in cfg.damping_coeffs),
    ]
    if cfg.source.kind == "zero":
        lines.append("source = zero")
    elif cfg.source.kind == "cubic_minus_load":
        lines.append("source = cubic_minus_load")
        lines.append(f"load = {cfg.source.load!r}")
    if sum(cfg.damping_coeffs) == 0.0:
        lines.append("allow_undamped = true")
    lines += [
        "",
        "[basis]",
        f"mx = {mx}",
        f"ny = {ny}",
        f"oversample = {oversample}",
        "",
        "[sim]",
        f"dt = {plan.dt!r}",
        f"T = {plan.T!r}",
        f"snapshot_every = {plan.snapshot_every}",
        f"fp_tol = {plan.fp_tol!r}",
        f"fp_maxiter = {plan.fp_maxiter}",
        f"seed = {plan.seed}",
        "initial = " + " ".join(str(x) for x in initial),
        "",
    ]
    return "\n".join(lines)
