"""Strict key/value config parsing for the CLI.

`SCHEMA` lists every section and key a config may hold, with its
converter, default (read from the plan class or function that owns it),
one-line doc (docs/config.md is checked against it) and range check.
`parse_config` rejects unknown entries, converts and checks every key,
builds the source, domain and run plans, whose constructors hold the
rules that span keys, and reports all problems at once, each under its
section, in one ConfigError, before a command writes any output.  The
physical parameters (alpha, delta, beta, kappa, damping, source) carry
no silent defaults: a config must state them.
"""

from __future__ import annotations

import configparser
import inspect
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .attractor_lab import (ExperimentError, SweepPlan, correlation_dimension,
                            stationary_convergence)
from .discretization import DiscretizationError, DomainSpec
from .integrator import SimPlan
from .model import ModelError, PlateConfig, SourceCertificate, SourceSpec, certify_source


class ConfigError(ValueError):
    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("config invalid:\n  - " + "\n  - ".join(self.problems))


class Key(NamedTuple):
    conv: Callable[[str], Any]
    default: Any            # None: no default, the key is read only when stated
    doc: str
    check: tuple | None = None  # (predicate, "must be ...") on the converted value
    required: bool = False  # missing is a problem; the default lets parsing go on


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _tuple_of(conv):
    return lambda raw: tuple(conv(tok) for tok in raw.split())


def _boolean(raw: str) -> bool:
    return raw.strip().lower() in ("1", "true", "yes", "on")


_INITIAL_ARGS = {"mode": (int, int, _finite), "random": (_finite,), "stationary_kick": (_finite,)}


def _parse_initial(spec: str) -> tuple:
    kind, *args = spec.split()
    if kind not in _INITIAL_ARGS:
        raise ValueError(f"unknown initial-condition tag {kind!r}")
    if len(args) != len(convs := _INITIAL_ARGS[kind]):
        raise ValueError(f"{kind} takes {len(convs)} value(s), got {len(args)}")
    return (kind, *(conv(a) for conv, a in zip(convs, args)))


_COUNT = (lambda x: x >= 1, "must be >= 1")
_NONNEG = (lambda x: x >= 0, "must be >= 0")
_POSITIVE = (lambda x: x > 0, "must be > 0")
_FRACTION = (lambda x: 0.0 < x < 1.0, "must lie in (0, 1)")
_PORTION = (lambda x: 0.0 < x <= 1.0, "must lie in (0, 1]")
_INITIAL = (lambda s: s[0] == "mode" or s[-1] >= 0, "radius or kick must be >= 0")
_RADII = (lambda r: min(r, default=-1) >= 0 and list(r) == sorted(r),
          "must be one or more nonnegative, increasing radii")
_DIMS = (lambda d: min(d, default=0) >= 1, "must be one or more integers >= 1")

# the analysis functions own the [dimension] and [stationary] defaults
_dim, _stat = ({k: p.default for k, p in inspect.signature(f).parameters.items()}
               for f in (correlation_dimension, stationary_convergence))

SCHEMA: dict[str, dict[str, Key]] = {
    "domain": {
        "l": Key(_finite, DomainSpec.l, "half-width of the strip in y, l > 0"),
        "sigma": Key(_finite, DomainSpec.sigma, "Poisson ratio, 0 < sigma < 1/2"),
    },
    "plate": {
        "alpha": Key(_finite, PlateConfig.alpha, "axial prestress (any sign)", required=True),
        "delta": Key(_finite, PlateConfig.delta, "stretching stiffness, >= 0", _NONNEG,
                     required=True),
        "beta": Key(_finite, PlateConfig.beta, "flow parameter (any sign)", required=True),
        "kappa": Key(_finite, PlateConfig.kappa, "stay coefficient, >= 0", _NONNEG,
                     required=True),
        "damping": Key(_tuple_of(_finite), PlateConfig.damping_coeffs, "b_0 ... b_q",
                       (lambda b: len(b) >= 2 and min(b) >= 0,
                        "must be two or more coefficients, each >= 0"), required=True),
        "source": Key(str, SourceSpec.kind, "zero, cubic_minus_load or custom",
                      required=True),
        "load": Key(_finite, None, "cubic_minus_load only: f0(s) = s^3 - load"),
        "source_table_s": Key(_tuple_of(_finite), None, "custom only: spline knots"),
        "source_table_f": Key(_tuple_of(_finite), None, "custom only: spline values"),
        "allow_undamped": Key(_boolean, False, "allow all-zero damping (controls)"),
    },
    "basis": {
        "mx": Key(int, 8, "x modes", _COUNT),
        "ny": Key(int, 8, "y modes", _COUNT),
        "oversample": Key(int, 3, "quadrature oversampling",
                          (lambda x: x >= 2, "must be >= 2")),
    },
    "sim": {
        "dt": Key(_finite, SimPlan.dt, "time step", _POSITIVE),
        "t": Key(_finite, SimPlan.T, "horizon", _NONNEG),
        "snapshot_every": Key(int, SimPlan.snapshot_every, "steps per snapshot", _COUNT),
        "fp_tol": Key(_finite, SimPlan.fp_tol, "fixed-point tolerance", _POSITIVE),
        "fp_maxiter": Key(int, SimPlan.fp_maxiter, "fixed-point iteration cap", _COUNT),
        "seed": Key(int, SimPlan.seed, "random seed; --seed overrides it", _NONNEG),
        "initial": Key(_parse_initial, ("mode", 1, 0, 0.5), "initial condition", _INITIAL),
    },
    "sweep": {
        "radii": Key(_tuple_of(_finite), SweepPlan.radii, "initial radii", _RADII),
        "samples_per_radius": Key(int, SweepPlan.samples_per_radius, "samples", _COUNT),
        "t": Key(_finite, SweepPlan.T, "horizon per sample", _NONNEG),
        "dt": Key(_finite, SweepPlan.dt, "time step", _POSITIVE),
        "snapshot_every": Key(int, SweepPlan.snapshot_every, "steps per snapshot", _COUNT),
        "tail_fraction": Key(_finite, SweepPlan.tail_fraction, "ultimate part of [0, T]",
                             _FRACTION),
    },
    "pairs": {
        "n_pairs": Key(int, 5, "number of pairs", _COUNT),
        "gap": Key(_finite, 1e-3, "phase-space distance of each pair", _POSITIVE),
        "radius": Key(_finite, 1.0, "norm of the base state", _NONNEG),
        "t": Key(_finite, 40.0, "horizon", _NONNEG),
        "dt": Key(_finite, 2e-3, "time step", _POSITIVE),
        "snapshot_every": Key(int, 5, "steps per snapshot", _COUNT),
    },
    "dimension": {
        "embed_dims": Key(_tuple_of(int), _dim["embed_dims"], "embedding dimensions", _DIMS),
        "theiler": Key(int, _dim["theiler"], "snapshot gap excluded from pair counts",
                       _NONNEG),
        "min_points": Key(int, _dim["min_points"], "minimum tail snapshots"),
        "tail_fraction": Key(_finite, _dim["tail_fraction"], "portion of the [sim] run analysed",
                              _PORTION),
    },
    "stationary": {
        "samples": Key(int, _stat["samples"], "number of trajectories", _COUNT),
        "radius": Key(_finite, _stat["radius"], "norm of the random initial states", _NONNEG),
        "t": Key(_finite, 60.0, "horizon", _NONNEG),
        "dt": Key(_finite, 2e-3, "time step", _POSITIVE),
        "snapshot_every": Key(int, 25, "steps per snapshot", _COUNT),
        "speed_tol": Key(_finite, _stat["speed_tol"], "bound on the final velocity norm",
                         _POSITIVE),
        "dist_tol": Key(_finite, _stat["dist_tol"], "bound on the distance to the equilibrium",
                        _POSITIVE),
    },
    "barrier": {
        "t": Key(_finite, 20.0, "horizon of the fitting trajectory", _NONNEG),
        "dt": Key(_finite, 2e-3, "time step of that trajectory", _POSITIVE),
        "snapshot_every": Key(int, 5, "steps per snapshot", _COUNT),
        "levels": Key(_tuple_of(_finite), (1.0, 10.0, 100.0),
                      "initial levels of the ultimate bound",
                      (lambda ls: min(ls, default=0) >= 0, "must all be >= 0")),
    },
}


@dataclass
class ParsedConfig:
    cfg: PlateConfig
    plan: SimPlan                                  # the [sim] run
    plans: dict                                    # experiment section -> its plan
    initial: tuple
    mx: int
    ny: int
    oversample: int
    cert: SourceCertificate                        # of cfg's source, certified
    sections: dict = field(default_factory=dict)   # section -> key -> raw string
    text: str = ""
    values: dict = field(default_factory=dict)     # section -> key -> typed value


def parse_config(path: str | Path, seed_override: int | None = None) -> ParsedConfig:
    """Parse and validate a config file; raises ConfigError listing all problems."""
    path = Path(path)
    problems: list[str] = []
    if not path.is_file():
        raise ConfigError([f"config file not found: {path}"])
    text = path.read_text(encoding="utf-8")

    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), strict=True)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"malformed config: {exc}"]) from exc

    problems += [f"unknown section [{s}]" for s in cp.sections() if s not in SCHEMA]
    if seed_override is not None and seed_override < 0:
        problems.append(f"--seed must be >= 0, got {seed_override}")
    if not cp.has_section("plate"):
        problems.append("missing required section [plate]")
    values = {}    # a missing or bad key takes its default, so later checks still run
    for section, keys in SCHEMA.items():
        stated = cp[section] if cp.has_section(section) else {}
        problems += [f"unknown key {k!r} in [{section}]" for k in stated if k not in keys]
        values[section] = out = {}
        for key, row in keys.items():
            out[key] = row.default
            if key not in stated:
                if row.required:
                    problems.append(f"[{section}] missing required key {key!r} "
                                    "(physical parameters have no silent defaults)")
                continue
            raw = stated[key]
            try:
                value = row.conv(raw)
            except (TypeError, ValueError, IndexError) as exc:
                problems.append(f"[{section}] {key} = {raw!r}: {exc}")
                continue
            if row.check and not row.check[0](value):
                problems.append(f"[{section}] {key} {row.check[1]}, got {value}")
                continue
            out[key] = value

    plate = values["plate"]
    if plate["source"] == "cubic_minus_load" and not cp.has_option("plate", "load"):
        problems.append("[plate] source = cubic_minus_load requires `load`")
    if sum(plate["damping"]) == 0.0 and not plate["allow_undamped"]:
        problems.append("[plate] damping coefficients are all zero (the damping gain must "
                        "satisfy b_0 + b_q > 0; set allow_undamped for control experiments)")
    try:
        source = SourceSpec(kind=plate["source"], load=plate["load"] or 0.0,
                            table_s=plate["source_table_s"] or (),
                            table_f=plate["source_table_f"] or ())
    except ModelError as exc:
        problems.append(f"[plate] {exc}")
        source = SourceSpec()
    try:
        dom = DomainSpec(**values["domain"])
    except DiscretizationError as exc:
        problems.append(f"[domain] {exc}")
        dom = DomainSpec()
    cfg = PlateConfig(alpha=plate["alpha"], delta=plate["delta"], beta=plate["beta"],
                      kappa=plate["kappa"], damping_coeffs=plate["damping"],
                      source=source, dom=dom)

    sim, basis = values["sim"], values["basis"]
    if sim["initial"][0] == "mode":
        _, m, k, _ = sim["initial"]
        if not (1 <= m <= basis["mx"] and 0 <= k < basis["ny"]):
            problems.append(f"[sim] initial mode ({m}, {k}) lies outside the "
                            f"{basis['mx']} x {basis['ny']} basis")

    def plan_of(section, kind=SimPlan, own_keys=()):
        """Every run takes [sim]'s solver keys and seed, and its section's time plan."""
        own = values[section]
        try:
            return kind(T=own["t"], dt=own["dt"], snapshot_every=own["snapshot_every"],
                        fp_tol=sim["fp_tol"], fp_maxiter=sim["fp_maxiter"],
                        seed=sim["seed"] if seed_override is None else seed_override,
                        **{key: own[key] for key in own_keys})
        except (ValueError, ExperimentError) as exc:
            problems.append(f"[{section}] {exc}")

    plans = {"sim": plan_of("sim"),
             "sweep": plan_of("sweep", SweepPlan, own_keys=("radii", "samples_per_radius",
                                                            "tail_fraction")),
             "pairs": plan_of("pairs"), "stationary": plan_of("stationary"),
             "barrier": plan_of("barrier")}

    # runtime validation of the source assumption; the certificate goes
    # into the manifest of every run
    if not problems:
        cert = certify_source(cfg)
        if not cert.ok:
            problems.append(f"[plate] source violates the dissipativity bound: "
                            f"{cert.message} (witness s = {cert.witness})")
    if problems:
        raise ConfigError(problems)

    return ParsedConfig(cfg=cfg, plan=plans.pop("sim"), plans=plans, initial=sim["initial"],
                        mx=basis["mx"], ny=basis["ny"], oversample=basis["oversample"],
                        cert=cert, sections={name: dict(cp[name]) for name in cp.sections()},
                        text=text, values=values)


def section_get(sections: dict, name: str, key: str, conv, default):
    """Convert one raw value of ParsedConfig.sections, or return default."""
    raw = sections.get(name, {}).get(key)
    return default if raw is None else conv(raw)
