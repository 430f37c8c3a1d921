"""Named desk-scale configurations used by scripts, tests, and docs.

Each preset is a complete config file, `preset_configs/<name>.cfg`, that
`--config` takes as is; `make` reads it through `config.parse_config`, so
a preset passes the same schema and source checks as any user config.
Each file's sha256 is the config hash that every run made from it
records, so a preset's notes live here, not in its file.

- general: driven, damped, non-conservative: the workhorse configuration.
  Starting from the Newton equilibrium keeps the high-mode transient out
  of the energy-identity error budget.
- conservative: undamped linear plate: exact discrete energy conservation
  over 100+ periods of the slowest mode.
- gradient: gradient case with a supercritical axial load: buckled
  equilibria.
- point: gradient case whose only equilibrium is the origin: point
  attractor.
- periodic: conservative single mode: an exactly periodic orbit.
- chaotic: moderate flow, weak two-term damping, cubic source: sustained
  oscillations (exploratory demonstration, not a reported regime).
"""

from __future__ import annotations

from pathlib import Path

from .config import parse_config

_DIR = Path(__file__).with_name("preset_configs")


def preset_names() -> list[str]:
    return sorted(p.stem for p in _DIR.glob("*.cfg"))


def _path(name: str) -> Path:
    if name not in preset_names():
        raise KeyError(f"unknown preset {name!r}; choices: {preset_names()}")
    return _DIR / f"{name}.cfg"


def make(name: str):
    """(cfg, (Mx, Ny), oversample, plan, initial) for a named preset."""
    p = parse_config(_path(name))
    return p.cfg, (p.mx, p.ny), p.oversample, p.plan, p.initial


def config_text(name: str) -> str:
    """A preset's CLI config file, as text."""
    return _path(name).read_text(encoding="utf-8")
