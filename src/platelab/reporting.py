"""Deterministic output: CSV, JSON, SVG plots, manifests, trajectory files.

Every float is rendered with 17 significant digits so re-running with an
unchanged config reproduces byte-identical files.  Each emitted file
references the config hash.  Wall-clock timestamps are confined to
run.log, which keeps all CSV/JSON outputs reproducible.
"""

from __future__ import annotations

import hashlib
import math
import sys
from pathlib import Path

import numpy as np


def fmt_float(x: float) -> str:
    """17-significant-digit, locale-independent float rendering."""
    xf = float(x)
    if math.isnan(xf):
        return "nan"
    if math.isinf(xf):
        return "inf" if xf > 0 else "-inf"
    return format(xf, ".17g")


def _json_encode(obj, level: int) -> str:
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return f'"{fmt_float(x)}"'
        return fmt_float(x)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind == "f":     # the float items in one pass
            return _json_list([format(x, ".17g") if math.isfinite(x) else f'"{fmt_float(x)}"'
                               for x in obj.tolist()], level)
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return _json_list([_json_encode(v, level + 1) for v in obj], level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad_in}"{k}": ' + _json_encode(v, level + 1)
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialise {type(obj)!r}")


def _json_list(items: list, level: int) -> str:
    """A list of encoded items: on one line when they are few and short."""
    if not items:
        return "[]"
    if all(len(s) < 24 and "\n" not in s for s in items) and len(items) <= 12:
        return "[" + ", ".join(items) + "]"
    pad = "  " * level
    return "[\n" + ",\n".join(pad + "  " + s for s in items) + "\n" + pad + "]"


def to_json(obj) -> str:
    """Pretty JSON (indent 2) with stable (insertion) key order and fixed float format."""
    return _json_encode(obj, 0) + "\n"


def write_json(path: Path, obj) -> None:
    Path(path).write_text(to_json(obj), encoding="utf-8")


def write_csv(path: Path, header, rows, config_hash: str = "") -> None:
    """CSV with one comment line referencing the config hash, then a header."""
    lines = []
    if config_hash:
        lines.append(f"# config_hash={config_hash}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(
            fmt_float(v) if isinstance(v, (float, np.floating)) else str(v)
            for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def config_hash_of_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def write_manifest(out_dir: Path, config_path: str, config_text: str, subcommand: str,
                   seed: int, certificates: dict) -> str:
    """Write out_dir/manifest.json (config path and hash, subcommand, seed,
    package versions, certificates), log it to run.log and return the
    config hash."""
    import platelab
    import scipy
    config_hash = config_hash_of_text(config_text)
    write_json(Path(out_dir) / "manifest.json", {
        "config_path": str(config_path),
        "config_hash": config_hash,
        "subcommand": subcommand,
        "out_dir": str(out_dir),
        "seed": seed,
        "versions": {
            "platelab": getattr(platelab, "__version__", "0.1.0"),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "certificates": certificates,
    })
    append_run_log(out_dir, f"{subcommand} config_hash={config_hash}")
    return config_hash


def append_run_log(out_dir: Path, line: str) -> None:
    """Append a line, stamped with the UTC time, to out_dir/run.log: clock
    times and costs live there, outside the reproducible outputs."""
    import datetime
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(Path(out_dir) / "run.log", "a", encoding="utf-8") as fh:
        fh.write(f"{stamp} {line}\n")


# ---------------------------------------------------------------------------
# trajectory container
# ---------------------------------------------------------------------------

TRAJECTORY_CONTAINER = "platelab-trajectory-v1"


def save_trajectory(path: Path, traj, config_hash: str) -> None:
    """JSON container: header (hash, dims, dt), then (t, u[], v[]) records.

    Written one record at a time, with the bytes `to_json` gives the whole
    container."""
    plan = traj.meta.get("plan")
    head = {
        "container": TRAJECTORY_CONTAINER,
        "config_hash": config_hash,
        "Mx": traj.meta.get("Mx"),
        "Ny": traj.meta.get("Ny"),
        "dt": plan.dt if plan is not None else None,
        "n_snapshots": len(traj),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + "".join(f'  "{k}": {_json_encode(v, 1)},\n' for k, v in head.items()))
        if not len(traj):
            fh.write('  "snapshots": []\n}\n')
            return
        fh.write('  "snapshots": [')
        for i in range(len(traj)):
            snap = {"t": float(traj.times[i]), "u": traj.us[i], "v": traj.vs[i]}
            fh.write(("\n" if i == 0 else ",\n") + "    " + _json_encode(snap, 2))
        fh.write("\n  ]\n}\n")


def load_trajectory(path: Path) -> dict:
    import json
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if obj.get("container") != TRAJECTORY_CONTAINER:
        raise ValueError(f"{path} is not a {TRAJECTORY_CONTAINER} file")
    return obj


# ---------------------------------------------------------------------------
# minimal SVG polyline plots
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def write_svg(path: Path, series, title: str, config_hash: str = "") -> None:
    """720 x 420 line plot of (label, xs, ys) series; axes show the data ranges."""
    width, height = 720, 420
    ml, mr, mt, mb = 60, 20, 34, 42
    iw, ih = width - ml - mr, height - mt - mb
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    finite = np.isfinite(xs_all) & np.isfinite(ys_all)
    if not np.any(finite):
        x0, x1, y0, y1 = 0.0, 1.0, 0.0, 1.0
    else:
        x0, x1 = float(xs_all[finite].min()), float(xs_all[finite].max())
        y0, y1 = float(ys_all[finite].min()), float(ys_all[finite].max())
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return ml + (x - x0) / (x1 - x0) * iw

    def sy(y):
        return mt + ih - (y - y0) / (y1 - y0) * ih

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f"<!-- config_hash={config_hash} -->",
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{iw}" height="{ih}" fill="none" stroke="#444"/>',
        f'<text x="{width // 2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<text x="{ml}" y="{height - 8}" font-size="11">x: [{fmt_float(x0)}, {fmt_float(x1)}]</text>',
        f'<text x="{ml}" y="{mt - 6}" font-size="11">y: [{fmt_float(y0)}, {fmt_float(y1)}]</text>',
    ]
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = []
        for x, y in zip(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)):
            if math.isfinite(x) and math.isfinite(y):
                pts.append(f"{sx(x):.2f},{sy(y):.2f}")
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.2" '
                     f'points="{" ".join(pts)}"/>')
        parts.append(f'<text x="{width - mr - 150}" y="{mt + 16 + 14 * i}" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
