"""One round of one benchmark workload, run in a fresh interpreter.

    python3 perfbench/workloads.py --workload refine-16 --seed 1 [--trace 1] [--full-checks]

The round writes its config files, starts its clock, imports platelab from
the checkout's `src/`, runs the workload through platelab's public functions
and stops the clock at the workload's last result.  The output checks run
after that, outside the timed region.  The last stdout line is one JSON
object: wall_s, setup_s, steps, trajectory_s, peak_rss_mb, the checks, and
with --trace 1 the per-layer metrics of the round.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# one BLAS thread, fixed before platelab imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

# The Newton guess of refine-16 is drawn from this fixed seed, so every
# --seed does the same set-up work; --seed picks the velocity kick.
NEWTON_GUESS_SEED = 10

GENERAL_PLATE = """\
[domain]
l = 1.0
sigma = 0.3

[plate]
alpha = 0.0
delta = 1.0
beta = 1.0
kappa = 2.0
damping = 0.5 0.0 1.0
source = cubic_minus_load
load = 1.0
"""

CONFIGS = {
    "refine-16": {
        "refine16.cfg": GENERAL_PLATE + """
[basis]
mx = 16
ny = 16
oversample = 3

[sim]
dt = 0.001
t = 2.0
snapshot_every = 100
seed = {seed}
initial = stationary_kick 0.2
""",
    },
    "sweep-small": {
        "sweep.cfg": GENERAL_PLATE + """
[basis]
mx = 4
ny = 3
oversample = 3

[sim]
seed = {seed}

[sweep]
radii = 1 5 25
samples_per_radius = 2
t = 10.0
dt = 0.002
snapshot_every = 10
tail_fraction = 0.4
""",
    },
    "audit-dense": {
        "periodic.cfg": """\
[domain]
l = 1.0
sigma = 0.3

[plate]
alpha = 0.0
delta = 0.0
beta = 0.0
kappa = 0.0
damping = 0.0 0.0
source = zero
allow_undamped = true

[basis]
mx = 3
ny = 2
oversample = 3

[sim]
dt = 0.01
t = 80.0
snapshot_every = 1
seed = {seed}
initial = mode 1 0 {amplitude!r}

[dimension]
embed_dims = 2 4 8
theiler = 20
min_points = 2000
tail_fraction = 0.5
""",
        "barrier.cfg": GENERAL_PLATE + """
[basis]
mx = 8
ny = 8
oversample = 3

[sim]
dt = 0.001
t = 2.0
snapshot_every = 1
seed = {seed}
initial = stationary_kick 0.2

[barrier]
levels = 1 10 100
""",
    },
}


class SetupDone(Exception):
    """Raised at the first time step of a --setup-only round."""


class Round:
    """Clock, inputs and program modules of one round."""

    def __init__(self, workload: str, seed: int):
        self.out = OUT / "out" / workload
        self.out.mkdir(parents=True, exist_ok=True)
        amplitude = 0.5 + random.Random(seed).random()
        self.cfg = {}
        for name, text in CONFIGS[workload].items():
            path = self.out / name
            path.write_text(text.format(seed=seed, amplitude=amplitude), encoding="utf-8")
            self.cfg[name] = path
        self.pl = None
        self.first_step = None
        self.steps = 0
        self.trajectory_s = 0.0
        self.t0 = time.perf_counter()

    def import_platelab(self) -> None:
        sys.path.insert(0, str(ROOT / "src"))
        import platelab
        from platelab import (attractor_lab, barrier, config, discretization,
                              energy, integrator, model, reporting)

        if not Path(platelab.__file__).resolve().is_relative_to(ROOT / "src"):
            raise SystemExit(f"platelab imported from {platelab.__file__}, "
                             f"not from {ROOT / 'src'}")
        self.pl = SimpleNamespace(
            attractor_lab=attractor_lab, barrier=barrier,
            config=config, discretization=discretization, energy=energy,
            integrator=integrator, model=model, reporting=reporting)

    def watch_first_step(self, stop: bool) -> None:
        """Note the time of the first `integrator.step` call, then unhook.

        With stop, end the round there by raising SetupDone.
        """
        integrator = self.pl.integrator
        original = integrator.step

        def first_step(*args, **kwargs):
            self.first_step = time.perf_counter()
            integrator.step = original
            if stop:
                raise SetupDone
            return original(*args, **kwargs)

        integrator.step = first_step

    @contextlib.contextmanager
    def trajectory(self, steps: int):
        """Time a call that produces trajectories and credit its steps."""
        start = time.perf_counter()
        yield
        self.trajectory_s += time.perf_counter() - start
        self.steps += steps


def _n_steps(T: float, dt: float) -> int:
    return int(round(T / dt))


# ---------------------------------------------------------------------------
# workloads: each runs the timed part and returns its output checks
# ---------------------------------------------------------------------------

def refine_16(r: Round):
    pl = r.pl
    parsed = pl.config.parse_config(r.cfg["refine16.cfg"])
    cfg, plan = parsed.cfg, parsed.plan
    ops = pl.discretization.make_operators(parsed.mx, parsed.ny, cfg.dom,
                                           parsed.oversample)
    rest = pl.integrator.initial_state(("stationary_kick", 0.0), ops, cfg,
                                       NEWTON_GUESS_SEED)
    kick = pl.integrator.initial_state(("random", 1.0), ops, cfg, plan.seed).v
    kick *= parsed.initial[1] / ops.l2_norm_sq(kick) ** 0.5
    start = pl.model.State(rest.u, kick, 0.0)
    with r.trajectory(_n_steps(plan.T, plan.dt)):
        traj = pl.integrator.run(ops, cfg, plan, start)
    chash = pl.reporting.config_hash_of_text(parsed.text)
    pl.reporting.write_csv(r.out / "ledger.csv", pl.energy.LEDGER_COLUMNS,
                           list(traj.ledger.rows()), chash)
    pl.reporting.write_json(r.out / "simulate_report.json", {
        "config_hash": chash, "snapshots": len(traj),
        "final_time": float(traj.times[-1]), "final_Etot": float(traj.ledger.Etot[-1]),
    })

    def check(full: bool):
        import checks

        grid, led, l = ops.grid, traj.ledger, cfg.dom.l
        own_load = checks.plate_load(
            rest.u, parsed.mx, parsed.ny, l, grid.x_nodes, grid.x_weights,
            grid.y_nodes, grid.y_weights, cfg.delta, cfg.beta, cfg.kappa,
            cfg.source.load)
        return [
            checks.mass_diagonal(ops.M, parsed.mx, parsed.ny, l),
            checks.sine_blocks({"K": ops.K, "Gx": ops.Gx, "Dy": ops.Dy},
                               parsed.mx, parsed.ny),
            checks.equilibrium(rest.u, ops.K, own_load),
            checks.energy_identity(led.t, led.kinetic, led.bending, led.Pi,
                                   led.damping_integral, led.flux_integral, plan.dt),
            checks.finite_states(traj.us, traj.vs),
        ]

    return check


def sweep_small(r: Round):
    pl = r.pl
    parsed = pl.config.parse_config(r.cfg["sweep.cfg"])
    cfg, sec, get = parsed.cfg, parsed.sections, pl.config.section_get
    floats = lambda raw: tuple(float(t) for t in raw.split())
    plan = pl.attractor_lab.SweepPlan(
        radii=get(sec, "sweep", "radii", floats, None),
        samples_per_radius=get(sec, "sweep", "samples_per_radius", int, None),
        T=get(sec, "sweep", "t", float, None),
        tail_fraction=get(sec, "sweep", "tail_fraction", float, None),
        seed=parsed.plan.seed,
        dt=get(sec, "sweep", "dt", float, None),
        snapshot_every=get(sec, "sweep", "snapshot_every", int, None))
    ops = pl.discretization.make_operators(parsed.mx, parsed.ny, cfg.dom,
                                           parsed.oversample)
    samples = len(plan.radii) * plan.samples_per_radius
    with r.trajectory(samples * _n_steps(plan.T, plan.dt)):
        report = pl.attractor_lab.dissipativity_sweep(ops, cfg, plan, threads=1)
    chash = pl.reporting.config_hash_of_text(parsed.text)
    pl.reporting.write_csv(r.out / "sweep_series.csv", ("radius", "sample", "tail_sup"),
                           [(rad, j, sup) for rad, row in zip(report.radii, report.tail_sups)
                            for j, sup in enumerate(row)], chash)
    pl.reporting.write_json(r.out / "sweep_report.json", {
        "config_hash": chash, "verdict": report.verdict, "R0": report.R0,
        "spread": report.spread, "radius_bounds": report.radius_bounds,
        "tail_sups": report.tail_sups,
    })

    def check(full: bool):
        import checks

        out = [checks.sweep_verdict(report.verdict, report.blowups, report.tail_sups,
                                    report.radius_bounds)]
        if not full:
            return out
        # sample 0 of every radius again, by a direct run from its initial state
        for i, radius in enumerate(plan.radii):
            seed = pl.attractor_lab._sample_seed(plan.seed, i, 0)
            traj = pl.integrator.run(ops, cfg, plan.sim_plan(seed), ("random", radius))
            direct = checks.tail_sup(traj.times, traj.us, traj.vs, ops.K, ops.M,
                                     plan.tail_fraction)
            out.append(checks.tail_matches(radius, direct, report.tail_sups[i][0],
                                           report.radius_bounds[i]))
        return out

    return check


def audit_dense(r: Round):
    pl = r.pl
    per = pl.config.parse_config(r.cfg["periodic.cfg"])
    sec, get = per.sections, pl.config.section_get
    ints = lambda raw: tuple(int(t) for t in raw.split())
    ops_p = pl.discretization.make_operators(per.mx, per.ny, per.cfg.dom, per.oversample)
    with r.trajectory(_n_steps(per.plan.T, per.plan.dt)):
        orbit = pl.integrator.run(ops_p, per.cfg, per.plan, per.initial)
    dim = pl.attractor_lab.correlation_dimension(
        orbit, ops_p, embed_dims=get(sec, "dimension", "embed_dims", ints, None),
        theiler=get(sec, "dimension", "theiler", int, None),
        tail_fraction=get(sec, "dimension", "tail_fraction", float, None),
        min_points=get(sec, "dimension", "min_points", int, None))
    pl.reporting.write_json(r.out / "dimension_report.json", {
        "config_hash": pl.reporting.config_hash_of_text(per.text),
        "embed_dims": list(dim.embed_dims), "estimates": dim.estimates,
        "n_points": dim.n_points, "saturated": dim.saturated,
    })

    gen = pl.config.parse_config(r.cfg["barrier.cfg"])
    cfg = gen.cfg
    floats = lambda raw: tuple(float(t) for t in raw.split())
    levels = get(gen.sections, "barrier", "levels", floats, None)
    ops_g = pl.discretization.make_operators(gen.mx, gen.ny, cfg.dom, gen.oversample)
    cert = pl.model.certify_source(cfg)
    with r.trajectory(_n_steps(gen.plan.T, gen.plan.dt)):
        traj = pl.integrator.run(ops_g, cfg, gen.plan, gen.initial, cert)
    bc = pl.barrier.fit_barrier_constants([traj], ops_g, cfg, cert)
    balance = pl.barrier.balancing_check(bc.gamma, bc.b)
    audit = pl.barrier.decay_audit(traj, ops_g, cfg, cert, bc)
    bounds = {R: pl.barrier.ultimate_bound(bc, R) for R in levels}
    chash = pl.reporting.config_hash_of_text(gen.text)
    pl.reporting.write_json(r.out / "barrier_report.json", {
        "config_hash": chash, "constants": bc.to_dict(), "balancing": balance.verdict,
        "audit": {"eps": audit.eps, "violations": audit.violations,
                  "bracket_violations": audit.bracket_violations},
        "ultimate_bounds": {str(R): {"K_R": kr, "V_star": vs}
                            for R, (kr, vs) in bounds.items()},
    })
    pl.reporting.write_csv(r.out / "barrier_audit.csv",
                           ("t", "lhs", "rhs", "margin", "allowance", "bracket"),
                           list(zip(audit.times, audit.lhs, audit.rhs, audit.margins,
                                    audit.fd_allowance, audit.bracket)), chash)

    def check(full: bool):
        import checks

        return [
            checks.periodic_dimension(dim.estimates),
            checks.bracket_nonpositive(traj.ledger.E, audit.eps, bc.gamma, bc.d3,
                                       audit.bracket_violations),
            checks.balancing(bc.gamma, bc.b_exponent, balance.verdict),
            checks.decay_scale(1.0 / audit.eps, float(traj.ledger.E[0]), bc.to_dict()),
            checks.ultimate_level({R: vs for R, (kr, vs) in bounds.items()}),
        ]

    return check


WORKLOADS = {"refine-16": refine_16, "sweep-small": sweep_small,
             "audit-dense": audit_dense}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--full-checks", action="store_true",
                    help="also run the checks that repeat the workload's runs")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop at the first time step and print setup_s alone")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    r = Round(args.workload, args.seed)          # the clock starts here
    r.import_platelab()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    r.watch_first_step(stop=args.setup_only)
    try:
        check = WORKLOADS[args.workload](r)
    except SetupDone:
        print(json.dumps({"setup_s": r.first_step - r.t0}))
        return 0
    wall_s = time.perf_counter() - r.t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics()
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}-round{args.round}.npz")
    results = check(args.full_checks)
    print(json.dumps({
        "wall_s": wall_s,
        "setup_s": r.first_step - r.t0,
        "steps": r.steps,
        "trajectory_s": r.trajectory_s,
        "peak_rss_mb": peak_rss_mb,
        "checks": [list(c) for c in results],
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
