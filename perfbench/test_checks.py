"""Tests of the benchmark's output checks and tracer.

    python3 -m pytest perfbench -q

Every check must accept the program's real output and reject a deliberately
perturbed copy of it, so that no check passes vacuously.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import platelab as pl  # noqa: E402
from platelab import attractor_lab, barrier, integrator, model  # noqa: E402
from platelab.presets import make  # noqa: E402

GENERAL = make("general")[0]


@pytest.fixture(scope="module")
def ops():
    return pl.make_operators(3, 4, GENERAL.dom, 3)


@pytest.fixture(scope="module")
def traj(ops):
    plan = pl.SimPlan(dt=1e-3, T=0.5, snapshot_every=10, seed=2)
    return pl.run(ops, GENERAL, plan, ("stationary_kick", 0.2))


def test_mass_diagonal(ops):
    assert checks.mass_diagonal(ops.M, 3, 4, 1.0).ok
    bad = ops.M.copy()
    bad[0, 1] = bad[1, 0] = 1e-9
    assert not checks.mass_diagonal(bad, 3, 4, 1.0).ok
    assert not checks.mass_diagonal(ops.M * (1 + 1e-9), 3, 4, 1.0).ok


def test_sine_blocks(ops):
    mats = {"K": ops.K, "Gx": ops.Gx, "Dy": ops.Dy}
    assert checks.sine_blocks(mats, 3, 4).ok
    bad = ops.Dy.copy()
    bad[1, 4 + 1] = 1e-9                       # (m=1, k=1) against (m=2, k=1)
    assert not checks.sine_blocks({**mats, "Dy": bad}, 3, 4).ok


def _own_load(u, ops):
    g = ops.grid
    return checks.plate_load(u, 3, 4, 1.0, g.x_nodes, g.x_weights, g.y_nodes,
                             g.y_weights, GENERAL.delta, GENERAL.beta,
                             GENERAL.kappa, GENERAL.source.load)


def test_plate_load_matches_program(ops):
    u = integrator.initial_state(("random", 2.0), ops, GENERAL, 4).u
    np.testing.assert_allclose(_own_load(u, ops), model.force_load(u, ops, GENERAL),
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(checks.analytic_gx(3, 4, 1.0), ops.Gx, atol=1e-12)
    np.testing.assert_allclose(checks.analytic_dy(3, 4), ops.Dy, atol=1e-12)


def test_equilibrium(ops):
    u = model.solve_stationary(GENERAL, ops).u
    assert checks.equilibrium(u, ops.K, _own_load(u, ops)).ok
    moved = u + 1e-8
    assert not checks.equilibrium(moved, ops.K, _own_load(moved, ops)).ok


def test_energy_identity(traj):
    led = traj.ledger
    cols = [led.t, led.kinetic, led.bending, led.Pi, led.damping_integral,
            led.flux_integral]
    assert checks.energy_identity(*cols, dt=1e-3).ok
    bent = led.bending.copy()
    bent[-1] += 1e-4
    cols[2] = bent
    assert not checks.energy_identity(*cols, dt=1e-3).ok


def test_finite_states(traj):
    assert checks.finite_states(traj.us, traj.vs).ok
    vs = traj.vs.copy()
    vs[3, 1] = np.nan
    assert not checks.finite_states(traj.us, vs).ok


def test_sweep_verdict():
    sups = [[0.70, 0.72], [0.74, 0.75], [0.80, 0.81]]
    bounds = [0.72, 0.75, 0.81]
    assert checks.sweep_verdict("PASS", [], sups, bounds).ok
    assert not checks.sweep_verdict("FAIL", [], sups, bounds).ok
    assert not checks.sweep_verdict("PASS", [(2, 1)], sups, bounds).ok
    assert not checks.sweep_verdict("PASS", [], sups, [0.72, 0.75, 0.80]).ok
    wide = [[0.50, 0.52], [0.74, 0.75], [0.80, 0.81]]
    assert not checks.sweep_verdict("PASS", [], wide, [0.52, 0.75, 0.81]).ok


def test_tail_matches(ops):
    plan = attractor_lab.SweepPlan(radii=(5.0,), samples_per_radius=1, T=0.4,
                                   dt=2e-3, seed=3)
    report = attractor_lab.dissipativity_sweep(ops, GENERAL, plan)
    seed = attractor_lab._sample_seed(plan.seed, 0, 0)
    t = integrator.run(ops, GENERAL, plan.sim_plan(seed), ("random", 5.0))
    direct = checks.tail_sup(t.times, t.us, t.vs, ops.K, ops.M, plan.tail_fraction)
    swept, bound = report.tail_sups[0][0], report.radius_bounds[0]
    assert checks.tail_matches(5.0, direct, swept, bound).ok
    assert not checks.tail_matches(5.0, direct * (1 + 1e-8), swept, bound).ok
    assert not checks.tail_matches(5.0, direct, swept, 0.99 * direct).ok


def test_periodic_dimension():
    assert checks.periodic_dimension([1.08, 1.08, 1.08]).ok
    assert not checks.periodic_dimension([1.08, 1.25]).ok
    assert not checks.periodic_dimension([0.0]).ok
    assert not checks.periodic_dimension([]).ok


def test_bracket_nonpositive():
    E = np.linspace(0.0, 3.0, 50)
    assert checks.bracket_nonpositive(E, 0.1, 0.25, 2.0, 0).ok
    assert not checks.bracket_nonpositive(E, 1.5, 0.25, 2.0, 0).ok
    assert not checks.bracket_nonpositive(E, 0.1, 0.25, 2.0, 1).ok


def test_balancing():
    assert checks.balancing(0.25, 1.0, "PASS").ok
    assert not checks.balancing(0.25, 3.5, "PASS").ok
    assert not checks.balancing(0.25, 1.0, "FAIL").ok


def test_decay_scale():
    bc = barrier.toy_constants()
    sigma = barrier.solve_barrier_scale(1.0, bc)
    assert checks.decay_scale(sigma, 1.0, bc.to_dict()).ok
    assert not checks.decay_scale(sigma * (1 + 1e-7), 1.0, bc.to_dict()).ok
    assert not checks.decay_scale(sigma, 1.1, bc.to_dict()).ok


def test_ultimate_level():
    bc = barrier.toy_constants()
    levels = {R: barrier.ultimate_bound(bc, R)[1] for R in (1.0, 10.0, 100.0)}
    assert checks.ultimate_level(levels).ok
    levels[100.0] *= 1 + 1e-8
    assert not checks.ultimate_level(levels).ok


def test_benchmark_json_lists_the_reported_metrics():
    import run
    import spans

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


TRACED_RUN = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
import platelab as pl, spans
from platelab.presets import make
cfg = make("general")[0]
tracer = spans.Tracer()
tracer.install()
ops = pl.discretization.make_operators(3, 2, cfg.dom, 3)
plan = pl.SimPlan(dt=1e-3, T=0.05, snapshot_every=5, seed=1)
pl.integrator.run(ops, cfg, plan, ("stationary_kick", 0.1))
bindings = sorted({{s[0] for s in tracer.spans}})
selfs = tracer.self_times()
ok = all(0 <= s <= e - b + 1e-9 for s, (_, _, b, e, _) in zip(selfs, tracer.spans))
print(json.dumps({{"bindings": bindings, "self_ok": ok,
                  "layers": tracer.layer_metrics()}}))
"""


def _traced_run():
    script = TRACED_RUN.format(src=str(HERE.parent / "src"), here=str(HERE))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


def test_tracer_spans_bindings_and_repeats():
    first, second = _traced_run(), _traced_run()
    assert first["self_ok"]
    # one function, two bindings: the integrator's lookup and the model's own
    assert {"integrator.force_load", "model.force_load", "integrator.run",
            "integrator.step", "integrator.solve_stationary"} <= set(first["bindings"])
    layers = first["layers"]
    assert layers["integrator.steps"] == 50
    assert layers["model.force_load_calls"] > layers["integrator.steps"]
    assert layers["model.newton_iterations"] == layers["model.force_jacobian_calls"] > 0
    import spans
    for name in spans.COUNTS:
        assert first["layers"][name] == second["layers"][name], name
