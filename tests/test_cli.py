"""Config parsing, CLI subcommands, output formats, determinism."""

import json

import numpy as np
import pytest

from platelab.cli import main
from platelab.config import ConfigError, parse_config
from platelab.presets import config_text
from platelab.reporting import fmt_float, load_trajectory, to_json


MINIMAL = """
[plate]
alpha = 0.0
delta = 1.0
beta = 0.5
kappa = 2.0
damping = 1.0 0.0
source = zero
"""


def write_cfg(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestParsing:
    def test_minimal_config_valid_with_defaults(self, tmp_path):
        parsed = parse_config(write_cfg(tmp_path, MINIMAL))
        assert parsed.cfg.beta == 0.5
        assert parsed.mx == 8 and parsed.ny == 8
        assert parsed.plan.dt == 1e-3
        assert parsed.cfg.dom.l == 1.0
        assert parsed.source_certificate["ok"]

    def test_all_zero_damping_rejected_by_default(self, tmp_path):
        bad = MINIMAL.replace("damping = 1.0 0.0", "damping = 0.0 0.0")
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, bad))
        assert any("b_0 + b_q" in p for p in err.value.problems)

    def test_all_zero_damping_allowed_with_optin(self, tmp_path):
        text = MINIMAL.replace("damping = 1.0 0.0",
                               "damping = 0.0 0.0\nallow_undamped = true")
        parsed = parse_config(write_cfg(tmp_path, text))
        assert sum(parsed.cfg.damping_coeffs) == 0.0

    def test_poisson_ratio_range_rejected(self, tmp_path):
        text = MINIMAL + "\n[domain]\nsigma = 0.7\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert any("Poisson" in p for p in err.value.problems)

    def test_unknown_key_rejected(self, tmp_path):
        text = MINIMAL + "\n[sim]\nwarp_speed = 9\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert any("warp_speed" in p for p in err.value.problems)

    def test_violations_listed_exhaustively(self, tmp_path):
        text = """
[domain]
sigma = 0.9
[plate]
alpha = 0.0
delta = -1.0
beta = 0.0
kappa = 0.0
damping = 0.0 0.0
source = zero
"""
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        joined = "\n".join(err.value.problems)
        assert "Poisson" in joined and "delta" in joined and "all zero" in joined

    def test_missing_physical_parameter_reported(self, tmp_path):
        text = MINIMAL.replace("kappa = 2.0\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert any("kappa" in p for p in err.value.problems)

    def test_softening_source_rejected(self, tmp_path):
        table = np.linspace(-12, 12, 49)
        rows = " ".join(str(v) for v in table)
        vals = " ".join(str(v) for v in -table ** 3)
        text = MINIMAL.replace("source = zero",
                               f"source = custom\nsource_table_s = {rows}\n"
                               f"source_table_f = {vals}")
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert any("dissipativity" in p for p in err.value.problems)

    def test_seed_override(self, tmp_path):
        parsed = parse_config(write_cfg(tmp_path, MINIMAL), seed_override=99)
        assert parsed.plan.seed == 99


SMALL_SIM = MINIMAL + """
[basis]
mx = 3
ny = 2
[sim]
dt = 0.01
t = 0.5
snapshot_every = 5
seed = 11
initial = mode 1 0 0.5
"""


class TestSubcommands:
    def test_simulate_writes_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SIM)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("ledger.csv", "trajectory.json", "simulate_report.json",
                     "manifest.json", "run.log"):
            assert (out / name).exists()
        header = (out / "ledger.csv").read_text().splitlines()
        assert header[0].startswith("# config_hash=")
        assert header[1] == ("t,kinetic,bending,Pi,Pi0,Pi1,E,Etot,"
                             "damping_integral,flux_integral,identity_residual")
        container = load_trajectory(out / "trajectory.json")
        assert container["Mx"] == 3 and container["Ny"] == 2
        assert container["n_snapshots"] == len(container["snapshots"])

    def test_overwrite_guard(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SIM)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--overwrite"]) == 0

    def test_bad_config_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, MINIMAL.replace("damping = 1.0 0.0",
                                                  "damping = 0.0 0.0"))
        assert main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "x")]) == 2

    def test_bad_sweep_section_exit_code(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL + "[sweep]\nsamples_per_radius = 0\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"),
                     "--threads", "1"]) == 2
        assert "samples_per_radius must be >= 1" in capsys.readouterr().err

    def test_sweep_verdict_fail_exit_code(self, tmp_path):
        # undamped with a flow term: growth, no single ultimate bound
        text = """
[plate]
alpha = 0.0
delta = 0.0
beta = 2.0
kappa = 0.0
damping = 0.0 0.0
source = zero
allow_undamped = true
[basis]
mx = 3
ny = 2
[sweep]
radii = 0.5 1.0 3.0
samples_per_radius = 1
t = 20
dt = 0.005
"""
        cfg = write_cfg(tmp_path, text)
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"),
                   "--threads", "1"])
        assert rc == 4
        report = json.loads((tmp_path / "sw" / "sweep_report.json").read_text())
        assert report["verdict"] == "FAIL"

    def test_barrier_toy_prints_sigma(self, capsys):
        assert main(["barrier", "--toy"]) == 0
        out = capsys.readouterr().out
        assert "2.7492892" in out and "2.750" in out

    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out

    def test_stationary_skips_with_flow(self, tmp_path):
        text = SMALL_SIM + "\n[stationary]\nsamples = 1\nt = 0.5\n"
        cfg = write_cfg(tmp_path, text)
        rc = main(["stationary", "--config", str(cfg), "--out",
                   str(tmp_path / "st")])
        assert rc == 0
        rep = json.loads((tmp_path / "st" / "stationary_report.json").read_text())
        assert rep["verdict"] == "SKIPPED"

    def test_pairs_subcommand(self, tmp_path):
        text = SMALL_SIM + "\n[pairs]\nn_pairs = 1\nt = 12\ndt = 0.005\ngap = 1e-3\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "pr"
        assert main(["pairs", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "pairs_report.json").read_text())
        assert rep["all_certified"] is True
        series = (out / "pairs_series.csv").read_text().splitlines()
        assert series[1] == "pair,t,separation,lower_order"

    def test_dimension_subcommand(self, tmp_path):
        # conservative single mode: a periodic orbit with dimension ~1
        text = """
[plate]
alpha = 0.0
delta = 0.0
beta = 0.0
kappa = 0.0
damping = 0.0 0.0
source = zero
allow_undamped = true
[basis]
mx = 2
ny = 1
[sim]
dt = 0.01
t = 90.0
snapshot_every = 2
initial = mode 1 0 1.0
[dimension]
min_points = 2000
theiler = 10
"""
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "dim"
        assert main(["dimension", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "dimension_report.json").read_text())
        assert rep["saturated"] is True
        assert all(abs(e - 1.0) < 0.3 for e in rep["estimates"])

    def test_barrier_fit_subcommand(self, tmp_path):
        text = SMALL_SIM + "\n[barrier]\nfit_t = 8\nfit_dt = 0.005\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "bar"
        assert main(["barrier", "--config", str(cfg), "--out", str(out)]) == 0
        rep = json.loads((out / "barrier_report.json").read_text())
        assert rep["audit"]["bracket_violations"] == 0
        assert rep["balancing"] in ("PASS", "SKIPPED")
        assert set(rep["ultimate_bounds"]) == {"1", "10", "100"}

    def test_plots_flag_writes_svg(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SIM)
        out = tmp_path / "runp"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--plots"]) == 0
        svg = (out / "ledger.svg").read_text()
        assert svg.startswith("<svg") and "config_hash=" in svg

    def test_conservative_preset_residual(self, tmp_path):
        text = config_text("conservative").replace("t = 680.0", "t = 80.0")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "cons"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "ledger.csv").read_text().splitlines()
        header = lines[1].split(",")
        t_col = header.index("t")
        r_col = header.index("identity_residual")
        for row in lines[3:]:
            vals = row.split(",")
            t, r = float(vals[t_col]), float(vals[r_col])
            assert abs(r) <= 1e-8 * max(t, 1.0)

    def test_manifest_embeds_certificates(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SIM)
        out = tmp_path / "cert"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["certificates"]["source_dissipativity"]["ok"] is True
        assert manifest["certificates"]["damping"]["b0_positive"] is True

    def test_numerical_failure_exit_and_partial_flush(self, tmp_path):
        # a huge step with a strong cubic and large amplitude defeats the
        # fixed point; the partial trajectory must land on disk
        text = """
[plate]
alpha = 0.0
delta = 0.0
beta = 0.0
kappa = 0.0
damping = 1.0 0.0
source = cubic_minus_load
load = 0.0
[basis]
mx = 2
ny = 1
[sim]
dt = 0.5
t = 10.0
initial = mode 1 0 60.0
"""
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "boom"
        rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        assert (out / "trajectory_partial.json").exists()


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SIM)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("ledger.csv", "trajectory.json", "simulate_report.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
        # manifests differ only in out_dir; normalise and compare
        m0 = json.loads((outs[0] / "manifest.json").read_text())
        m1 = json.loads((outs[1] / "manifest.json").read_text())
        m0.pop("out_dir"), m1.pop("out_dir")
        assert m0 == m1

    def test_seed_flag_changes_random_runs(self, tmp_path):
        text = SMALL_SIM.replace("initial = mode 1 0 0.5", "initial = random 1.0")
        cfg = write_cfg(tmp_path, text)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1),
                     "--seed", "1"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2),
                     "--seed", "2"]) == 0
        assert (out1 / "ledger.csv").read_bytes() != (out2 / "ledger.csv").read_bytes()


class TestReporting:
    def test_float_format_17_digits(self):
        x = 1.0 / 3.0
        assert fmt_float(x) == format(x, ".17g")
        assert float(fmt_float(x)) == x
        assert fmt_float(float("inf")) == "inf"
        assert fmt_float(float("nan")) == "nan"

    def test_json_round_trip_values(self):
        obj = {"a": 1.0 / 3.0, "list": [1, 2.5, None, True], "s": "x\"y\n"}
        parsed = json.loads(to_json(obj))
        assert parsed["a"] == 1.0 / 3.0
        assert parsed["list"] == [1, 2.5, None, True]
        assert parsed["s"] == "x\"y\n"

    def test_preset_configs_parse(self, tmp_path):
        from platelab.presets import preset_names
        for name in preset_names():
            parsed = parse_config(write_cfg(tmp_path, config_text(name),
                                            f"{name}.cfg"))
            assert parsed.cfg is not None

    def test_trajectory_container_round_trip(self, tmp_path):
        import platelab as pl
        from platelab.integrator import SimPlan, run
        from platelab.model import PlateConfig
        from platelab.reporting import save_trajectory

        cfg = PlateConfig(delta=1.0, damping_coeffs=(1.0, 0.0))
        ops = pl.make_operators(3, 2, cfg.dom)
        traj = run(ops, cfg, SimPlan(dt=0.01, T=0.2, snapshot_every=2),
                   ("mode", 1, 0, 0.4))
        path = tmp_path / "traj.json"
        save_trajectory(path, traj, "deadbeef")
        loaded = load_trajectory(path)
        assert loaded["config_hash"] == "deadbeef"
        assert loaded["n_snapshots"] == len(traj)
        for i, snap in enumerate(loaded["snapshots"]):
            assert snap["t"] == traj.times[i]
            assert np.array_equal(np.array(snap["u"]), traj.us[i])
            assert np.array_equal(np.array(snap["v"]), traj.vs[i])
