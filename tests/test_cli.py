"""Config parsing, CLI subcommands, output formats, determinism."""

import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from platelab.cli import main
from platelab.config import SCHEMA, ConfigError, parse_config
from platelab.presets import config_text, make, preset_names
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
        assert parsed.cert.ok

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

    @pytest.mark.parametrize("initial", ["random -2.0", "stationary_kick -0.3", "random 1 2"])
    def test_values_that_would_mean_something_else_rejected(self, tmp_path, initial):
        # each parsed before: a flipped sign, a dropped token, the whole run
        # analysed, every sample a FAIL, a negative norm
        text = MINIMAL + f"""
[sim]
initial = {initial}
[dimension]
tail_fraction = 2.5
[stationary]
speed_tol = 0.0
dist_tol = -1e-3
radius = -2.0
[pairs]
radius = -1.0
"""
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        keys = ["[sim] initial", "[dimension] tail_fraction", "[stationary] speed_tol",
                "[stationary] dist_tol", "[stationary] radius", "[pairs] radius"]
        named = [next(k for k in keys if p.startswith(k)) for p in err.value.problems]
        assert sorted(named) == sorted(keys)
        edges = MINIMAL + ("[sim]\ninitial = random 0\n[dimension]\ntail_fraction = 1\n"
                           "[stationary]\nradius = 0\n[pairs]\nradius = 0\n")
        assert parse_config(write_cfg(tmp_path, edges)).initial == ("random", 0.0)

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

    def test_plate_and_experiment_problems_listed_together(self, tmp_path):
        text = MINIMAL.replace("delta = 1.0", "delta = -1.0") + "[sweep]\ndt = -1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        joined = "\n".join(err.value.problems)
        assert "delta" in joined and "[sweep] dt" in joined

    def test_every_plan_takes_the_sim_solver_keys(self, tmp_path):
        text = MINIMAL + "[sim]\nfp_tol = 1e-9\nfp_maxiter = 7\nseed = 5\n" \
            "[barrier]\nt = 3\ndt = 0.004\n"
        for override, seed in ((None, 5), (99, 99)):
            parsed = parse_config(write_cfg(tmp_path, text), seed_override=override)
            assert set(parsed.plans) == {"sweep", "pairs", "stationary", "barrier"}
            for name, plan in [("sim", parsed.plan), *parsed.plans.items()]:
                assert (plan.fp_tol, plan.fp_maxiter, plan.seed) == (1e-9, 7, seed), name
            assert (parsed.plans["barrier"].T, parsed.plans["barrier"].dt) == (3.0, 0.004)
            assert parsed.plans["sweep"].radii == (1.0, 5.0, 25.0)

    def test_docs_match_schema(self, tmp_path):
        """docs/config.md lists every schema key, under its section, with the
        table's doc line and default, and lists no other key; its example
        blocks form a valid config."""
        text = (Path(__file__).parents[1] / "docs" / "config.md").read_text()
        blocks = re.findall(r"```ini\n(.*?)```", text, re.S)
        documented, section = {}, None
        for line in "".join(blocks).splitlines():
            if head := re.match(r"\[(\w+)\]", line):
                section = head[1]
            elif line.strip():
                row = re.fullmatch(r"(\w+) = [^#]+# (.*) \((required|no default|"
                                   r"default (.*))\)", line)
                assert row, line
                documented[section, row[1]] = row.groups()[1:]
        table = {(sec, key): k for sec, keys in SCHEMA.items() for key, k in keys.items()}
        assert set(documented) == set(table)
        for name, (doc, tag, raw) in documented.items():
            key = table[name]
            assert doc == key.doc, name
            if key.required:
                assert tag == "required", name
            elif key.default is None:
                assert tag == "no default", name
            else:
                assert raw is not None and key.conv(raw) == key.default, name
        parse_config(write_cfg(tmp_path, "".join(blocks)))


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

    def test_simulate_report_counts_fixed_point_iterations(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SIM)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        hist = json.loads((out / "simulate_report.json").read_text())["fp_iterations"]
        assert sum(hist.values()) == 50 and min(map(int, hist)) >= 1

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
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 2
        assert "samples_per_radius must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("sweep", "t", "abc"),
        ("sweep", "dt", "-1"),
        ("pairs", "dt", "0"),
        ("dimension", "embed_dims", ""),
        ("pairs", "n_pairs", "0"),         # an empty experiment would pass vacuously
        ("stationary", "samples", "0"),    # ... or fail with an empty note
        ("sweep", "radii", ""),            # ... or fail with R0 = inf
        ("pairs", "gap", "0"),             # ... or pass on identical pairs
        ("barrier", "levels", "-1 10"),
        ("sim", "fp_maxiter", "0"),
        ("sim", "initial", "mode 5 0 1.0"),    # outside the 3 x 2 basis
        ("dimension", "min_points", "100000"),  # more than the [sim] run's tail holds
        ("dimension", "theiler", "-50"),
    ])
    def test_bad_experiment_value_exits_before_output(self, tmp_path, capsys,
                                                      section, key, value):
        out = tmp_path / "out"
        head = "" if section == "sim" else f"[{section}]\n"    # SMALL_SIM ends in [sim]
        text = SMALL_SIM.replace("initial = mode 1 0 0.5\n", "") + f"{head}{key} = {value}\n"
        command = "simulate" if section == "sim" else section
        assert main([command, "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 2
        assert f"[{section}] {key}" in capsys.readouterr().err
        assert not out.exists()

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
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")])
        assert rc == 4
        report = json.loads((tmp_path / "sw" / "sweep_report.json").read_text())
        assert report["verdict"] == "FAIL"

    def test_sim_solver_keys_reach_every_run(self, tmp_path):
        # one fixed-point iteration cannot converge a step, so every command
        # that integrates fails instead of running at the default cap
        text = config_text("general").replace("mx = 8", "mx = 3").replace(
            "ny = 8", "ny = 2").replace("fp_maxiter = 60", "fp_maxiter = 1") + """
[sweep]
radii = 0.5 2
samples_per_radius = 1
t = 1
[pairs]
n_pairs = 1
t = 1
[barrier]
t = 1
[stationary]
samples = 1
t = 1
"""
        gradient = text.replace("beta = 1.0", "beta = 0.0")
        for command, cfg_text, rc in [("simulate", text, 3), ("pairs", text, 3),
                                      ("barrier", text, 3), ("stationary", gradient, 3),
                                      ("sweep", text, 4)]:
            out = tmp_path / command
            assert main([command, "--config", str(write_cfg(tmp_path, cfg_text)),
                         "--out", str(out)]) == rc, command
        report = json.loads((tmp_path / "sweep" / "sweep_report.json").read_text())
        assert report["blowups"] == [[0, 0], [1, 0]]
        assert report["meta"]["fp_iterations"] == {}     # no member finished
        assert [f["t"] for f in report["failures"]] == [0.0, 0.0]    # the first step fails
        assert all("did not converge in 1 iterations" in f["message"]
                   for f in report["failures"])

    SMALL_GENERAL_SWEEP = config_text("general").replace("mx = 8", "mx = 3").replace(
        "ny = 8", "ny = 2") + "[sweep]\nradii = 1\nsamples_per_radius = 3\nt = 0.1\n"

    def test_sweep_certifies_the_source_once(self, tmp_path, monkeypatch):
        import sys

        import platelab.model

        calls = []
        certify = platelab.model.certify_source

        def counting(cfg):
            calls.append(cfg)
            return certify(cfg)

        for name, module in list(sys.modules.items()):
            if name.startswith("platelab") and getattr(module, "certify_source", None) is certify:
                monkeypatch.setattr(module, "certify_source", counting)
        cfg = write_cfg(tmp_path, self.SMALL_GENERAL_SWEEP)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 0
        assert len(calls) == 1

    def test_sweep_report_counts_fixed_point_iterations(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SMALL_GENERAL_SWEEP)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        text = (outs[0] / "sweep_report.json").read_text()
        assert (outs[1] / "sweep_report.json").read_text() == text
        report = json.loads(text)
        hist = report["meta"]["fp_iterations"]
        assert report["blowups"] == []                   # 3 finished members, 50 steps each
        assert sum(hist.values()) == 3 * 50 and min(map(int, hist)) >= 1

    def test_sweep_reports_entry_times_and_regularity(self, tmp_path):
        cfg = write_cfg(tmp_path, self.SMALL_GENERAL_SWEEP)
        out = tmp_path / "sw"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "sweep_report.json").read_text())
        assert report["meta"]["r_min"] == 1.0 and report["failures"] == []
        for key in ("entry_times", "sup_velocity_bending", "sup_accel_l2", "regularity"):
            assert len(report[key]) == 1 and len(report[key][0]) == 3, key
        series = (out / "sweep_series.csv").read_text().splitlines()
        assert series[1] == ("radius,sample,tail_sup,entry_time,sup_velocity_bending,"
                             "sup_accel_l2,regularity")
        assert len(series) == 2 + 3

    def test_dimension_window_without_pairs_exits_before_output(self, tmp_path, capsys):
        # 101 tail snapshots leave 15 pairs beyond a Theiler window of 95
        text = SMALL_SIM.replace("t = 0.5", "t = 2.0").replace("snapshot_every = 5",
                                                               "snapshot_every = 1")
        text += "[dimension]\nmin_points = 50\ntheiler = 95\n"
        out = tmp_path / "dim"
        assert main(["dimension", "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 2
        assert "[dimension] theiler = 95 leaves 15 pairs" in capsys.readouterr().err
        assert not out.exists()

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

    def test_barrier_fit_subcommand(self, tmp_path, capsys):
        text = SMALL_SIM + "\n[barrier]\nt = 8\ndt = 0.005\n"
        cfg = write_cfg(tmp_path, text)
        outs = [tmp_path / "bar", tmp_path / "bar2"]
        for out in outs:
            assert main(["barrier", "--config", str(cfg), "--out", str(out)]) == 0
        report = (outs[0] / "barrier_report.json").read_text()
        assert (outs[1] / "barrier_report.json").read_text() == report
        rep = json.loads(report)
        assert rep["audit"]["bracket_violations"] == 0
        assert rep["balancing"] in ("PASS", "SKIPPED")
        assert set(rep["ultimate_bounds"]) == {"1", "10", "100"}
        assert sum(rep["fp_iterations"].values()) == 1600      # steps of the 8 / 0.005 run
        # the fitting run's horizon is `t`, as in every other run section
        fit_t = write_cfg(tmp_path, SMALL_SIM + "\n[barrier]\nfit_t = 8\n", "fit_t.cfg")
        assert main(["barrier", "--config", str(fit_t), "--out", str(tmp_path / "o")]) == 2
        assert "unknown key 'fit_t' in [barrier]" in capsys.readouterr().err

    def test_stationary_report_counts_fixed_point_iterations(self, tmp_path):
        text = config_text("gradient") + "[stationary]\nsamples = 2\nt = 0.2\n"
        cfg = write_cfg(tmp_path, text)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:        # too short a run to settle: FAIL
            assert main(["stationary", "--config", str(cfg), "--out", str(out)]) == 4
        text = (outs[0] / "stationary_report.json").read_text()
        assert (outs[1] / "stationary_report.json").read_text() == text
        report = json.loads(text)
        assert len(report["samples"]) == 2                      # 2 members, 100 steps each
        assert sum(report["meta"]["fp_iterations"].values()) == 2 * 100

    def test_pairs_report_counts_fixed_point_iterations(self, tmp_path):
        text = SMALL_SIM + "\n[pairs]\nn_pairs = 2\nt = 1\ndt = 0.005\n"
        cfg = write_cfg(tmp_path, text)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["pairs", "--config", str(cfg), "--out", str(out)]) == 0
        text = (outs[0] / "pairs_report.json").read_text()
        assert (outs[1] / "pairs_report.json").read_text() == text
        hist = json.loads(text)["fp_iterations"]
        assert list(hist) == sorted(hist, key=int)
        assert sum(hist.values()) == 2 * 2 * 200                # 2 pairs, 200 steps each

    def test_plots_flag_writes_svg(self, tmp_path):
        cfg = write_cfg(tmp_path, SMALL_SIM)
        out = tmp_path / "runp"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--plots"]) == 0
        svg = (out / "ledger.svg").read_text()
        assert svg.startswith("<svg") and "config_hash=" in svg

    def test_plots_flag_only_where_plots_exist(self, capsys):
        # barrier, dimension and stationary draw nothing, so argparse rejects it
        for name in ("barrier", "dimension", "stationary"):
            with pytest.raises(SystemExit) as exc:
                main([name, "--config", "x.cfg", "--plots"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --plots" in capsys.readouterr().err

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
        # fixed point; the partial trajectory must land on disk, and the
        # failure is reported by its own message, with no numpy warning
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
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert (out / "trajectory_partial.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert (load_trajectory(out / "trajectory_partial.json")["config_hash"]
                == manifest["config_hash"])


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

    @pytest.mark.parametrize("command, text, code", [
        ("simulate", SMALL_SIM, 0),
        ("barrier", SMALL_SIM + "\n[barrier]\nt = 1\ndt = 0.005\n", 0),
        ("pairs", SMALL_SIM + "\n[pairs]\nn_pairs = 1\nt = 1\ndt = 0.005\n", 0),
        ("stationary", config_text("gradient") + "[stationary]\nsamples = 1\nt = 0.2\n", 4),
    ], ids=["simulate", "barrier", "pairs", "stationary"])
    def test_run_log_takes_the_cost_and_nothing_else_changes(self, tmp_path, command, text,
                                                             code):
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "run"
        outputs = []
        for flags in ([], ["--overwrite"]):
            assert main([command, "--config", str(cfg), "--out", str(out), *flags]) == code
            outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "run.log"})
        assert "manifest.json" in outputs[0] and len(outputs[0]) >= 2
        assert outputs[1] == outputs[0]
        assert not any(b"wall_s" in data or b"peak_rss_mb" in data for data in outputs[0].values())
        costs = [line for line in (out / "run.log").read_text().splitlines() if "wall_s" in line]
        assert len(costs) == 2
        for line in costs:
            assert re.search(rf" {command} wall_s=\d+\.\d{{3}} peak_rss_mb=\d+\.\d$", line), line

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
        for name in preset_names():
            parsed = parse_config(write_cfg(tmp_path, config_text(name),
                                            f"{name}.cfg"))
            cfg, basis, oversample, plan, initial = make(name)
            assert parsed.cfg == cfg, name
            assert (parsed.mx, parsed.ny) == basis, name
            assert parsed.oversample == oversample, name
            assert parsed.plan == plan, name
            assert parsed.initial == initial, name

    @pytest.mark.parametrize("n_snap, n", [(0, 12), (1, 12), (4, 12), (1, 15), (4, 15)])
    def test_saved_trajectory_has_the_bytes_of_the_whole_object(self, tmp_path, n_snap, n):
        # rows of up to 12 short floats go on one line; a longer row, or one
        # with a 24-character float such as -1.2345678901234567e-300, does not
        from platelab.integrator import SimPlan, Trajectory
        from platelab.reporting import TRAJECTORY_CONTAINER, save_trajectory

        rng = np.random.default_rng(n_snap * 100 + n)
        us = rng.standard_normal((n_snap, n)) * 10.0 ** rng.integers(-300, 300, (n_snap, n))
        vs = rng.standard_normal((n_snap, n))
        if n_snap:
            us[0, :3] = np.nan, np.inf, -np.inf
            vs[-1, :2] = -0.0, np.nan
        traj = Trajectory(times=0.1 * np.arange(n_snap), us=us, vs=vs, ledger=None,
                          meta={"plan": SimPlan(dt=0.1), "Mx": 3, "Ny": n // 3})
        path = tmp_path / "traj.json"
        save_trajectory(path, traj, "deadbeef")
        whole = {"container": TRAJECTORY_CONTAINER, "config_hash": "deadbeef", "Mx": 3,
                 "Ny": n // 3, "dt": 0.1, "n_snapshots": n_snap,
                 "snapshots": [{"t": float(traj.times[i]), "u": us[i].tolist(),
                                "v": vs[i].tolist()} for i in range(n_snap)]}
        assert path.read_bytes() == to_json(whole).encode("utf-8")

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
