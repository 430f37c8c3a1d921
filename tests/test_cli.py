"""Config parsing, CLI subcommands, output formats, determinism."""

import configparser
import json
import re
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from platelab import attractor_lab, cli, integrator, presets
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


TABLES = "source_table_s = -2 -1 0 1 2\nsource_table_f = -8 -1 0 1 8"


# raw values that are empty, non-finite, out of range, huge, of the wrong
# shape or decreasing, for every key of SCHEMA
HOSTILE = ["", "nan", "inf", "-inf", "-1", "0", "-0.0", "1e400", "1e300", "-1e300", "1e-300",
           "1e16", "9007199254740993", "abc", "true", "1 2 3", "0 0", "2 1 0 -1 -2",
           "-2 -1 0 1 1", "-2 -1 0 1 2", "mode 9 9 1", "mode 1 0 1e308", "random 1e308",
           "stationary_kick inf", "custom", "cubic_minus_load", "0.5"]


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
        # analysed, every sample a FAIL, a negative norm or seed, a value
        # that is not a number
        text = MINIMAL.replace("beta = 0.5", "beta = nan") + f"""
[sim]
initial = {initial}
seed = -3
t = inf
[dimension]
tail_fraction = 2.5
[stationary]
speed_tol = 0.0
dist_tol = -1e-3
radius = -2.0
[pairs]
radius = -1.0
gap = nan
"""
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        keys = ["[sim] initial", "[sim] seed", "[sim] t", "[dimension] tail_fraction",
                "[stationary] speed_tol", "[stationary] dist_tol", "[stationary] radius",
                "[pairs] radius", "[pairs] gap", "[plate] beta"]
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

    def test_source_beyond_the_certificate_grid_rejected(self, tmp_path, capsys):
        # f0(s) = -2000 s needs c = 1000, above the largest candidate 512
        knots = np.arange(-10.0, 11.0)
        text = MINIMAL.replace("source = zero",
                               f"source = custom\nsource_table_s = {' '.join(map(str, knots))}\n"
                               f"source_table_f = {' '.join(map(str, -2000.0 * knots))}")
        cfg = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert err.value.problems == [
            "[plate] source violates the dissipativity bound: no (c, b) on the candidate "
            "grid certifies the bound (witness s = -10.0)"]
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "no (c, b) on the candidate grid" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("knots", ["2 1 0 -1 -2", "-2 -1 0 1 1"])
    def test_custom_source_knots_must_increase(self, tmp_path, knots):
        text = MINIMAL.replace("source = zero", f"source = custom\nsource_table_s = {knots}\n"
                                                "source_table_f = 8 1 0 -1 -8")
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert err.value.problems == ["[plate] custom source knots must be strictly increasing"]

    def test_bad_load_reported_once(self, tmp_path):
        text = MINIMAL.replace("source = zero", "source = cubic_minus_load\nload = nan")
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert err.value.problems == ["[plate] load = 'nan': must be finite"]

    @pytest.mark.parametrize("source, problem", [
        ("zero\nload = 5.0", "zero source takes no parameter, got load"),
        ("zero\n" + TABLES, "zero source takes no parameter, got table_s, table_f"),
        ("cubic_minus_load\nload = 1.0\n" + TABLES,
         "cubic_minus_load source takes load, got load, table_s, table_f"),
        ("custom\nload = 1.0\n" + TABLES,
         "custom source takes table_s and table_f, got load, table_s, table_f"),
        ("cubic_minus_load", "cubic_minus_load source takes load, got none"),
        ("custom", "custom source takes table_s and table_f, got none"),
    ], ids=["zero-load", "zero-tables", "cubic-tables", "custom-load", "cubic-no-load",
            "custom-no-tables"])
    def test_source_takes_exactly_its_parameters(self, tmp_path, capsys, source, problem):
        """A source parameter its kind does not read, or one it reads left
        out, is one [plate] problem, and the run writes nothing."""
        cfg = write_cfg(tmp_path, MINIMAL.replace("source = zero", f"source = {source}"))
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config invalid:\n  - [plate] {problem}\n"
        assert not out.exists()

    def test_missing_source_reported_once(self, tmp_path):
        # the default kind, zero, does not read `load`, but the one mistake is
        # the missing key
        text = MINIMAL.replace("source = zero", "load = 5.0")
        with pytest.raises(ConfigError) as err:
            parse_config(write_cfg(tmp_path, text))
        assert err.value.problems == ["[plate] missing required key 'source' "
                                      "(physical parameters have no silent defaults)"]

    @pytest.mark.parametrize("section, key", [(s, k) for s, keys in SCHEMA.items()
                                              for k in keys])
    def test_no_value_escapes_config_error(self, tmp_path, section, key):
        """Every hostile raw value of every key, on a zero and on a custom
        source, either parses or is a ConfigError."""
        custom = MINIMAL.replace("source = zero", "source = custom\n"
                                 "source_table_s = -2 -1 0 1 2\nsource_table_f = -8 -1 0 1 8")
        escaped = []
        for base in (MINIMAL, custom):
            for raw in HOSTILE:
                cp = configparser.ConfigParser()
                cp.read_string(base)
                cp.read_dict({section: {key: raw}})
                with open(tmp_path / "case.cfg", "w", encoding="utf-8") as fh:
                    cp.write(fh)
                try:
                    parse_config(tmp_path / "case.cfg")
                except ConfigError:
                    pass
                except Exception as exc:        # any other exception is an escape
                    escaped.append((raw, base is custom, repr(exc)))
        assert escaped == []

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
        table's doc line and default, and lists no other key; each example
        block that states [plate] is a valid config, and so is the first one
        with each block of experiment sections."""
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
        for block in blocks:
            parse_config(write_cfg(tmp_path, block if "[plate]" in block else blocks[0] + block))


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


# conservative single mode: a periodic orbit with dimension ~1
CIRCLE = """
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

    @pytest.mark.parametrize("overwrite", [[], ["--overwrite"]])
    @pytest.mark.parametrize("under", ["", "sub"])
    def test_file_as_output_directory_exits_2(self, tmp_path, capsys, under, overwrite):
        cfg = write_cfg(tmp_path, SMALL_SIM)
        out = tmp_path / "run"
        out.write_text("not a directory")
        for command in (["simulate", "--config", str(cfg)], ["barrier", "--toy"]):
            assert main([*command, "--out", str(out / under), *overwrite]) == 2
            assert "is not a directory" in capsys.readouterr().err
        assert out.read_text() == "not a directory"

    def test_barrier_toy_obeys_the_overwrite_guard(self, tmp_path, capsys):
        out = tmp_path / "toy"
        out.mkdir()
        (out / "other.txt").write_text("kept")
        assert main(["barrier", "--toy", "--out", str(out)]) == 2
        assert "not empty" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["other.txt"]
        assert main(["barrier", "--toy", "--out", str(out), "--overwrite"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["barrier_toy.json", "other.txt"]

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
        ("barrier", "levels", "1 1.0 10"),  # one report entry per level
        ("barrier", "levels", ""),
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
        assert capsys.readouterr().err.count(f"[{section}] {key}") == 1
        assert not out.exists()

    def test_negative_seed_flag_exits_before_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, config_text("gradient"))),
                     "--out", str(out), "--seed", "-1"]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "dimension"])
    def test_horizon_beyond_exact_step_count_exits_before_output(self, tmp_path, capsys,
                                                                 command):
        text = config_text("gradient").replace("T = 60.0", "T = 1e30")
        out = tmp_path / "out"
        assert main([command, "--config", str(write_cfg(tmp_path, text)),
                     "--out", str(out)]) == 2
        assert "[sim] t/dt = 5e+32 steps exceeds 2**53" in capsys.readouterr().err
        assert not out.exists()

    def test_unallocatable_run_is_a_numerical_failure(self, tmp_path, capsys, monkeypatch):
        def run(*args):
            raise MemoryError("Unable to allocate 146. TiB")
        monkeypatch.setattr(cli, "run", run)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, SMALL_SIM)),
                     "--out", str(out)]) == 3
        assert "numerical failure: Unable to allocate 146. TiB" in capsys.readouterr().err
        assert "simulate wall_s=" in (out / "run.log").read_text()

    def test_unbuildable_basis_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        def make_operators(*args):
            raise MemoryError("Unable to allocate 256. PiB")
        monkeypatch.setattr(cli, "make_operators", make_operators)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(write_cfg(tmp_path, SMALL_SIM)),
                     "--out", str(out)]) == 3
        assert "numerical failure: Unable to allocate 256. PiB" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        ("sweep", "[sweep]\nradii = 1\nsamples_per_radius = 1\nt = 0.1\ndt = 0.01\n"),
        ("dimension", "[dimension]\nmin_points = 20\ntheiler = 0\n"),
        ("stationary", "[stationary]\nsamples = 1\nt = 0.2\n"),
    ], ids=["sweep", "dimension", "stationary"])
    def test_report_keys_are_its_result_fields(self, tmp_path, command, extra):
        base = config_text("gradient") if command == "stationary" else \
            SMALL_SIM.replace("snapshot_every = 5", "snapshot_every = 1")
        out = tmp_path / "out"
        assert main([command, "--config", str(write_cfg(tmp_path, base + extra)),
                     "--out", str(out)]) in (0, 4)
        report = json.loads((out / f"{command}_report.json").read_text())
        result = getattr(attractor_lab, f"{command.title()}Report")
        assert list(report) == ["config_hash"] + [f.name for f in fields(result)]
        for sample in report.get("samples", []):
            assert list(sample) == [f.name for f in fields(attractor_lab.StationarySample)]

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

    def test_dimension_pre_check_is_exact(self, tmp_path):
        # 180 steps of 0.01 from t = 0 leave 91 snapshots at t >= 0.9; on a
        # clock summed step by step the 90th falls below half the end time
        text = CIRCLE.replace("t = 90.0", "t = 1.8").replace("snapshot_every = 2",
                                                             "snapshot_every = 1")
        text = text.replace("min_points = 2000", "min_points = 91")
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "dim"
        assert main(["dimension", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads((out / "dimension_report.json").read_text())["n_points"] == 91

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
        cfg = write_cfg(tmp_path, CIRCLE)
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
        # every subcommand that takes --plots draws its SVG, stamped with the config hash;
        # the sweep and the pairs plans are too short to pass, and draw their FAIL too
        for command, extra, name, code in (
                ("simulate", "", "ledger.svg", 0),
                ("sweep", "[sweep]\nradii = 0.5 1\nsamples_per_radius = 1\nt = 0.1\n"
                          "dt = 0.01\n", "sweep.svg", 4),
                ("pairs", "[pairs]\nn_pairs = 2\nt = 0.1\ndt = 0.01\n", "pairs.svg", 4)):
            out = tmp_path / command
            cfg = write_cfg(tmp_path, SMALL_SIM + extra, f"{command}.cfg")
            assert main([command, "--config", str(cfg), "--out", str(out),
                         "--plots"]) == code, command
            chash = json.loads((out / "manifest.json").read_text())["config_hash"]
            svg = (out / name).read_text()
            assert svg.startswith("<svg") and f"config_hash={chash}" in svg, command

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

    def test_overflowed_ledger_exit_and_partial_flush(self, tmp_path, capsys):
        # the squared norms of a 1e160 start overflow: the member's ledger is
        # not finite from its first snapshot, so no snapshot precedes it
        text = config_text("conservative").replace("initial = mode 1 0 1.0",
                                                   "initial = random 1e160")
        cfg = write_cfg(tmp_path, text.replace("T = 680.0", "T = 1.0"))
        out = tmp_path / "huge"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert rc == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert ("numerical failure: energy ledger fails at t = 0.0: an entry is not finite"
                in capsys.readouterr().err)
        assert load_trajectory(out / "trajectory_partial.json")["snapshots"] == []
        assert not (out / "ledger.csv").exists()

    @pytest.mark.parametrize("command", ["barrier", "dimension", "pairs", "stationary"])
    def test_failed_run_keeps_its_partial(self, tmp_path, capsys, monkeypatch, command):
        # a step of 0.5 from radius 50 defeats the fixed point at once; the
        # partial is the first failed member's run, in member order (beta = 0
        # so that stationary runs)
        text = config_text("general").replace("mx = 8", "mx = 3").replace("ny = 8", "ny = 2")
        text = text.replace("beta = 1.0", "beta = 0.0")
        text = text.replace("dt = 0.001", "dt = 0.5").replace("T = 5.0", "T = 25.0")
        text = text.replace("initial = stationary_kick 0.2", "initial = random 50.0") + """
[barrier]
dt = 0.5
[dimension]
min_points = 20
theiler = 1
[pairs]
n_pairs = 2
radius = 50.0
dt = 0.5
[stationary]
samples = 2
radius = 50.0
dt = 0.5
"""
        ended = []
        for module in (integrator, attractor_lab):
            def recording(*args, _run=module.run_ensemble, **kwargs):
                ended.append(_run(*args, **kwargs))
                return ended[-1]
            monkeypatch.setattr(module, "run_ensemble", recording)
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "run"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 3
        assert "fixed point did not converge" in capsys.readouterr().err
        (results,) = ended
        first = next(r for r in results if isinstance(r, integrator.IntegratorError))
        partial = load_trajectory(out / "trajectory_partial.json")
        manifest = json.loads((out / "manifest.json").read_text())
        assert partial["config_hash"] == manifest["config_hash"]
        assert partial["n_snapshots"] == len(first.partial) >= 1
        for snap, t, u, v in zip(partial["snapshots"], first.partial.times, first.partial.us,
                                 first.partial.vs):
            assert (snap["t"], snap["u"], snap["v"]) == (t, u.tolist(), v.tolist())

    def test_ledger_failure_ends_only_its_member(self, tmp_path):
        # with delta = 0 the Berger pad alpha^2/4 cannot bound -alpha/2
        # ||u_x||^2 at radius 3, so that member's Pi0 is negative; the
        # radius-0.1 member settles as it does alone
        text = """
[plate]
alpha = 0.5
delta = 0.0
beta = 0.0
kappa = 0.0
damping = 0.5 0.0 1.0
source = zero
[basis]
mx = 4
ny = 3
[sweep]
radii = 0.1 3
samples_per_radius = 1
t = 1.0
dt = 0.01
"""
        cfg = write_cfg(tmp_path, text)
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 4
        report = json.loads((tmp_path / "sw" / "sweep_report.json").read_text())
        assert report["blowups"] == [[1, 0]]
        (failure,) = report["failures"]
        assert failure["message"].startswith("energy ledger fails at t = 0.0: Pi0 = ")
        assert "with delta = 0" in failure["message"] and failure["t"] is None
        assert 0.0 < report["tail_sups"][0][0] < 0.1


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
        # each preset is its config file, read through the one config gate
        folder = Path(presets.__file__).with_name("preset_configs")
        assert preset_names() == ["chaotic", "conservative", "general", "gradient",
                                  "periodic", "point"]
        assert sorted(p.name for p in folder.iterdir()) == [f"{n}.cfg" for n in preset_names()]
        for name in preset_names():
            assert config_text(name).encode("utf-8") == (folder / f"{name}.cfg").read_bytes()
            parsed = parse_config(write_cfg(tmp_path, config_text(name), f"{name}.cfg"))
            assert make(name) == (parsed.cfg, (parsed.mx, parsed.ny), parsed.oversample,
                                  parsed.plan, parsed.initial), name

    @pytest.mark.parametrize("reader", [make, config_text])
    def test_unknown_preset_names_the_choices(self, reader):
        with pytest.raises(KeyError, match=r"unknown preset 'flutter'; choices: \[.*'general'"):
            reader("flutter")

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
