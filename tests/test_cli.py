"""End-to-end tests for the command line interface."""

import csv
import io
import json
import math
import subprocess
import sys

import pytest

from pnp_steric import cli
from pnp_steric.errors import ConfigError


def invoke(args, capsys):
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestParseConfig:
    def test_defaults_filled(self):
        cfg = cli.parse_config({}, "critical")
        assert cfg["rho0"] == 0.5
        assert cfg["format"] == "csv"
        assert cfg["branch"] == "A"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config({"gz": 1.0}, "critical")

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            cli.parse_config({"g": "fast"}, "critical")
        with pytest.raises(ConfigError):
            cli.parse_config({"epsilon": -1.0}, "solve")
        with pytest.raises(ConfigError):
            cli.parse_config({"branch": "C"}, "solve")
        with pytest.raises(ConfigError):
            cli.parse_config({"out": True}, "critical")

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--epsilon", "nan"],
            ["solve", "--eta", "nan"],
            ["solve", "--n-nodes", "3"],
            ["current", "--d1", "0"],
            ["current", "--d2", "inf"],
            ["current", "--d3", "-1"],
            ["current", "--species", "four", "--g2", "1", "--z2", "25",
             "--rho0", "-0.3", "--d4", "nan"],
            ["current", "--charge-scale", "0"],
            ["branches", "--n-sigma", "-3"],
            ["branches", "--n-sigma", "0"],
            ["branches", "--sigma-max", "nan"],
            ["current", "--x1", "nan"],
            ["current", "--x1", "-5"],
            ["current", "--x2", "inf"],
            ["current", "--x1", "0.4", "--x2", "0.2"],
            ["solve", "--phi0-left", "nan"],
            ["solve", "--phi0-right", "inf"],
            ["solve", "--rho0", "nan"],
            ["solve", "--rho0", "inf"],
            ["solve", "--z3", "-1"],
            ["solve", "--z3", "nan"],
            ["solve", "--species", "four", "--g2", "1", "--z2", "25",
             "--rho0", "nan"],
            ["solve", {"n_nodes": 1e400}],
            ["solve", {"n_nodes": 300.7}],
            ["solve", {"z": True, "g": False}],
        ],
        ids=["epsilon", "eta", "n_nodes", "d1", "d2", "d3", "d4", "charge_scale",
             "n_sigma_negative", "n_sigma_zero", "sigma_max", "x1_nan",
             "x1_outside", "x2_inf", "window_order", "phi0_left", "phi0_right",
             "rho0_nan", "rho0_inf", "z3_negative", "z3_nan", "rho0_nan_four",
             "n_nodes_overflow", "n_nodes_fraction", "boolean_couplings"],
    )
    def test_bad_numbers_are_configuration_errors(self, args, tmp_path, capsys):
        # g = 1, z = 40 come from a config file, with a trailing dict on top
        raw = {"g": 1, "z": 40}
        if isinstance(args[-1], dict):
            raw.update(args[-1])
            args = args[:-1]
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(raw))
        code, _, err = invoke(args + ["--config", str(cfgfile)], capsys)
        assert code == 2
        assert "configuration error" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["critical", "--g", "1e160", "--z", "40"],
            ["critical", "--g", "1e154", "--z", "40"],
            ["critical", "--g", "1", "--z", "1e160"],
            ["solve", "--g", "1", "--z", "1e160"],
            ["current", "--species", "four", "--g", "1", "--z", "25",
             "--g2", "1", "--z2", "1e160", "--rho0", "-0.3"],
        ],
        ids=["critical_g", "critical_g_bracket", "critical_z", "solve_z",
             "current_z2"],
    )
    def test_couplings_whose_square_overflows(self, args, capsys):
        code, _, err = invoke(args, capsys)
        assert code == 2
        assert "configuration error" in err

    def test_background_sign_rules(self):
        with pytest.raises(ConfigError):
            cli.parse_config({"rho0": 0.0, "g": 1, "z": 40}, "solve")
        with pytest.raises(ConfigError):
            cli.parse_config({"species": "four", "rho0": 0.0}, "current")
        # sign rules only apply where the reduced problem is built
        cli.parse_config({"rho0": 0.0}, "critical")


class TestCritical:
    def test_known_constants_csv(self, capsys):
        code, out, _ = invoke(
            ["critical", "--g", "0", "--z", "3"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sigma_z,g_crit,sigma_c,phi_crit"
        sz, gc, sc, pc = (float(v) for v in lines[1].split(","))
        assert gc == pytest.approx(math.e, abs=1e-8)
        assert sc == pytest.approx(2.0 * math.log(3.0) / 3.0, abs=1e-10)
        assert pc > 0

    def test_subcritical_reports_none(self, capsys):
        code, out, _ = invoke(
            ["critical", "--g", "1", "--z", "2", "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        consts = report["results"]["constants"]
        assert consts["sigma_c"] is None and consts["phi_crit"] is None

    def test_json_round_trips(self, capsys):
        code, out, _ = invoke(
            ["critical", "--g", "1", "--z", "20", "--format", "json"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert json.dumps(report, indent=2) + "\n" == out
        assert report["warnings"] == []
        assert report["config"]["mode"] == "critical"

    def test_tiny_turning_point(self, capsys):
        code, out, _ = invoke(["critical", "--g", "1", "--z", "1e154"], capsys)
        assert code == 0
        sz, _, sc, _ = (float(v) for v in out.strip().splitlines()[1].split(","))
        assert sz < sc

    def test_csv_cells_are_full_precision(self, capsys):
        code, out, _ = invoke(["critical", "--g", "1", "--z", "20"], capsys)
        _, row = out.strip().splitlines()
        sz = row.split(",")[0]
        assert float(sz) == float(repr(float(sz)))
        assert len(sz.split(".")[-1]) >= 15


class TestBranches:
    def test_table_shape(self, capsys):
        code, out, _ = invoke(
            ["branches", "--g", "1", "--z", "20", "--n-sigma", "7",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        table = json.loads(out)["results"]["branches"]
        assert table["columns"] == ["sigma", "c1_A", "c2_A", "phi_A", "phi_B"]
        assert len(table["rows"]) == 7
        first = table["rows"][0]
        assert first[3] == pytest.approx(0.0, abs=1e-12)

    def test_bad_sigma_max(self, capsys):
        code, _, err = invoke(
            ["branches", "--g", "1", "--z", "20", "--sigma-max", "0.01"], capsys
        )
        assert code == 2
        assert "sigma_max" in err


class TestSolveAndCurrent:
    ARGS = ["--g", "1", "--z", "40", "--rho0", "0.5", "--epsilon", "5e-2",
            "--n-nodes", "401"]

    def test_solve_constant(self, capsys):
        code, out, _ = invoke(
            ["solve", "--format", "json"] + self.ARGS, capsys
        )
        assert code == 0
        report = json.loads(out)
        summary = report["results"]["summary"]
        assert summary["classification"] == "constant"
        profile = report["results"]["profile"]
        assert profile["columns"] == ["x", "phi", "c1", "c2", "c3"]
        phi_col = [row[1] for row in profile["rows"]]
        assert max(abs(p - summary["root"]) for p in phi_col) < 1e-12

    def test_solve_csv_blocks(self, capsys):
        code, out, _ = invoke(["solve"] + self.ARGS, capsys)
        assert code == 0
        blocks = out.split("\n\n")
        assert len(blocks) == 2
        assert blocks[0].splitlines()[0] == "x,phi,c1,c2,c3"
        assert blocks[1].splitlines()[0].startswith("root,classification")

    def test_current_summary(self, capsys):
        code, out, _ = invoke(
            ["current", "--format", "json", "--phi0-left", "1.3",
             "--phi0-right", "1.0", "--d2", "2.0"] + self.ARGS,
            capsys,
        )
        assert code == 0
        summary = json.loads(out)["results"]["summary"]
        ix, isg = summary["integral_x"], summary["integral_sigma"]
        assert abs(ix - isg) <= max(1e-6, 1e-4 * abs(isg))

    def test_degenerate_window(self, capsys):
        code, out, _ = invoke(
            ["current", "--format", "json", "--x1", "0.2", "--x2", "0.2"]
            + self.ARGS,
            capsys,
        )
        assert code == 0
        summary = json.loads(out)["results"]["summary"]
        assert summary["integral_x"] == 0.0
        assert summary["integral_sigma"] == 0.0

    def test_solver_failure_exit_code(self, capsys):
        code, _, err = invoke(
            ["solve", "--g", "1", "--z", "20", "--branch", "B"], capsys
        )
        assert code == 3
        assert "solve" in err

    def test_four_species(self, capsys):
        code, out, _ = invoke(
            ["solve", "--species", "four", "--g", "1", "--z", "25",
             "--g2", "1", "--z2", "25", "--q2", "2", "--rho0", "-0.3",
             "--epsilon", "5e-2", "--n-nodes", "401", "--format", "json"],
            capsys,
        )
        assert code == 0
        profile = json.loads(out)["results"]["profile"]
        assert profile["columns"] == ["x", "phi", "c1", "c2", "c3", "c4"]


class TestFilesAndConfig:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"g": 0.0, "z": 5.0, "format": "json"}))
        code, out, _ = invoke(
            ["critical", "--config", str(cfgfile), "--z", "3"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["config"]["z"] == 3.0
        assert report["results"]["constants"]["sigma_c"] == pytest.approx(
            2.0 * math.log(3.0) / 3.0, abs=1e-10
        )

    def test_bad_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "broken.json"
        cfgfile.write_text("{not json")
        code, _, err = invoke(["critical", "--config", str(cfgfile)], capsys)
        assert code == 2
        assert "JSON" in err

    def test_out_file_and_env_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        code, out, _ = invoke(
            ["critical", "--g", "0", "--z", "3", "--out", "report.csv"], capsys
        )
        assert code == 0
        assert out == ""
        text = (tmp_path / "report.csv").read_text()
        assert text.splitlines()[0] == "sigma_z,g_crit,sigma_c,phi_crit"

    def test_sweep_writes_manifest(self, tmp_path, capsys):
        code, _, _ = invoke(
            ["sweep", "--target", "critical", "--param", "z",
             "--values", "3,5", "--g", "0", "--format", "json",
             "--out", str(tmp_path / "scan")],
            capsys,
        )
        assert code == 0
        manifest = json.loads((tmp_path / "scan_manifest.json").read_text())
        assert manifest["parameter"] == "z"
        assert len(manifest["points"]) == 2
        for point, z in zip(manifest["points"], (3.0, 5.0)):
            report = json.loads(open(point["file"]).read())
            assert report["config"]["z"] == z
            assert report["results"]["constants"]["sigma_c"] == pytest.approx(
                2.0 * math.log(z) / z, abs=1e-10
            )

    def test_sweep_requires_out(self, capsys):
        code, _, err = invoke(
            ["sweep", "--target", "critical", "--param", "z", "--values", "3"],
            capsys,
        )
        assert code == 2
        assert "out" in err

    def test_sweep_rejects_unknown_param(self, capsys):
        code, _, err = invoke(
            ["sweep", "--target", "critical", "--param", "bogus",
             "--values", "3", "--out", "x"],
            capsys,
        )
        assert code == 2


class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pnp_steric.cli", "critical",
             "--g", "0", "--z", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "sigma_z,g_crit,sigma_c,phi_crit"


def _csv_reference(report):
    """CSV text from csv.writer and _format_cell on every cell, table or not."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for i, payload in enumerate(report["results"].values()):
        if i:
            buf.write("\n")
        if "columns" in payload:
            cols, rows = payload["columns"], payload["rows"]
        else:
            cols, rows = list(payload), [list(payload.values())]
        writer.writerow(cols)
        for row in rows:
            writer.writerow([cli._format_cell(v) for v in row])
    return buf.getvalue()


def assert_same_text(got, want):
    # line by line: pytest's own diff of two long unequal strings takes minutes
    for k, (a, b) in enumerate(zip(got.splitlines(True), want.splitlines(True))):
        assert a == b, "first difference on line %d" % (k + 1)
    assert len(got) == len(want)


FOUR_CURRENT = ["current", "--species", "four", "--g", "1", "--z", "25", "--g2", "1",
                "--z2", "25", "--q2", "2", "--rho0", "-0.3", "--phi0-left", "0.25",
                "--phi0-right", "0.05", "--d2", "2", "--d4", "0.5"]


class TestRendering:
    @pytest.mark.parametrize(
        "args",
        [
            ["solve"] + TestSolveAndCurrent.ARGS,
            ["solve", "--g", "1", "--z", "40", "--phi0-left", "1.3",
             "--phi0-right", "1.0", "--epsilon", "1e-3", "--eta", "0.03"],
            ["current", "--phi0-left", "1.3", "--phi0-right", "1.0", "--d2", "2"]
            + TestSolveAndCurrent.ARGS,
            FOUR_CURRENT,
            ["branches", "--g", "0", "--z", "1000", "--sigma-max", "100000"],
            ["critical", "--g", "1", "--z", "2"],
        ],
        ids=["solve", "solve_robin", "current", "current_four", "branches",
             "critical_subcritical"],
    )
    def test_json_and_csv_text(self, args, capsys):
        code, out, _ = invoke(args + ["--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert_same_text(out, json.dumps(report, indent=2) + "\n")
        code, out, _ = invoke(args, capsys)
        assert code == 0
        assert_same_text(out, _csv_reference(report))

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [[1.5, -2.0]],
            [[math.nan, math.inf], [-math.inf, -0.0]],
            [[5e-324, -2.2250738585072014e-308], [1e300, 0.1]],
            [[], [0.0]],
        ],
        ids=["no_rows", "one_row", "non_finite", "subnormal_and_extreme",
             "empty_row"],
    )
    def test_edge_cells_match_the_stdlib(self, rows):
        width = max((len(r) for r in rows), default=0)
        table = {"columns": ["c%d" % i for i in range(width)], "rows": rows}
        report = {
            # strings that look like the renderer's placeholder stay strings
            "config": {"out": 'rows": "\x00', "mode": "\u0000"},
            "results": {
                "first": table,
                "summary": {"root": math.nan, "label": "A", "n": 3},
                "second": {"columns": ["x"], "rows": [[-0.0], [math.inf]]},
            },
            "warnings": ['"rows": "\x00"'],
        }
        want = json.dumps(report, indent=2) + "\n"
        assert_same_text(cli._render(report, "json"), want)
        assert_same_text(cli._render(report, "csv"), _csv_reference(report))

    def test_parser_is_shared_and_keeps_no_state(self, capsys):
        code, first, _ = invoke(
            ["current", "--format", "json", "--d2", "2"] + TestSolveAndCurrent.ARGS,
            capsys,
        )
        assert code == 0
        # no flag of the first call leaks into the second
        code, second, _ = invoke(["critical", "--g", "0", "--z", "3"], capsys)
        assert code == 0
        assert second.splitlines()[0] == "sigma_z,g_crit,sigma_c,phi_crit"
        sz, gc, _, _ = (float(v) for v in second.splitlines()[1].split(","))
        assert gc == pytest.approx(math.e, abs=1e-8)
        code, again, _ = invoke(
            ["current", "--format", "json", "--d2", "2"] + TestSolveAndCurrent.ARGS,
            capsys,
        )
        assert_same_text(again, first)
        assert json.loads(first)["config"]["d2"] == 2.0
        assert cli._build_parser() is cli._build_parser()

    def test_parser_is_not_built_at_import(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from pnp_steric import cli; "
             "print(cli._build_parser.cache_info().currsize)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0"
