"""Command-line surface: subcommands, exit codes, machine reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lorentzgeo
from lorentzgeo.cli import main
from lorentzgeo.manifold import load_spec


def run_cli(*argv, json_path=None):
    args = list(argv)
    if json_path is not None:
        args += ["--json", str(json_path)]
    code = main(args)
    report = None
    if json_path is not None:
        with open(json_path) as fh:
            report = json.load(fh)
    return code, report


class TestExitCodes:
    def test_validate_catalog_entry(self):
        assert main(["validate", "minkowski2"]) == 0

    def test_witness_pass_is_zero(self):
        assert main(["witness", "torus_family"]) == 0

    def test_scope_mismatch_is_two(self):
        # odd-dimensional chart with a timelike field: hypotheses not met
        assert main(["witness", "hopf_lorentz_s3", "--grid", "10"]) == 2

    def test_unknown_spec_is_systemexit(self):
        with pytest.raises(SystemExit):
            main(["validate", "no_such_chart"])

    def test_bad_point_is_systemexit(self):
        with pytest.raises(SystemExit):
            main(["curvature", "minkowski2", "--at", "zero,zero"])

    @pytest.mark.parametrize("coord", ["nan", "inf"])
    def test_non_finite_point_is_an_error_message(self, capsys, coord):
        assert main(["curvature", "torus_family", "--at", f"0.5,{coord}"]) == 1
        assert f"error: coordinate y={coord} is not finite" in capsys.readouterr().err

    def test_grid_too_large_to_allocate_is_an_error_message(self, capsys):
        # 10^16 nodes: the request exceeds the address space, so numpy
        # refuses it at once without touching memory
        assert main(["extrema", "schwarzschild_exterior", "--grid", "10000"]) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")


class TestReports:
    def test_flat_plane_curvature(self, tmp_path):
        code, rep = run_cli("curvature", "minkowski2", "--at", "0,0",
                            "--plane", "1,0;0,1", json_path=tmp_path / "r.json")
        assert code == 0
        values = rep["results"][0]["values"]
        assert values["sectional"] == 0.0
        assert values["scalar_curvature"] == 0.0

    def test_machine_report_schema(self, tmp_path):
        code, rep = run_cli("catalog", "run", "torus_family",
                            json_path=tmp_path / "r.json")
        assert code == 0
        assert set(rep) == {"tool", "version", "command", "spec_hash",
                            "results", "summary"}
        assert rep["spec_hash"]
        for row in rep["results"]:
            assert set(row) == {"op", "inputs", "values", "verdict", "tolerance"}
        assert rep["summary"]["verdict"] == "PASS"

    def test_reports_are_byte_identical(self, tmp_path):
        run_cli("catalog", "run", "minkowski2", json_path=tmp_path / "a.json")
        run_cli("catalog", "run", "minkowski2", json_path=tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_consecutive_calls_keep_no_state(self, tmp_path, capsys):
        # the parser is built once per process; a flag of one call must
        # not carry over into the next
        first = tmp_path / "first.json"
        assert main(["catalog", "run", "minkowski2", "--json", str(first)]) == 0
        before = sorted(tmp_path.iterdir())
        assert main(["catalog", "run", "minkowski2"]) == 0
        assert sorted(tmp_path.iterdir()) == before
        assert first.stat().st_size > 0

    def test_classify_report(self, tmp_path):
        code, rep = run_cli("classify", "torus_family", json_path=tmp_path / "r.json")
        assert code == 0
        assert rep["results"][0]["values"]["tag"] == "killing"

    def test_extrema_report(self, tmp_path):
        code, rep = run_cli("extrema", "torus_family", json_path=tmp_path / "r.json")
        assert code == 0
        kinds = {r["values"].get("kind") for r in rep["results"][1:]}
        assert kinds == {"local_min", "local_max"}

    def test_signscan_finds_zero(self, tmp_path):
        code, rep = run_cli("signscan", "torus_family", "--path", "0.5,0;0,0",
                            "--planes", "4", json_path=tmp_path / "r.json")
        assert code == 0
        values = rep["results"][0]["values"]
        assert values["sign_change"] is True
        assert values["zeros"][0]["point"][0] == pytest.approx(0.25, abs=2 / 64)

    def test_conformal_counterexample_report(self, tmp_path):
        """Exit 0: the lower bound holds even though the unconditional
        sign check fails (that failure is the expected outcome here)."""
        code, rep = run_cli("conformal", "conformal_counterexample",
                            json_path=tmp_path / "r.json")
        assert code == 0
        values = rep["results"][0]["values"]
        assert values["bound_verdict"] == "PASS"
        assert values["nonnegativity_verdict"] == "FAIL"
        assert values["x_sigma"] == pytest.approx(-8.0, abs=1e-9)

    def test_witness_values(self, tmp_path):
        code, rep = run_cli("witness", "torus_family", json_path=tmp_path / "r.json")
        assert code == 0
        rows = {r["values"]["kind"]: r for r in rep["results"]}
        assert rows["local_min"]["values"]["value"] == pytest.approx(9.8696044, abs=1e-4)
        assert rows["local_min"]["verdict"] == "PASS"
        assert rows["local_max"]["values"]["value"] == pytest.approx(-9.8696044, abs=1e-4)


class TestDocumentIO:
    def test_catalog_export_is_loadable(self, capsys):
        assert main(["catalog", "export", "schwarzschild_exterior"]) == 0
        doc = capsys.readouterr().out
        spec = load_spec(doc)
        assert spec.dim == 4
        assert spec.params["m"] == 1.0

    def test_lift_writes_loadable_document(self, tmp_path):
        out = tmp_path / "lift.chart"
        code = main(["lift", "torus_family", "--c", "1.224744871391589",
                     "--out", str(out)])
        assert code == 0
        spec = load_spec(out.read_text())
        assert spec.dim == 3
        assert "Xbar" in spec.fields

    @pytest.mark.parametrize("c", ["nan", "inf"])
    def test_lift_refuses_non_finite_constant(self, tmp_path, capsys, c):
        out = tmp_path / "lift.chart"
        assert main(["lift", "torus_family", "--c", c, "--out", str(out)]) == 1
        assert "lift constant c must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_lorentzianize_writes_document(self, tmp_path):
        out = tmp_path / "flip.chart"
        code = main(["lorentzianize", "round_s3", "--out", str(out)])
        assert code == 0
        spec = load_spec(out.read_text())
        assert spec.signature == "lorentzian"

    def test_validate_document_file(self, tmp_path, capsys):
        main(["catalog", "export", "torus_family"])
        doc = capsys.readouterr().out
        path = tmp_path / "torus.chart"
        path.write_text(doc)
        assert main(["validate", str(path)]) == 0

    @pytest.mark.parametrize("entry,message", [
        ("1 + 1e400*x", "number '1e400' overflows (at position 4)"),
        ("1 + x^(1e308*10)", "non-finite value in '1e+308*10'"),
    ])
    def test_overflowing_number_is_an_error_message(self, tmp_path, capsys, entry, message):
        path = tmp_path / "big.chart"
        path.write_text('[manifold]\ndim = 2\ncoords = t, x\nrange.t = -1, 1\n'
                        'range.x = -1, 1\nsignature = lorentzian\n\n[metric]\n'
                        f'g.0.0 = "-1"\ng.1.1 = "{entry}"\n')
        assert main(["validate", str(path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("range_x,params,message", [
        ("0, inf", "", "error: range.x: 'inf' is not a finite decimal number"),
        ("-1, 1", "[params]\na = nan\n", "error: param a: 'nan' is not a finite decimal number"),
    ], ids=["range-inf", "param-nan"])
    def test_non_finite_decimal_is_an_error_message(self, tmp_path, capsys,
                                                    range_x, params, message):
        path = tmp_path / "bad.chart"
        path.write_text('[manifold]\ndim = 2\ncoords = t, x\nrange.t = -1, 1\n'
                        f'range.x = {range_x}\nsignature = lorentzian\n\n{params}'
                        '[metric]\ng.0.0 = "-1"\ng.1.1 = "1"\n')
        assert main(["validate", str(path)]) == 1
        assert message in capsys.readouterr().err.splitlines()

    def test_entry_too_deep_for_the_tree_walkers_is_an_error_message(self, tmp_path, capsys):
        terms = " + ".join(f"cos({k}*x)" for k in range(1, 1501))
        path = tmp_path / "deep.chart"
        path.write_text('[manifold]\ndim = 2\ncoords = t, x\nrange.t = -1, 1\n'
                        'range.x = -1, 1\nsignature = lorentzian\n\n[metric]\n'
                        f'g.0.0 = "-1"\ng.1.1 = "3 + 0.001*({terms})"\n')
        assert main(["validate", str(path)]) == 1
        assert "metric entry g.1.1 is nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("deep", ["(" * 3000 + "x" + ")" * 3000, "-" * 4000 + "1"],
                             ids=["parentheses", "unary-minus"])
    def test_entry_too_deep_for_the_parser_is_an_error_message(self, tmp_path, capsys, deep):
        path = tmp_path / "deep.chart"
        path.write_text('[manifold]\ndim = 2\ncoords = t, x\nrange.t = -1, 1\n'
                        'range.x = -1, 1\nsignature = lorentzian\n\n[metric]\n'
                        f'g.0.0 = "-1"\ng.1.1 = "{deep}"\n')
        assert main(["validate", str(path)]) == 1
        assert "error: metric g.1.1: expression is nested too deeply" in capsys.readouterr().err


def test_module_entry_point_runs():
    # the child imports the same package as this process, installed or not
    src = str(Path(lorentzgeo.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "lorentzgeo", "--version"],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert "lorentzgeo" in proc.stdout
