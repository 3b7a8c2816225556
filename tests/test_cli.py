"""Command-line surface: subcommands, exit codes, machine reports."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lorentzgeo
from lorentzgeo import cli, obstruction, symmetry
from lorentzgeo.catalog import _TORUS_FAMILY, list_examples
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

    @pytest.mark.parametrize("plane,message", [
        ("nan,0;0,1", "error: plane discriminant Q=nan of [nan, 0.0], [0.0, 1.0] is not finite"),
        ("inf,0;0,1", "error: plane discriminant Q=nan of [inf, 0.0], [0.0, 1.0] is not finite"),
        ("1e200,0;0,1e200", "error: plane discriminant Q=nan of [1e+200, 0.0], [0.0, 1e+200]"),
        ("1,0,0;0,1,0", "error: plane vectors need 2 components, got [1.0, 0.0, 0.0], "),
    ])
    def test_bad_plane_vectors_are_an_error_message(self, capsys, plane, message):
        assert main(["curvature", "torus_family", "--at", "0.1,0.2", "--plane", plane]) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("option,message", [
        (["--planes", "0"], "error: planes_per_point must be at least 1, got 0"),
        (["--steps", "-1"], "error: steps must be at least 0, got -1"),
    ])
    def test_signscan_size_below_range_is_an_error_message(self, capsys, option, message):
        assert main(["signscan", "torus_family"] + option) == 1
        assert capsys.readouterr().err == message + "\n"

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_validate_samples_below_one_is_an_error_message(self, capsys, samples):
        assert main(["validate", "minkowski2", "--samples", samples]) == 1
        assert capsys.readouterr().err == f"error: samples must be at least 1, got {samples}\n"

    @pytest.mark.parametrize("command", ["classify", "witness"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_outside_range_is_an_error_message(self, capsys, command, tol):
        assert main([command, "torus_family", "--tol", tol]) == 1
        assert capsys.readouterr().err == \
            f"error: tol must be finite and non-negative, got {float(tol)!r}\n"

    def test_unknown_catalog_entry_is_an_unquoted_message(self, capsys):
        assert main(["catalog", "run", "nosuch"]) == 1
        assert capsys.readouterr().err.startswith(
            "error: unknown catalog entry 'nosuch'; available: circle_lift_torus, ")

    def test_grid_too_large_to_allocate_is_an_error_message(self, tmp_path, capsys):
        # f mentions all four coordinates, so the scan needs all 10^16
        # nodes: the request exceeds the address space, so numpy refuses
        # it at once without touching memory
        path = tmp_path / "flat4.chart"
        path.write_text("""
[manifold]
dim = 4
coords = t, x, y, z
range.t = -1, 1
range.x = -1, 1
range.y = -1, 1
range.z = -1, 1
signature = lorentzian

[metric]
g.0.0 = "-1"
g.1.1 = "1"
g.2.2 = "1"
g.3.3 = "1"

[field.X]
components = "1 + x", "t", "z", "y"
""")
        assert main(["extrema", str(path), "--field", "X", "--grid", "10000"]) == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

    def test_grid_along_the_one_axis_f_mentions_is_scanned(self, capsys):
        # the Schwarzschild energy mentions r only: 10^4 nodes, not 10^16
        assert main(["extrema", "schwarzschild_exterior", "--grid", "10000"]) == 0
        assert capsys.readouterr().err == ""


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

    def test_catalog_list_names_every_entry(self, tmp_path):
        code, rep = run_cli("catalog", "list", json_path=tmp_path / "r.json")
        assert code == 0
        assert [r["inputs"]["name"] for r in rep["results"]] == list_examples()
        row = next(r for r in rep["results"] if r["inputs"]["name"] == "torus_family")
        assert (row["values"]["dim"], row["values"]["signature"],
                row["values"]["field"]) == (2, "lorentzian", "X")

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

    def test_conformal_classifies_the_field_once(self, tmp_path, count_calls):
        """On a torus whose energy has two minima the field is classified
        once, and that class serves the bound check at both."""
        path = tmp_path / "two_minima.chart"
        path.write_text(_TORUS_FAMILY.replace('cos(2*pi*x)/4)"', 'cos(4*pi*x)/4)"'))
        calls = [count_calls(module, "classify_field") for module in (cli, obstruction, symmetry)]
        code, rep = run_cli("conformal", str(path), "--field", "X", json_path=tmp_path / "r.json")
        assert code == 0 and len(rep["results"]) == 2
        assert [len(c) for c in calls] == [1, 0, 0]

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

    @staticmethod
    def _chart(tmp_path, metric, field=""):
        path = tmp_path / "deep.chart"
        path.write_text('[manifold]\ndim = 2\ncoords = t, x\nrange.t = -1, 1\n'
                        'range.x = -1, 1\nsignature = lorentzian\n\n[metric]\n'
                        f'g.0.0 = "-1"\n{metric}{field}')
        return str(path)

    def test_both_halves_of_a_deep_pair_validate_as_one(self, tmp_path):
        """g.0.1 and g.1.0 given as the same 400-term sum: comparing the
        pair must not overflow where g.0.1 alone validates."""
        terms = " + ".join(f"cos({k}*x)" for k in range(1, 401))
        pair = f'g.0.1 = "0.0001*({terms})"\ng.1.0 = "0.0001*({terms})"\n'
        assert main(["validate", self._chart(tmp_path, 'g.1.1 = "1"\n' + pair)]) == 0

    def test_both_halves_of_a_too_deep_pair_give_the_one_half_error(self, tmp_path, capsys):
        terms = " + ".join(f"cos({k}*x)" for k in range(1, 1501))
        half = f'g.0.1 = "0.0001*({terms})"\n'
        errors = []
        for metric in (half, half + half.replace("g.0.1", "g.1.0")):
            assert main(["validate", self._chart(tmp_path, 'g.1.1 = "1"\n' + metric)]) == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert "metric entry g.0.1 is nested too deeply" in errors[0]

    @pytest.mark.parametrize("command,factors,message", [
        ("extrema", 330, "energy of field 'X' is nested too deeply"),
        ("witness", 330, "energy of field 'X' is nested too deeply"),
        ("conformal", 330, "energy of field 'X' is nested too deeply"),
        ("classify", 500, "L_X g of field 'X' is nested too deeply"),
    ])
    def test_derived_tree_too_deep_to_evaluate_is_an_error_message(
            self, tmp_path, capsys, command, factors, message):
        """The chart validates, but a tree derived from it (the energy's
        Hessian, the L_X g entries) is deeper than its source."""
        product = "*".join(["(1 + 0.001*sin(x))"] * factors)
        path = self._chart(tmp_path, f'g.1.1 = "{product}"\n',
                           '\n[field.X]\ncomponents = "1", "x"\n')
        assert main(["validate", path]) == 0
        capsys.readouterr()
        grid = ["--grid", "8"] if command != "classify" else []
        assert main([command, path, "--field", "X", *grid]) == 1
        assert message in capsys.readouterr().err

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
