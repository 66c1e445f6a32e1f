"""Command line surface: exit codes, JSON output, file round trips.

Exit convention under test: 0 when every requested check passes, 1 when a
predicate fails, 2 on usage or parse problems.  All invocations go through
run() so the tests see exactly what a shell would.
"""

import ast
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from leftsym import (
    AlgebraStructure,
    BilinearForm,
    FixtureBroken,
    MetricAlgebra,
    check_hessian,
    cli,
    decompose,
    koszul_form,
)
from leftsym.algfile import parse_algebra_file, render_algebra_file
from leftsym.catalog import _parts, catalog_build, catalog_list
from leftsym.cli import run
from leftsym.construct import kdim2_family
from test_geometry import assert_blocks_match_oracle

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def dim2_file(tmp_path, dim2):
    p = tmp_path / "dim2.json"
    p.write_text(render_algebra_file(dim2, metric=koszul_form(dim2)))
    return str(p)


@pytest.fixture
def kdim2_file(tmp_path):
    M = kdim2_family(-1.0, 0.8)
    p = tmp_path / "kdim2.json"
    p.write_text(render_algebra_file(M.algebra, metric=M.metric))
    return str(p)


def test_check_passes(dim2_file, capsys):
    assert run(["check", dim2_file]) == 0
    out = capsys.readouterr().out
    assert "left-symmetric: PASS" in out
    assert "koszul positive definite: yes" in out


def test_check_json(dim2_file, capsys):
    assert run(["check", dim2_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    by_name = {row["name"]: row for row in doc["checks"]}
    assert by_name["left-symmetric"]["holds"] is True
    assert doc["koszul_positive_definite"] is True


def test_check_novikov_fails(dim2_file):
    assert run(["check", dim2_file, "--novikov"]) == 1


def test_check_khessian(kdim2_file):
    assert run(["check", kdim2_file, "--khessian", "-1.0"]) == 0
    assert run(["check", kdim2_file, "--khessian", "-2.0"]) == 1


@pytest.mark.parametrize("k", ["inf", "-inf", "nan"])
def test_check_khessian_refuses_a_non_finite_k(kdim2_file, k, capsys):
    # a bad --khessian is bad input (exit 2), not a failing predicate (exit 1)
    assert run(["check", kdim2_file, f"--khessian={k}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: k must be finite, got {float(k)}\n"


def test_check_hessian_reads_the_file_metric(dim2_file, tmp_path, dim2, capsys):
    assert run(["check", dim2_file, "--hessian"]) == 0
    assert capsys.readouterr().out == "hessian: PASS (residual 0.000e+00)\n"
    bare = tmp_path / "bare.json"
    bare.write_text(render_algebra_file(dim2))
    for flag in (["--hessian"], ["--khessian", "-1"]):
        assert run(["check", str(bare), *flag]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: this check needs a metric in the file\n")


@pytest.mark.parametrize("raw", ["1" + "0" * 400, "1e999"], ids=["int-beyond-float", "1e999"])
def test_check_refuses_a_tolerance_beyond_float_range(tmp_path, raw, capsys):
    p = tmp_path / "tolerance.json"
    p.write_text('{"dim": 1, "tolerance": %s}' % raw)
    assert run(["check", str(p)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: field 'tolerance': must be finite\n")


def test_missing_file_is_usage_error(tmp_path):
    assert run(["check", str(tmp_path / "absent.json")]) == 2


def test_a_directory_as_input_file_is_usage_error(tmp_path, capsys):
    assert run(["check", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert str(tmp_path) in captured.err


def test_a_directory_as_output_file_is_usage_error(tmp_path, capsys):
    assert run(["build", "corollary1", "2", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert str(tmp_path) in captured.err


def test_bad_json_is_usage_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    assert run(["check", str(p)]) == 2


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["check"], '{"dim": 1, "products": [{"i": 0, "j": 0, "coeffs": [NaN]}]}'),
        (["check"], '{"dim": 1, "products": [{"i": 0, "j": 0, "coeffs": [true]}]}'),
        (["build", "theo"], '{"n1": 1, "n2": 1, "rho2": [[[Infinity]]]}'),
        (["build", "theo"], '{"n1": 1, "n2": 0, "b1": [["0"]]}'),
        (["build", "milnor"], '{"dim": 2, "h": [1, NaN]}'),
        (["build", "corollary1", "2", "--skew"], "[[0, Infinity], [-Infinity, 0]]"),
    ],
    ids=["nan-coeff", "bool-coeff", "inf-action", "string-skew", "nan-vector", "inf-skew"],
)
def test_non_finite_or_ill_typed_input_is_usage_error(tmp_path, capsys, argv, doc):
    p = tmp_path / "input.json"
    p.write_text(doc)
    assert run(argv + [str(p)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 2


def test_koszul_output(dim2_file, capsys):
    assert run(["koszul", dim2_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(np.array(doc["koszul"]), 1.5 * np.eye(2), atol=1e-12)
    assert doc["positive_definite"] is True


def test_koszul_text(dim2_file, capsys):
    assert run(["koszul", dim2_file]) == 0
    assert capsys.readouterr().out == (
        "koszul form:\n  [1.5, 0]\n  [0, 1.5]\npositive definite: yes\n"
    )


@pytest.mark.parametrize("command", ["check", "decompose"])
def test_readme_cli_samples_print_their_lines(tmp_path, command, capsys):
    # demo.alg is lspk_dim2, the algebra of the README's quick start
    (sample,) = re.findall(rf"\$ leftsym {command} demo\.alg\n(.*?\n)\n", README.read_text(), flags=re.S)
    p = tmp_path / "demo.alg"
    p.write_text(render_algebra_file(catalog_build("lspk_dim2")))
    assert run([command, str(p)]) == 0
    assert capsys.readouterr().out == sample


def test_decompose_text(tmp_path, capsys):
    p = tmp_path / "d5.json"
    p.write_text(render_algebra_file(catalog_build("lspk_dim5")))
    assert run(["decompose", str(p)]) == 0
    lines = capsys.readouterr().out.splitlines()
    dec = decompose(catalog_build("lspk_dim5"))
    assert lines[:2] == ["signature: dim h1 = 3, dim h2 = 1, rho = 3.5", f"idempotent H: {dec.H.tolist()}"]
    assert re.fullmatch(r"worst residual: \d\.\d{3}e[+-]\d\d", lines[2]) and len(lines) == 3


def test_decompose_json(tmp_path, capsys):
    A = catalog_build("lspk_dim5")
    p = tmp_path / "d5.json"
    p.write_text(render_algebra_file(A))
    assert run(["decompose", str(p), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim_h1"] == 3 and doc["dim_h2"] == 1
    assert abs(doc["rho"] - 3.5) <= 1e-9
    assert doc["worst_residual"] <= 1e-8


def test_build_corollary1(tmp_path, capsys):
    out = tmp_path / "c1.json"
    assert run(["build", "corollary1", "3", "--out", str(out)]) == 0
    parsed = parse_algebra_file(out.read_text())
    assert parsed.algebra.dim == 4
    assert run(["check", str(out)]) == 0


@pytest.mark.parametrize(
    "argv, message",
    [(["-1"], "part dimension must be nonnegative, got -1"),
     (["2", "--skew"], "skew operator must have shape (2, 2), got (3, 3)")],
    ids=["negative-dimension", "skew-shape"],
)
def test_build_corollary1_refuses_a_bad_argument_as_usage_error(tmp_path, argv, message, capsys):
    skew = tmp_path / "skew.json"
    skew.write_text("[[0, 1, 0], [-1, 0, 0], [0, 0, 0]]")
    argv = [*argv, str(skew)] if argv[-1] == "--skew" else argv
    assert run(["build", "corollary1", *argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_build_corollary1_fails_a_skew_operator_that_is_not_skew(tmp_path, capsys):
    # skewness is a measured relation (NotSkew): a failure, not a usage error
    skew = tmp_path / "skew.json"
    skew.write_text("[[0, 1], [1, 0]]")
    assert run(["build", "corollary1", "2", "--skew", str(skew)]) == 1
    assert capsys.readouterr().err == "failure: operator is not skew-symmetric, residual 2.000e+00\n"


def test_build_corollary2_needs_metric(tmp_path):
    M = catalog_build("milnor", {"n": 2, "h_scale": 1.0})
    with_metric = tmp_path / "m.json"
    with_metric.write_text(render_algebra_file(M.algebra, metric=M.metric))
    out = tmp_path / "c2.json"
    assert run(["build", "corollary2", str(with_metric), "--out", str(out)]) == 0
    assert parse_algebra_file(out.read_text()).algebra.dim == 3

    no_metric = tmp_path / "nm.json"
    no_metric.write_text(render_algebra_file(M.algebra))
    assert run(["build", "corollary2", str(no_metric)]) == 2


def test_build_milnor_prints_k(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"dim": 2, "h": [0.6, 0.8]}))
    out = tmp_path / "milnor.json"
    assert run(["build", "milnor", str(spec), "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "k = -1" in err


def test_build_theo_from_data(tmp_path):
    data = {"n1": 2, "n2": 0}
    f = tmp_path / "data.json"
    f.write_text(json.dumps(data))
    out = tmp_path / "theo.json"
    assert run(["build", "theo", str(f), "--out", str(out)]) == 0
    assert parse_algebra_file(out.read_text()).algebra.dim == 3


def test_geometry_einstein_scale(dim2_file, capsys):
    assert run(["geometry", dim2_file, "--scale", "2", "--einstein"]) == 0
    assert "mu = -0.5" in capsys.readouterr().out


@pytest.mark.parametrize("s", [1.0, 1e6, 1e9, 1e12])
def test_geometry_einstein_verdict_ignores_the_metric_scale(tmp_path, s, capsys):
    # diag(1, 2) is not Einstein for lspk_dim2 (residual 0.75 at every scale)
    p = tmp_path / "metric.json"
    p.write_text(render_algebra_file(catalog_build("lspk_dim2"), BilinearForm(np.diag([s, 2 * s]))))
    assert run(["geometry", str(p), "--einstein", "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["einstein"] is False
    assert run(["geometry", str(p), "--einstein"]) == 1
    assert capsys.readouterr().err == (
        "failure: Ricci not proportional to the metric, residual 7.500e-01\n"
    )


def test_geometry_tb_json(dim2_file, capsys):
    assert run(["geometry", dim2_file, "--tb-ricci", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(np.array(doc["tb_ricci_hh"]), -1.5 * np.eye(2), atol=1e-9)
    np.testing.assert_allclose(np.array(doc["tb_ricci_hv"]), np.zeros((2, 2)), atol=1e-12)


def test_geometry_tb_text(dim2_file, capsys):
    assert run(["geometry", dim2_file, "--tb-ricci"]) == 0
    blocks = {
        "base ricci": "-0.25, 0]\n  [0, -0.25",
        "beta": "1.5, 0]\n  [0, 1.5",
        "tb ricci hh": "-1.5, 0]\n  [0, -1.5",
        "tb ricci vv": "-1.5, 0]\n  [0, -1.5",
        "tb ricci hv": "0, 0]\n  [0, 0",
    }
    assert capsys.readouterr().out == "".join(f"{k}:\n  [{v}]\n" for k, v in blocks.items())


def test_geometry_json_with_file_metric(tmp_path, capsys):
    # diag(1, 2) is not a multiple of the trace form: the blocks are reported,
    # not compared against -beta
    A = catalog_build("lspk_dim2")
    metric = BilinearForm(np.diag([1.0, 2.0]))
    p = tmp_path / "metric.json"
    p.write_text(render_algebra_file(A, metric=metric))
    assert run(["geometry", str(p), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hessian_residual"] > 0.0
    assert_blocks_match_oracle(
        MetricAlgebra(A, metric), np.array(doc["tb_ricci_hh"]), np.array(doc["tb_ricci_vv"])
    )


@pytest.mark.parametrize("metric", [None, np.diag([1.0, 2.0])])
def test_geometry_json_prints_each_threshold_beside_its_residual(tmp_path, capsys, metric):
    # the trace form is a Hessian partner of lspk_dim2 and Einstein; diag(1, 2) is neither
    A = catalog_build("lspk_dim2")
    p = tmp_path / "metric.json"
    p.write_text(render_algebra_file(A, metric=metric))
    code = run(["geometry", str(p), "--json", "--einstein"])
    doc = json.loads(capsys.readouterr().out)
    hessian = check_hessian(A, koszul_form(A) if metric is None else BilinearForm(metric))
    assert (doc["hessian_residual"] <= doc["hessian_threshold"]) == bool(hessian) == (metric is None)
    assert (doc["einstein_residual"] <= doc["einstein_threshold"]) == doc["einstein"] == (code == 0)
    assert doc["einstein"] == (metric is None)


@pytest.mark.parametrize("scale", ["0", "-1"])
def test_geometry_rejects_non_positive_scale(dim2_file, scale, capsys):
    assert run(["geometry", dim2_file, "--scale", scale]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_geometry_rejects_non_flat(kdim2_file):
    assert run(["geometry", kdim2_file, "--tb-ricci"]) == 1


def test_catalog_list(capsys):
    assert run(["catalog", "list"]) == 0
    names = capsys.readouterr().out.split()
    assert "lspk_dim4" in names and "milnor" in names


def test_catalog_show_with_params(capsys):
    assert run(["catalog", "show", "lspk_dim4", "--param", "beta=0.9"]) == 0
    out = capsys.readouterr().out
    assert "kind: lspk" in out


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
@pytest.mark.parametrize("action", ["show", "export"])
def test_catalog_refuses_a_non_finite_param(action, value, capsys):
    assert run(["catalog", action, "lspk_dim4", "--param", f"beta={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --param beta: {value!r} is not finite\n"


@pytest.mark.parametrize("action", ["show", "export"])
@pytest.mark.parametrize(
    "param, message",
    [("beta", "--param expects name=value, got 'beta'"), ("beta=abc", "--param beta: 'abc' is not a number")],
)
def test_catalog_refuses_a_malformed_param(action, param, message, capsys):
    assert run(["catalog", action, "lspk_dim4", "--param", param]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("action", ["show", "export"])
@pytest.mark.parametrize(
    "param, message",
    [
        ("beta=1e300", "parameter beta = 1e+300 above 3.0"),
        ("beta=5", "parameter beta = 5.0 above 3.0"),
        ("lam=0", "parameter lam = 0.0 below 0.05"),
    ],
)
def test_catalog_refusal_names_a_real_param_as_a_float(action, param, message, capsys):
    # a real parameter reaches ParamSpec.validate as a float, integral or not, so a
    # large one is named as 1e+300, not as its 301-digit int
    assert run(["catalog", action, "lspk_dim4", "--param", param]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("action", ["show", "export"])
@pytest.mark.parametrize(
    "param, message",
    [
        ("n=1e300", "parameter n = 1e+300 above 6"),
        ("n=7", "parameter n = 7 above 6"),
        ("n=2.5", "parameter n must be an integer, got 2.5"),
    ],
)
def test_catalog_refusal_names_an_integer_param_before_converting_it(action, param, message, capsys):
    # the range is checked before the int conversion, so 1e300 is not named by its 301 digits
    assert run(["catalog", action, "rn_canonical", "--param", param]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("action", ["show", "export"])
@pytest.mark.parametrize(
    "name, params",
    [
        ("rn_canonical", ["n=3"]),
        ("rn_canonical", ["n=3.0"]),
        ("milnor", ["n=3", "h_scale=2"]),
        ("lspk_dim5", ["branch=3", "beta=0.5", "lam=1"]),
        ("lspk_dim3_case3", ["sign=1"]),
        ("lspk_dim4", ["alpha_sign=1.0", "beta=0.7", "lam=1.3"]),
    ],
)
def test_catalog_params_at_their_defaults_print_the_default_output(action, name, params, capsys):
    # each value given is the entry's default, so the output is byte for byte the default one
    assert run(["catalog", action, name]) == 0
    default = capsys.readouterr().out
    assert run(["catalog", action, name, *(a for p in params for a in ("--param", p))]) == 0
    assert capsys.readouterr().out == default


def test_catalog_verify_all(capsys):
    assert run(["catalog", "verify-all"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_catalog_verify_all_reports_every_entry_under_tight_eps(monkeypatch, capsys):
    # at eps = 1e-17 roundoff breaks some decompositions; each refusal is a
    # row naming the relation, and the remaining entries are still verified
    monkeypatch.setenv("LSPK_EPS", "1e-17")
    assert run(["catalog", "verify-all", "--json"]) == 1
    rows = json.loads(capsys.readouterr().out)["entries"]
    assert [r["name"] for r in rows] == catalog_list()
    monkeypatch.delenv("LSPK_EPS")
    relations = [
        r["predicate"] in decompose(catalog_build(r["name"])).residuals
        for r in rows
        if not r["ok"]
    ]
    assert any(relations)


def test_catalog_verify_all_failed_rows_carry_residual(monkeypatch, capsys):
    monkeypatch.setenv("LSPK_EPS", "1e-17")
    assert run(["catalog", "verify-all", "--json"]) == 1
    rows = {r["name"]: r for r in json.loads(capsys.readouterr().out)["entries"]}
    assert all("residual" in r for r in rows.values() if not r["ok"])
    row = rows["rn_canonical"]
    assert not row["ok"] and isinstance(row["residual"], float)
    assert run(["catalog", "verify-all"]) == 1
    line = f"rn_canonical: FAIL ({row['predicate']}, residual {row['residual']:.3e})"
    assert line in capsys.readouterr().out.splitlines()


def test_catalog_verify_all_failed_row_without_residual(monkeypatch, capsys):
    def refuse(name, tol):
        raise FixtureBroken(name, "positive definite trace form")

    monkeypatch.setattr(cli, "catalog_verify", refuse)
    assert run(["catalog", "verify-all", "--json"]) == 1
    rows = json.loads(capsys.readouterr().out)["entries"]
    assert all(r["residual"] is None for r in rows)
    assert run(["catalog", "verify-all"]) == 1
    assert "rn_canonical: FAIL (positive definite trace form)" in capsys.readouterr().out


def test_catalog_export_round_trip(tmp_path):
    out = tmp_path / "dim2.json"
    assert run(["catalog", "export", "lspk_dim2", "--out", str(out)]) == 0
    parsed = parse_algebra_file(out.read_text())
    np.testing.assert_array_equal(
        parsed.algebra.constants, catalog_build("lspk_dim2").constants
    )


def test_search_stdout_roots(capsys):
    assert run(["search", "dim4", "--grid", "16"]) == 0
    roots = json.loads(capsys.readouterr().out)
    want = 1.0 / np.sqrt(8.0)
    np.testing.assert_allclose(sorted(r[0] for r in roots), [-want, want], atol=1e-10)


def test_search_verify(capsys):
    assert run(["search", "dim5", "--grid", "12", "--verify"]) == 0
    err = capsys.readouterr().err
    assert err.count("verified") == 4


def test_search_unknown_system():
    assert run(["search", "dim11"]) == 2


@pytest.mark.parametrize(
    "flag",
    ["--grid=1", "--grid=0", "--grid=-3", "--grid=1048577", "--box=-inf,inf", "--box=0,inf",
     "--box=0,1e308", "--box=-1e308,1e308"],
)
def test_search_bad_grid_or_box_is_usage_error(capsys, flag):
    assert run(["search", "dim4", flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize(
    "box, message",
    [("1", "--box expects two numbers, got '1'"), ("1,2,3", "--box expects two numbers, got '1,2,3'"),
     ("1,0", "--box needs lo < hi, got '1,0'"), ("1:1", "--box needs lo < hi, got '1:1'"),
     ("a,b", "--box 'a,b': 'a' is not a number"), ("1,x", "--box '1,x': 'x' is not a number")],
)
def test_search_refuses_a_malformed_box(box, message, capsys):
    assert run(["search", "dim4", f"--box={box}"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_env_tolerance_override(tmp_path, dim2, monkeypatch):
    # perturb one structure constant so left symmetry fails at default eps
    c = np.array(dim2.constants)
    c[0, 1, 0] += 1e-7
    from leftsym import AlgebraStructure

    p = tmp_path / "perturbed.json"
    p.write_text(render_algebra_file(AlgebraStructure(c)))
    assert run(["check", str(p), "--lsa"]) == 1
    monkeypatch.setenv("LSPK_EPS", "1e-3")
    assert run(["check", str(p), "--lsa"]) == 0
    monkeypatch.delenv("LSPK_EPS")


@pytest.mark.parametrize("eps", ["abc", "-1"])
def test_malformed_env_tolerance_is_usage_error(dim2_file, eps, monkeypatch, capsys):
    monkeypatch.setenv("LSPK_EPS", eps)
    assert run(["check", dim2_file]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_file_tolerance_beats_env(tmp_path, dim2, monkeypatch):
    c = np.array(dim2.constants)
    c[0, 1, 0] += 1e-7
    from leftsym import AlgebraStructure

    p = tmp_path / "perturbed.json"
    p.write_text(render_algebra_file(AlgebraStructure(c), tolerance=1e-3))
    monkeypatch.setenv("LSPK_EPS", "1e-12")
    assert run(["check", str(p), "--lsa"]) == 0
    monkeypatch.delenv("LSPK_EPS")


def test_json_output_writes_non_finite_residuals_as_null(tmp_path, capsys):
    # finite coefficients whose products overflow: the residual is NaN
    c = np.random.default_rng(0).standard_normal((3, 3, 3)) * 1e155
    p = tmp_path / "overflow.json"
    p.write_text(render_algebra_file(AlgebraStructure(c)))

    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    for flag in ("--lsa", "--novikov"):
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["check", str(p), flag, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert doc["checks"][0]["holds"] is False
        assert doc["checks"][0]["residual"] is None


@pytest.mark.parametrize(
    "argv", [["check"], ["koszul"], ["geometry"], ["check", "--lsa"], ["decompose"]], ids=" ".join
)
def test_overflowing_products_fail_without_a_usage_error(tmp_path, argv, capsys):
    # a valid file whose products overflow fails its predicate (exit 1), not its parse (exit 2)
    c = np.random.default_rng(0).standard_normal((3, 3, 3)) * 1e155
    p = tmp_path / "overflow.json"
    p.write_text(render_algebra_file(AlgebraStructure(c)))
    with np.errstate(over="ignore", invalid="ignore"):
        assert run([argv[0], str(p), *argv[1:]]) == 1
    assert "Gram matrix" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check", "koszul", "geometry", "decompose"])
def test_overflowing_products_print_one_failure_line(tmp_path, command, capsys):
    # no np.errstate here: run() keeps numpy's overflow warnings out of stderr
    c = np.random.default_rng(0).standard_normal((3, 3, 3)) * 1e155
    p = tmp_path / "overflow.json"
    p.write_text(render_algebra_file(AlgebraStructure(c)))
    assert run([command, str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("failure: ") and err.count("\n") == 1


def test_cached_parser_keeps_calls_isolated(tmp_path, dim2_file, capsys):
    assert cli._build_parser() is cli._build_parser()
    tuned, plain = tmp_path / "tuned.json", tmp_path / "plain.json"
    assert run(["catalog", "export", "lspk_dim4", "--param", "beta=0.9", "--out", str(tuned)]) == 0
    assert run(["catalog", "export", "lspk_dim4", "--out", str(plain)]) == 0
    assert plain.read_text() == render_algebra_file(*_parts(catalog_build("lspk_dim4")))
    assert tuned.read_text() != plain.read_text()

    assert run(["check", dim2_file, "--json"]) == 0
    json.loads(capsys.readouterr().out)
    assert run(["check", dim2_file]) == 0
    assert capsys.readouterr().out.startswith("left-symmetric: PASS")

    assert run(["frobnicate"]) == 2
    assert run(["check", dim2_file, "--lsa"]) == 0
    assert "koszul" not in capsys.readouterr().out


def test_cached_parser_reads_the_help_width_per_call(monkeypatch, capsys):
    widths = []
    for columns in ("200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        assert run(["catalog", "export", "--help"]) == 0
        widths.append(max(map(len, capsys.readouterr().out.splitlines())))
    assert widths[0] > 40 >= widths[1]


def test_only_run_turns_a_refusal_into_a_message_and_exit_code():
    # a handler returns its verdict or raises; only run() holds an error:/failure:
    # line or a return 2
    tree = ast.parse(Path(cli.__file__).read_text())
    (run_def,) = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "run"]
    in_run = {id(node) for node in ast.walk(run_def)}

    def maps_a_refusal(node) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value.startswith(("error:", "failure:"))
        return isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) and node.value.value == 2

    found = [node for node in ast.walk(tree) if maps_a_refusal(node)]
    assert [node.lineno for node in found if id(node) not in in_run] == []
    assert {type(node) for node in found} == {ast.Constant, ast.Return}  # the guard sees run's


@pytest.mark.parametrize("argv, code", [(["catalog", "list"], 0), (["frobnicate"], 2)], ids=["ok", "usage"])
def test_main_exits_with_the_status_of_run(monkeypatch, argv, code, capsys):
    monkeypatch.setattr(sys, "argv", ["leftsym", *argv])
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert info.value.code == code
