"""Command line surface: exit codes, JSON output, file round trips.

Exit convention under test: 0 when every requested check passes, 1 when a
predicate fails, 2 on usage or parse problems.  All invocations go through
run() so the tests see exactly what a shell would.
"""

import json

import numpy as np
import pytest

from leftsym import (
    AlgebraStructure,
    BilinearForm,
    FixtureBroken,
    MetricAlgebra,
    cli,
    decompose,
    koszul_form,
)
from leftsym.algfile import parse_algebra_file, render_algebra_file
from leftsym.catalog import _parts, catalog_build, catalog_list
from leftsym.cli import run
from leftsym.construct import kdim2_family
from test_geometry import assert_blocks_match_oracle


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


def test_missing_file_is_usage_error(tmp_path):
    assert run(["check", str(tmp_path / "absent.json")]) == 2


def test_bad_json_is_usage_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    assert run(["check", str(p)]) == 2


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["check"], '{"dim": 1, "products": [{"i": 0, "j": 0, "coeffs": [NaN]}]}'),
        (["check"], '{"dim": 1, "products": [{"i": 0, "j": 0, "coeffs": [true]}]}'),
        (["build", "theo"], '{"n1": 1, "n2": 1, "rho1": [[[Infinity]]]}'),
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


def test_geometry_tb_json(dim2_file, capsys):
    assert run(["geometry", dim2_file, "--tb-ricci", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(np.array(doc["tb_ricci_hh"]), -1.5 * np.eye(2), atol=1e-9)
    np.testing.assert_allclose(np.array(doc["tb_ricci_hv"]), np.zeros((2, 2)), atol=1e-12)


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
    ["--grid=1", "--grid=0", "--grid=-3", "--box=-inf,inf", "--box=0,inf", "--box=0,1e308",
     "--box=-1e308,1e308"],
)
def test_search_bad_grid_or_box_is_usage_error(capsys, flag):
    assert run(["search", "dim4", flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


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
