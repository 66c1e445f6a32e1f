"""Tests of the benchmark's own pieces: known answers, tracing, metric names.

Run from the root of a checkout with

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import leftsym as ls  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from generators import CATALOG_LSPK, FAMILIES, make_case  # noqa: E402

CATALOG_GEOMETRY = sorted(set(CATALOG_LSPK) | set(workloads.GEOMETRY_CATALOG))


def _transported(case):
    return ls.change_basis(case.build(), case.Q)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_family_cases_have_their_answers(family, n):
    case = make_case(family, n, np.random.default_rng(n))
    A = _transported(case)
    assert A.dim == n
    assert ls.check_left_symmetric(A)
    np.testing.assert_allclose(ls.koszul_form(A).matrix, case.koszul_transported(), atol=1e-10)
    dec = ls.decompose(A)
    assert (dec.dim_h1, dec.dim_h2) == (case.n1, case.n2)
    assert dec.rho == pytest.approx(case.rho, abs=1e-10)
    for alpha in workloads.ALPHAS:
        assert ls.einstein_check(A, alpha) == pytest.approx(case.mu(alpha), abs=1e-10)


@pytest.mark.parametrize("name", CATALOG_GEOMETRY)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_catalog_cases_have_their_answers(name, seed):
    case = make_case(name, 0, np.random.default_rng(seed))
    A = _transported(case)
    np.testing.assert_allclose(ls.koszul_form(A).matrix, case.koszul_transported(), atol=1e-10)
    dec = ls.decompose(A)
    assert dec.signature[:2] == (case.n1, case.n2)
    assert dec.rho == pytest.approx(case.rho, abs=1e-10)
    assert ls.einstein_check(A, 2.0) == pytest.approx(-0.5, abs=1e-10)


def test_same_seed_same_inputs(tmp_path):
    a = workloads.decompose_sweep(7, tmp_path)
    b = workloads.decompose_sweep(7, tmp_path)
    small = [j for j in a.jobs if j.n <= 8]
    for ja, jb in zip(a.jobs, b.jobs):
        if ja in small:
            assert ja.digest(ja.run()) == jb.digest(jb.run())


def test_tracer_wraps_importers_and_restores():
    original = ls.core.change_basis
    t = tr.Tracer()
    assert t.install() > 50
    systems = sys.modules["leftsym._systems"]
    try:
        wrapped = ls.core.change_basis
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert ls.change_basis is wrapped
        assert sys.modules["leftsym.decompose"].change_basis is wrapped
        assert sys.modules["leftsym.construct"].system_residuals is systems.system_residuals
        assert systems.system_residuals.__wrapped__ is not None
    finally:
        t.uninstall()
    assert ls.core.change_basis is original
    assert sys.modules["leftsym.decompose"].change_basis is original


def test_spans_nest_and_self_times_add_up(tmp_path):
    case = make_case("flat", 5, np.random.default_rng(0))
    job = workloads._sweep_job(case, np.random.default_rng(0))
    reference = job.digest(job.run())
    t = tr.Tracer()
    t.install()
    try:
        ls.koszul_form(case.build())  # outside a job: no span
        assert t.spans == []
        with t.job(3, case.n):
            out = job.run()
    finally:
        t.uninstall()
    assert job.digest(out) == reference  # the wrapper changes no output bit
    assert all(rec[tr.JOB] == 3 for rec in t.spans)
    names = {rec[tr.NAME] for rec in t.spans}
    assert {"decompose.split_h", "systems.system_residuals", "core.change_basis"} <= names
    root = t.spans[0]
    assert root[tr.PARENT] is None and root[tr.LAYER] == tr.BENCH
    selfs = tr.self_times(t.spans)
    assert min(selfs) >= 0.0
    assert sum(selfs) == pytest.approx(root[tr.T1] - root[tr.T0], rel=1e-9)
    path = tmp_path / "spans.jsonl"
    t.write(path)
    assert len(path.read_text().splitlines()) == len(t.spans)


def test_exponent_fits_the_power():
    spans = [[i, None, 0, "core", "core.f", 0.0, 1e-6 * n ** 3, n, None, 0]
             for i, n in enumerate((4, 8, 16, 32))]
    assert tr.exponent(spans, "core.f") == pytest.approx(3.0)
    assert tr.exponent(spans, "core.g") is None


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.decompose_sweep(1, tmp_path)
    t = tr.Tracer()
    t.install()
    try:
        runner = worker.Runner(wl.warmup, t)
        runner.run_pass(False)
        runner.run_pass(True)
    finally:
        t.uninstall()
    assert all(r["status"] == "ok" for r in runner.records)
    layer = worker.per_layer(runner, t)
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
    e2e = worker.end_to_end(runner)
    e2e.update(setup_s=0.0, peak_rss_mb=0.0)
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)


def test_job_latency_is_its_median_over_passes_scaled_by_the_probe():
    jobs = [workloads.Job(f"j{n}", n, None, None, None) for n in (4, 5)]
    runner = worker.Runner(jobs, None)
    probe = worker.PROBE_REF_S
    for p, (lat, speed) in enumerate([((1.5, 2.0), 1.0), ((1.0, 9.0), 1.0), ((2.4, 5.0), 2.0)]):
        runner.passes.append({"traced": False, "wall_s": sum(lat)})
        runner.records += [{"pass": p, "job": j, "traced": False, "latency_s": x,
                            "probe_s": speed * probe} for j, x in enumerate(lat)]
    e2e = worker.end_to_end(runner)
    assert e2e["wall_s"] == pytest.approx(1.2 + 2.5)
    assert e2e["job_large_ms"] == pytest.approx(2500.0)
    assert e2e["job_tail_ms"] == pytest.approx(1200.0)
    assert e2e["raw"]["wall_s"] == pytest.approx(1.5 + 5.0)
