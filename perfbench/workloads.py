"""The three workloads: fixed job lists built from a seed, and their checks.

A job is one closed-loop request: the client sends it, waits for the
result, and only then sends the next one.  Each job has a run() that calls
the library through the leftsym namespaces (so a Tracer can wrap it), a
check() that verifies the result with plain numpy and the stdlib outside
the timed region, and a digest() of every number it produced, used to show
that tracing changes no output bit.

Why these workloads (see README.md for the predictions):

* decompose-sweep puts its time in core.change_basis and the decompose
  stages at n = 8..24, and calls no geometry;
* geometry-einstein puts its time in the geometry layer at n = 2..8, with
  only small change_basis calls and almost no decompose;
* cli-catalog is many small leftsym.cli.run calls, where argument parsing,
  algebra-file parsing and rendering, the catalog and the Newton search
  dominate and contraction work is small.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import leftsym as ls
import leftsym.cli  # noqa: F401  (makes ls.cli available)
from leftsym.catalog import DIM5_BRANCHES
from generators import CATALOG_LSPK, FAMILIES, Case, make_case, random_orthogonal, random_skew

TOL = 1e-8  # relative tolerance of the benchmark's own correctness checks
ALPHAS = (0.5, 1.0, 2.0)
JOB_CAP_S = 30.0  # a job slower than this counts as failed

# (n, number of jobs per pass); families cycle through FAMILIES.  The sizes
# keep every job near or under a second at the reference speed, so its median
# over a few passes is steady, and they put the median job and the 11th
# slowest job of each list inside a group of jobs of one size.
SWEEP_SIZES = ((24, 3), (20, 1), (16, 3), (12, 8), (8, 8))
SWEEP_CATALOG_REPEATS = 5
GEOMETRY_SIZES = ((8, 1), (6, 1), (5, 1), (4, 1), (3, 1), (2, 1))
GEOMETRY_CATALOG = ("lspk_dim2", "lspk_dim3_case1", "lspk_dim3_case2", "lspk_dim3_case3",
                    "lspk_dim4", "lspk_dim5")
SEARCH_GRID = 40
DENSE_SIZES = (16, 32)
FILE_METRIC_ENTRIES = ("lspk_dim2", "lspk_dim3_case1", "lspk_dim3_case3")


@dataclass
class Verdict:
    """Outcome of one job's checks.

    margin is the worst residual / tolerance ratio seen; refused names the
    exception class of a named refusal the job is allowed to end with.
    """

    margin: float = 0.0
    problems: list[str] = field(default_factory=list)
    refused: str | None = None
    counters: dict[str, int] = field(default_factory=dict)

    def close(self, what: str, residual: float, tol: float) -> None:
        ratio = float(residual) / tol
        self.margin = max(self.margin, ratio)
        if not ratio <= 1.0:
            self.problems.append(f"{what}: residual {residual:.3e} above {tol:.3e}")

    def require(self, what: str, ok: bool) -> None:
        if not ok:
            self.problems.append(what)


@dataclass(eq=False)
class Job:
    name: str
    n: int
    run: Callable[[], object]
    check: Callable[[object], Verdict]
    digest: Callable[[object], str]


@dataclass(eq=False)
class Workload:
    jobs: list[Job]
    warmup: list[Job]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p, dtype=float).tobytes())
        elif isinstance(p, str):
            h.update(p.encode())
        else:
            h.update(np.asarray(p, dtype=float).tobytes())
    return h.hexdigest()


def _maxabs(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def _scale(*arrays) -> float:
    return max([1.0] + [_maxabs(a) for a in arrays])


# ---------------------------------------------------------------- decompose-sweep


def _sweep_job(case: Case, rng: np.random.Generator) -> Job:
    probes = rng.standard_normal((3, 2, case.n))

    def run():
        A = ls.change_basis(case.build(), case.Q)
        lsa = ls.check_left_symmetric(A)
        B = ls.koszul_form(A)
        dec = ls.decompose(A)
        R = ls.build_lspk(ls.data_from_decomposition(dec))
        return A, lsa, B, dec, R

    def check(out) -> Verdict:
        A, lsa, B, dec, R = out
        v = Verdict()
        v.require(f"left-symmetry residual {lsa.max_residual:.3e} rejected", bool(lsa))
        want = case.koszul_transported()
        v.close("trace form", _maxabs(B.matrix - want), TOL * _scale(want))
        v.require(f"signature {dec.signature[:2]} != {(case.n1, case.n2)}",
                  (dec.dim_h1, dec.dim_h2) == (case.n1, case.n2))
        v.close("rho", abs(dec.rho - case.rho), TOL * max(1.0, case.rho))
        # rebuilt products against transported products: x*y = P (u o v)
        P = dec.basis
        for u, w in probes:
            lhs = np.einsum("i,j,ijk->k", P @ u, P @ w, A.constants)
            rhs = P @ np.einsum("a,b,abc->c", u, w, R.constants)
            v.close("rebuilt product", _maxabs(lhs - rhs), TOL * _scale(lhs, rhs))
        return v

    def digest(out) -> str:
        A, lsa, B, dec, R = out
        return _digest(A.constants, lsa.max_residual, B.matrix, dec.H, dec.basis, dec.rho,
                       R.constants)

    return Job(f"decompose {case.family} n={case.n}", case.n, run, check, digest)


def _family_cases(sizes, rng: np.random.Generator) -> list[Case]:
    cases, k = [], 0
    for n, count in sizes:
        for _ in range(count):
            cases.append(make_case(FAMILIES[k % len(FAMILIES)], n, rng))
            k += 1
    return cases


def decompose_sweep(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    cases = _family_cases(SWEEP_SIZES, rng)
    cases += [make_case(name, 0, rng) for name in CATALOG_LSPK
              for _ in range(SWEEP_CATALOG_REPEATS)]
    warm_rng = np.random.default_rng([seed, 1])
    warm = [_sweep_job(make_case(f, 4, warm_rng), warm_rng) for f in FAMILIES]
    return Workload([_sweep_job(c, rng) for c in cases], warm)


# ---------------------------------------------------------------- geometry-einstein


def _einstein_job(case: Case, A, alpha: float) -> Job:
    want = case.mu(alpha)

    def check(mu) -> Verdict:
        v = Verdict()
        v.close(f"mu at alpha={alpha}", abs(mu - want), TOL * abs(want))
        return v

    return Job(f"einstein {case.family} n={case.n} alpha={alpha}", case.n,
               lambda: ls.einstein_check(A, alpha), check, lambda mu: _digest(mu))


def _gamma_job(case: Case) -> Job:
    def run():
        A = ls.change_basis(case.build(), case.Q)
        M = ls.MetricAlgebra(A, ls.koszul_form(A))
        gammas = [ls.gamma_operator(M, e) for e in np.eye(A.dim)]
        beta = ls.second_koszul_form(M)
        return A, M.metric.matrix, gammas, beta.matrix

    def check(out) -> Verdict:
        A, G, gammas, beta = out
        v = Verdict()
        want = case.koszul_transported()
        v.close("trace form", _maxabs(G - want), TOL * _scale(want))
        scale = _scale(A.constants, G)
        for i, op in enumerate(gammas):
            m = G @ op
            v.close(f"gamma_{i} symmetry", _maxabs(m - m.T), TOL * scale)
        v.close("second trace form", _maxabs(beta - G), TOL * scale)
        return v

    def digest(out) -> str:
        A, G, gammas, beta = out
        return _digest(A.constants, G, *gammas, beta)

    return Job(f"gamma {case.family} n={case.n}", case.n, run, check, digest)


def _geometry_jobs(case: Case) -> list[Job]:
    """Three Einstein requests on the transported algebra, made at set-up,
    and one request that builds, transports and takes the gamma operators."""
    A = ls.change_basis(case.build(), case.Q)
    return [_einstein_job(case, A, alpha) for alpha in ALPHAS] + [_gamma_job(case)]


def geometry_einstein(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    cases = _family_cases(GEOMETRY_SIZES, rng)
    cases += [make_case(name, 0, rng) for name in GEOMETRY_CATALOG]
    warm_rng = np.random.default_rng([seed, 1])
    warm = [job for f in FAMILIES for job in _geometry_jobs(make_case(f, 2, warm_rng))]
    return Workload([job for c in cases for job in _geometry_jobs(c)], warm)


# ---------------------------------------------------------------- cli-catalog


def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ls.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _read_constants(path: Path) -> tuple[np.ndarray, np.ndarray | None]:
    """Structure constants and metric of an algebra file, read with json alone."""
    doc = json.loads(path.read_text())
    n = doc["dim"]
    c = np.zeros((n, n, n))
    for row in doc["products"]:
        c[row["i"], row["j"]] = row["coeffs"]
    metric = np.array(doc["metric"], dtype=float) if "metric" in doc else None
    return c, metric


def _write_algebra(path: Path, c: np.ndarray, metric: np.ndarray | None, name: str) -> None:
    n = c.shape[0]
    doc = {
        "name": name,
        "dim": n,
        "products": [{"i": i, "j": j, "coeffs": c[i, j].tolist()}
                     for i in range(n) for j in range(n) if np.any(c[i, j] != 0.0)],
    }
    if metric is not None:
        doc["metric"] = metric.tolist()
    path.write_text(json.dumps(doc))


def _random_spd(n: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((n, n))
    g = a @ a.T + n * np.eye(n)
    return np.triu(g) + np.triu(g, 1).T  # exactly symmetric


def _cli_job(name: str, n: int, argv: list[str], check: Callable[[int, str, str], Verdict],
             out_file: Path | None = None) -> Job:
    def digest(res) -> str:
        code, out, err = res
        extra = out_file.read_text() if out_file is not None and out_file.exists() else ""
        return _digest(str(code), out, err, extra)

    return Job(name, n, lambda: _cli(argv), lambda res: check(*res), digest)


def _expect_exit(v: Verdict, code: int, want: int, err: str) -> None:
    v.require(f"exit code {code}, expected {want}: {err.strip()[:200]}", code == want)


def _file_matches(path: Path, want_c: np.ndarray, want_metric: np.ndarray | None) -> Callable:
    def check(code, out, err) -> Verdict:
        v = Verdict()
        _expect_exit(v, code, 0, err)
        if code != 0:
            return v
        c, metric = _read_constants(path)
        v.require(f"dimension {c.shape[0]} != {want_c.shape[0]}", c.shape == want_c.shape)
        if c.shape == want_c.shape:
            v.close("written constants", _maxabs(c - want_c), TOL * _scale(want_c))
        v.require("metric presence", (metric is None) == (want_metric is None))
        if metric is not None and want_metric is not None:
            v.close("written metric", _maxabs(metric - want_metric), TOL * _scale(want_metric))
        return v

    return check


def _stdout_has(*needles: str) -> Callable:
    def check(code, out, err) -> Verdict:
        v = Verdict()
        _expect_exit(v, code, 0, err)
        for needle in needles:
            v.require(f"output lacks {needle!r}", needle in out)
        return v

    return check


def _koszul_check(want: np.ndarray, positive: bool) -> Callable:
    def check(code, out, err) -> Verdict:
        v = Verdict()
        _expect_exit(v, code, 0, err)
        if code == 0:
            doc = json.loads(out)
            v.close("trace form", _maxabs(np.array(doc["koszul"]) - want), TOL * _scale(want))
            v.require("positive definiteness", doc["positive_definite"] is positive)
        return v

    return check


def _decompose_check(n1: int, n2: int, rho: float) -> Callable:
    def check(code, out, err) -> Verdict:
        v = Verdict()
        _expect_exit(v, code, 0, err)
        if code == 0:
            doc = json.loads(out)
            v.require(f"signature {(doc['dim_h1'], doc['dim_h2'])} != {(n1, n2)}",
                      (doc["dim_h1"], doc["dim_h2"]) == (n1, n2))
            v.close("rho", abs(doc["rho"] - rho), TOL * max(1.0, rho))
        return v

    return check


def _einstein_check(code, out, err) -> Verdict:
    v = Verdict()
    _expect_exit(v, code, 0, err)
    if code == 0:
        doc = json.loads(out)
        v.require("not reported Einstein", doc.get("einstein") is True)
        v.close("mu", abs(doc["einstein_mu"] + 1.0), TOL)
    return v


# how the CLI reports OracleMismatch, the named refusal tangent_bundle_ricci raises
# for a metric that is not a multiple of the trace form
_ORACLE_MISMATCH = re.compile(r"^failure: .*independent routes disagree", re.M)


def _file_metric_check(n: int) -> Callable:
    def check(code, out, err) -> Verdict:
        v = Verdict()
        if code == 1 and _ORACLE_MISMATCH.search(err):
            v.refused = "OracleMismatch"
            return v
        _expect_exit(v, code, 0, err)
        if code == 0:
            doc = json.loads(out)
            for key in ("tb_ricci_hh", "tb_ricci_vv", "tb_ricci_hv", "base_ricci"):
                block = np.array(doc[key], dtype=float)
                v.require(f"{key} shape {block.shape}", block.shape == (n, n))
                v.require(f"{key} not finite", bool(np.all(np.isfinite(block))))
            for key in ("tb_ricci_hh", "tb_ricci_vv"):
                block = np.array(doc[key], dtype=float)
                v.close(f"{key} symmetry", _maxabs(block - block.T), TOL * _scale(block))
        return v

    return check


def _search_check(grid: int) -> Callable:
    want = sorted(DIM5_BRANCHES)

    def check(code, out, err) -> Verdict:
        v = Verdict()
        _expect_exit(v, code, 0, err)
        if code != 0:
            return v
        roots = json.loads(out.strip().splitlines()[0])
        v.counters = {"search.roots": len(roots), "search.seeds": grid * grid}
        v.require(f"{len(roots)} dim5 roots, expected {len(want)}", len(roots) == len(want))
        if len(roots) == len(want):
            v.close("dim5 roots", _maxabs(np.array(sorted(roots)) - np.array(want)), 1e-6)
        v.require("not every root verified", err.count("verified") == len(want))
        return v

    return check


def _verify_all_check(count: int) -> Callable:
    def check(code, out, err) -> Verdict:
        v = Verdict()
        _expect_exit(v, code, 0, err)
        if code == 0:
            rows = json.loads(out)["entries"]
            v.require(f"{len(rows)} entries, expected {count}", len(rows) == count)
            v.require("an entry failed", all(r["ok"] for r in rows))
        return v

    return check


def _params_argv(params: dict) -> list[str]:
    return [a for k, val in params.items() for a in ("--param", f"{k}={val!r}")]


def _rn_theo_data(n: int, rng: np.random.Generator) -> tuple[dict, np.ndarray]:
    """Construction data of the R^n product in a random basis, and its constants.

    The product part is the sum-zero hyperplane with u o v the projection of
    the coordinatewise product; in a basis U orthonormal for <,>/n its
    constants are dense: c2[a, b, c] = sum_i U[i,a] U[i,b] U[i,c] / n.
    """
    m = n - 1
    q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, m))]))
    U = q[:, 1:] @ random_orthogonal(m, rng) * np.sqrt(n)
    c2 = np.einsum("ia,ib,ic->abc", U, U, U) / n
    c = np.zeros((n, n, n))
    s2, h = slice(0, m), n - 1
    c[s2, s2, s2] = c2
    c[s2, s2, h] = np.eye(m)
    c[s2, h, s2] = np.eye(m)
    c[h, s2, s2] = np.eye(m)
    c[h, h, h] = 1.0
    return {"n1": 0, "n2": m, "c2": c2.tolist()}, c


def cli_catalog(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    d = workdir
    write: list[Job] = []
    read: list[Job] = []

    for name in ls.catalog_list():
        entry = ls.catalog_entry(name)
        params = ls.sample_params(name, rng)
        resolved = entry.resolve(params)
        built = entry.build(params)
        A = built.algebra if isinstance(built, ls.MetricAlgebra) else built
        metric = built.metric.matrix if isinstance(built, ls.MetricAlgebra) else None
        path = d / f"{name}.alg"
        argv = ["catalog", "export", name, *_params_argv(params), "--out", str(path)]
        write.append(_cli_job(f"cli export {name}", A.dim, argv,
                              _file_matches(path, A.constants, metric), path))
        if entry.kind == "khessian":
            k = entry.expected_k(resolved)
            read.append(_cli_job(f"cli check --khessian {name}", A.dim,
                                 ["check", str(path), "--khessian", repr(k)],
                                 _stdout_has("k-hessian: PASS")))
            continue
        read.append(_cli_job(f"cli check {name}", A.dim, ["check", str(path)],
                             _stdout_has("left-symmetric: PASS")))
        read.append(_cli_job(f"cli koszul {name}", A.dim, ["koszul", str(path), "--json"],
                             _koszul_check(np.asarray(entry.expected_koszul(resolved), dtype=float),
                                           entry.kind == "lspk")))
        if entry.kind == "lspk":
            n1, n2, rho = entry.expected_signature(resolved)
            read.append(_cli_job(f"cli decompose {name}", A.dim,
                                 ["decompose", str(path), "--json"], _decompose_check(n1, n2, rho)))
            if name in GEOMETRY_CATALOG[:4]:
                read.append(_cli_job(f"cli geometry --einstein {name}", A.dim,
                                     ["geometry", str(path), "--einstein", "--json"],
                                     _einstein_check))

    for n in (8, 16):
        skew = random_skew(n, rng)
        skew_path, path = d / f"skew{n}.json", d / f"flat{n}.alg"
        skew_path.write_text(json.dumps(skew.tolist()))
        c = np.zeros((n + 1, n + 1, n + 1))
        c[range(n), range(n), n] = 1.0
        c[n, :n, :n] = (skew + np.eye(n) / 2.0).T
        c[n, n, n] = 1.0
        write.append(_cli_job(f"cli build corollary1 n={n}", n + 1,
                              ["build", "corollary1", str(n), "--skew", str(skew_path),
                               "--out", str(path)], _file_matches(path, c, None), path))
        rho = n / 2.0 + 1.0
        read.append(_cli_job(f"cli koszul flat{n}", n + 1, ["koszul", str(path), "--json"],
                             _koszul_check(rho * np.eye(n + 1), True)))
        read.append(_cli_job(f"cli decompose flat{n}", n + 1, ["decompose", str(path), "--json"],
                             _decompose_check(n, 0, rho)))
    read.append(_cli_job("cli check --lsa flat16", 17, ["check", "--lsa", str(d / "flat16.alg")],
                         _stdout_has("left-symmetric: PASS")))

    n = 6
    h = rng.standard_normal(n)
    g = _random_spd(n, rng)
    spec_path, path = d / "milnor6.json", d / "milnor6.alg"
    spec_path.write_text(json.dumps({"dim": n, "h": h.tolist(), "metric": g.tolist()}))
    c = np.einsum("ij,k->ijk", g, h) - np.einsum("j,ik->ijk", g @ h, np.eye(n))
    k = -float(h @ g @ h)
    write.append(_cli_job("cli build milnor n=6", n, ["build", "milnor", str(spec_path),
                                                       "--out", str(path)],
                          _file_matches(path, c, g), path))
    read.append(_cli_job("cli check --khessian milnor6", n,
                         ["check", str(path), "--khessian", repr(k)],
                         _stdout_has("k-hessian: PASS")))

    for n in DENSE_SIZES:
        data, c = _rn_theo_data(n, rng)
        data_path, path = d / f"rn{n}.json", d / f"rn{n}.alg"
        data_path.write_text(json.dumps(data))
        write.append(_cli_job(f"cli build theo rn n={n}", n,
                              ["build", "theo", str(data_path), "--out", str(path)],
                              _file_matches(path, c, None), path))
        read.append(_cli_job(f"cli check --lsa rn n={n}", n, ["check", "--lsa", str(path)],
                             _stdout_has("left-symmetric: PASS")))
        read.append(_cli_job(f"cli koszul rn n={n}", n, ["koszul", str(path), "--json"],
                             _koszul_check(n * np.eye(n), True)))

    read.append(_cli_job("cli catalog verify-all", 5, ["catalog", "verify-all", "--json"],
                         _verify_all_check(len(ls.catalog_list()))))
    read.append(_cli_job(f"cli search dim5 --grid {SEARCH_GRID}", 2,
                         ["search", "dim5", "--grid", str(SEARCH_GRID), "--verify"],
                         _search_check(SEARCH_GRID)))

    for name in FILE_METRIC_ENTRIES:
        A = ls.catalog_build(name, ls.sample_params(name, rng))
        path = d / f"{name}.metric.alg"
        _write_algebra(path, A.constants, _random_spd(A.dim, rng), name)
        read.append(_cli_job(f"cli geometry file-metric {name}", A.dim,
                             ["geometry", str(path), "--json"], _file_metric_check(A.dim)))

    warm_path = d / "warm.alg"
    warm = [
        _cli_job("cli export warm", 2, ["catalog", "export", "lspk_dim2", "--out", str(warm_path)],
                 _stdout_has()),
        _cli_job("cli check warm", 2, ["check", str(warm_path)], _stdout_has()),
        _cli_job("cli decompose warm", 2, ["decompose", str(warm_path), "--json"], _stdout_has()),
    ]
    return Workload(write + read, warm)


WORKLOADS = {
    "decompose-sweep": decompose_sweep,
    "geometry-einstein": geometry_einstein,
    "cli-catalog": cli_catalog,
}
