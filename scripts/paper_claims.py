"""Certify the claims of the paper (arXiv 2411.01650) and print them as one JSON ledger:

    python3 scripts/paper_claims.py

A row's status is ok, FAIL, or "open (item k)" while item k of ROADMAP.md has not landed.
Its worst check is the first that fails, else the one of largest Check.margin, and a
LeftSymError fails its input by name.  Exit status 0 means that no row is FAIL.
"""

import json
import math
import sys

import numpy as np

import leftsym as ls

EPS = ls.Tolerance().eps


def near(name, got, want):
    return ls.Check(name, abs(got - want), EPS * ls.residual_scale(want))


def transports(label, A):
    """A and two seeded transports of it by Q diag(geomspace(1, 10, n))."""
    rng, d = np.random.default_rng(A.dim), np.geomspace(1.0, 10.0, A.dim)
    qs = [np.linalg.qr(rng.standard_normal((A.dim, A.dim)))[0] for _ in (1, 2)]
    return [(label, A)] + [(f"{label} @ T{t}", ls.change_basis(A, q * d)) for t, q in enumerate(qs, 1)]


def declared(A, n1, n2, rho):
    """The checks of decompose(A), rebuilt, then its signature and rho against the declared ones."""
    dec = ls.decompose(A)
    ls.build_lspk(ls.data_from_decomposition(dec))
    mismatch = float(max(abs(dec.dim_h1 - n1), abs(dec.dim_h2 - n2)))
    return [*dec.checks, ls.Check("signature", mismatch, 0.0), near("rho", dec.rho, rho)]


def commutative_rn(A):
    image = ls.change_basis(A, ls.rn_isomorphism(A)).constants
    canonical = ls.catalog_build("rn_canonical", {"n": A.dim}).constants
    worst = float(np.abs(image - canonical).max())
    return [ls.Check("R^n product", worst, EPS * ls.residual_scale(image, canonical))]


def einstein(x):
    A = x[0]
    report = ls.tangent_bundle_ricci(ls.MetricAlgebra(A, ls.koszul_form(A)))
    mus = [near(f"mu at alpha {a}", ls.einstein_check(A, a), -1.0 / a) for a in (0.5, 1.0, 2.0)]
    return [report.einstein, *mus]


def new_class(x):
    if isinstance(x, str):  # a k-Hessian catalog entry
        return [ls.catalog_verify(x)]
    return [c for c in ls.decompose(x[0]).checks if c.name in ("S2-hessian", "S2-sectional")]


def roots(name):
    system = ls.builtin_system(name)
    found = ls.newton_search(system, [(-1.0, 1.0)] * system.arity, grid=16)
    count = ls.Check(f"{name} roots", float(abs(len(found) - len(ls.admissible_roots(name)))), 0.0)
    return [count, *(ls.verify_roots_build(name, r) for r in found)]


def row(claim, inputs, run):
    """The row of a claim: run(x) gives the checks of input x; a LeftSymError fails x by name."""
    checks = []
    for label, x in inputs:
        try:
            checks += [(label, c) for c in run(x)]
        except ls.LeftSymError as exc:
            error = f"{type(exc).__name__}: {exc}"
            checks.append((label, ls.Check(error, getattr(exc, "residual", math.nan), math.nan)))
    failed = [lc for lc in checks if not lc[1].holds]
    label, worst = failed[0] if failed else max(checks, key=lambda lc: lc[1].margin)
    numbers = [v if v is None or math.isfinite(v) else None  # strict JSON
               for v in (worst.residual, worst.threshold, worst.margin)]
    return {"claim": claim, "status": "FAIL" if failed else "ok",
            "inputs": [label for label, _ in inputs], "checks": len(checks),
            "worst": dict(zip(("name", "residual", "threshold", "margin"),
                              [f"{label}: {worst.name}", *numbers]))}


def open_row(claim, item):
    return {"claim": claim, "status": f"open (item {item})", "inputs": [], "checks": 0, "worst": None}


def main():
    entries = [ls.catalog_entry(name) for name in ls.catalog_list()]
    lspk = [(label, (A, *e.expected_signature(e.resolve(None)))) for e in entries if e.kind == "lspk"
            for label, A in transports(e.name, e.build())]
    corollaries = [(f"corollary1({k})", (ls.build_corollary1, k, k, 0, k / 2 + 1)) for k in (1, 2, 4, 8)]
    for label, h in (("khess_r3_commutative", ls.catalog_build("khess_r3_commutative")),
                     ("unit rank-one", ls.build_milnor(ls.MilnorSpec(3, np.eye(3)[0]))[0])):
        corollaries.append((f"corollary2({label})", (ls.build_corollary2, h, 0, h.dim, h.dim + 1)))
    rn = [x for n in range(1, 7)
          for x in transports(f"rn_canonical(n={n})", ls.catalog_build("rn_canonical", {"n": n}))]
    members = [x for x in lspk if x[1][2] >= 1]  # n2 >= 1
    khessian = [(e.name, e.name) for e in entries if e.kind == "khessian"]
    rows = [
        row("characterization", lspk, lambda x: declared(*x)),
        row("corollaries 1 and 2", corollaries, lambda x: declared(x[0](x[1]), *x[2:])),
        row("R^n, commutative case", rn, commutative_rn),
        open_row("R^n, associative or Novikov", 2),
        row("Einstein factor of the closed-form double-space blocks", lspk, einstein),
        open_row("Kähler-Einstein on TG, generic route", 1),
        row("new class", members + khessian, new_class),
        row("parameter systems", [(name, name) for name in ls.builtin_names()], roots),
        open_row("local symmetry of Tg (an extension, not the paper's claim)", 13),
    ]
    print(json.dumps({"rows": rows}, indent=2, allow_nan=False))
    return 1 if any(r["status"] == "FAIL" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
