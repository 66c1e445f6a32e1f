"""Command-line front end.

Every subcommand reads and writes the JSON algebra-file format from
algfile.  Exit codes: 0 when everything asked for passes, 1 when a
predicate or verification fails, 2 on usage or parse errors.  The
LSPK_EPS environment variable overrides the default tolerance; a
tolerance recorded inside an input file overrides both.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .algfile import (
    AlgebraFile,
    parse_algebra_file,
    parse_lspk_data,
    parse_matrix_file,
    parse_milnor_spec,
    render_algebra_file,
)
from .catalog import _parts, catalog_build, catalog_entry, catalog_list, catalog_verify
from .construct import build_corollary1, build_corollary2, build_lspk, build_milnor
from .core import Tolerance, _worst_of, residual_scale
from .decompose import decompose
from .errors import (
    FixtureBroken,
    LeftSymError,
    NotEinstein,
    ParseError,
    SchemaError,
    UnknownEntry,
    UnknownSystem,
)
from .forms import (
    BilinearForm,
    MetricAlgebra,
    check_hessian,
    check_k_hessian,
    check_left_symmetric,
    check_novikov,
    is_positive_definite,
    koszul_form,
)
from .geometry import tangent_bundle_ricci
from .search import builtin_system, newton_search, verify_roots_build


def _load_file(path: str) -> AlgebraFile:
    return parse_algebra_file(Path(path).read_text())


def _tolerance(af: AlgebraFile | None, tol: Tolerance) -> Tolerance:
    if af is not None and af.tolerance is not None:
        return Tolerance(af.tolerance)
    return tol


def _matrix_lines(m: np.ndarray) -> list[str]:
    return ["  [" + ", ".join(format(v, "< .10g").strip() for v in row) + "]" for row in m]


def _emit(doc: dict) -> None:
    print(json.dumps(doc, indent=2))


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_check(args, tol: Tolerance) -> int:
    af = _load_file(args.file)
    tol = _tolerance(af, tol)
    A = af.algebra
    checks: list[tuple[str, object]] = []

    wants_metric = args.hessian or args.khessian is not None
    if wants_metric and af.metric is None:
        print("error: this check needs a metric in the file", file=sys.stderr)
        return 2

    if args.lsa:
        checks.append(("left-symmetric", check_left_symmetric(A, tol)))
    elif args.novikov:
        checks.append(("novikov", check_novikov(A, tol)))
    elif args.hessian:
        checks.append(("hessian", check_hessian(A, af.metric, tol)))
    elif args.khessian is not None:
        checks.append(("k-hessian", check_k_hessian(A, af.metric, args.khessian, tol)))
    else:
        checks.append(("left-symmetric", check_left_symmetric(A, tol)))
        if af.metric is not None:
            checks.append(("hessian", check_hessian(A, af.metric, tol)))

    pd_info = None
    if not (args.lsa or args.novikov or args.hessian or args.khessian is not None):
        pd_info = bool(is_positive_definite(koszul_form(A), tol))

    if args.json:
        doc = {
            "file": args.file,
            "checks": [
                {"name": n, "holds": bool(r), "residual": r.max_residual} for n, r in checks
            ],
        }
        if pd_info is not None:
            doc["koszul_positive_definite"] = pd_info
        _emit(doc)
    else:
        for n, r in checks:
            state = "PASS" if r else "FAIL"
            print(f"{n}: {state} (residual {r.max_residual:.3e})")
        if pd_info is not None:
            print(f"koszul positive definite: {'yes' if pd_info else 'no'}")
    return 0 if all(bool(r) for _, r in checks) else 1


def _cmd_koszul(args, tol: Tolerance) -> int:
    af = _load_file(args.file)
    tol = _tolerance(af, tol)
    B = koszul_form(af.algebra)
    pd = is_positive_definite(B, tol)
    if args.json:
        _emit({"koszul": B.matrix.tolist(), "positive_definite": bool(pd)})
    else:
        print("koszul form:")
        print("\n".join(_matrix_lines(B.matrix)))
        print(f"positive definite: {'yes' if pd else 'no'}")
    return 0


def _cmd_decompose(args, tol: Tolerance) -> int:
    af = _load_file(args.file)
    tol = _tolerance(af, tol)
    dec = decompose(af.algebra, tol)
    worst = _worst_of(dec.residuals.values(), default=0.0)
    if args.json:
        _emit(
            {
                "dim_h1": dec.dim_h1,
                "dim_h2": dec.dim_h2,
                "rho": dec.rho,
                "H": dec.H.tolist(),
                "basis": dec.basis.tolist(),
                "residuals": {k: v for k, v in dec.residuals.items()},
                "worst_residual": worst,
            }
        )
    else:
        print(f"signature: dim h1 = {dec.dim_h1}, dim h2 = {dec.dim_h2}, rho = {dec.rho:g}")
        print(f"idempotent H: {dec.H.tolist()}")
        print(f"worst residual: {worst:.3e}")
    return 0


def _cmd_build(args, tol: Tolerance) -> int:
    if args.builder == "corollary1":
        skew = parse_matrix_file(Path(args.skew).read_text()) if args.skew else None
        A = build_corollary1(args.n, skew=skew, tol=tol)
        _write_output(render_algebra_file(A), args.out)
        return 0
    if args.builder == "corollary2":
        af = _load_file(args.file)
        tol = _tolerance(af, tol)
        if af.metric is None:
            print("error: corollary2 input file needs a metric", file=sys.stderr)
            return 2
        skew = parse_matrix_file(Path(args.skew).read_text()) if args.skew else None
        A = build_corollary2(MetricAlgebra(af.algebra, af.metric), skew=skew, tol=tol)
        _write_output(render_algebra_file(A), args.out)
        return 0
    if args.builder == "theo":
        data = parse_lspk_data(Path(args.file).read_text())
        A = build_lspk(data, tol)
        _write_output(render_algebra_file(A), args.out)
        return 0
    if args.builder == "milnor":
        spec = parse_milnor_spec(Path(args.file).read_text())
        M, k = build_milnor(spec, tol)
        _write_output(render_algebra_file(M.algebra, M.metric), args.out)
        print(f"k = {k:.17g}", file=sys.stderr)
        return 0
    raise UnknownEntry(f"no builder named {args.builder!r}")  # pragma: no cover


def _cmd_geometry(args, tol: Tolerance) -> int:
    af = _load_file(args.file)
    tol = _tolerance(af, tol)
    A = af.algebra
    if args.scale is not None:
        if not (args.scale > 0 and np.isfinite(args.scale)):
            raise ValueError(f"--scale must be positive and finite, got {args.scale}")
        B = koszul_form(A)
        metric = BilinearForm(args.scale * B.matrix)
    elif af.metric is not None:
        metric = af.metric
    else:
        metric = koszul_form(A)
    report = tangent_bundle_ricci(MetricAlgebra(A, metric), tol)

    einstein_ok = True
    if args.einstein:
        einstein_ok = report.einstein_residual <= tol.eps * residual_scale(metric.matrix)

    if args.json:
        doc = report.as_dict()
        if args.einstein:
            doc["einstein"] = bool(einstein_ok)
        _emit(doc)
    else:
        print("base ricci:")
        print("\n".join(_matrix_lines(report.base_ricci.matrix)))
        print("beta:")
        print("\n".join(_matrix_lines(report.beta.matrix)))
        if args.tb_ricci:
            print("tb ricci hh:")
            print("\n".join(_matrix_lines(report.tb_ricci_hh.matrix)))
            print("tb ricci vv:")
            print("\n".join(_matrix_lines(report.tb_ricci_vv.matrix)))
            print("tb ricci hv:")
            print("\n".join(_matrix_lines(report.tb_ricci_hv)))
        if args.einstein:
            if not einstein_ok:
                raise NotEinstein("einstein", report.einstein_residual)
            print(f"mu = {report.einstein_mu:g}")
    if args.einstein and not einstein_ok:
        return 1
    return 0


def _parse_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise SchemaError(f"--param expects name=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            value = float(raw)
        except ValueError:
            raise SchemaError(f"--param {key}: {raw!r} is not a number") from None
        out[key] = int(value) if value == int(value) else value
    return out


def _cmd_catalog(args, tol: Tolerance) -> int:
    if args.action == "list":
        for name in catalog_list():
            print(name)
        return 0
    if args.action == "show":
        entry = catalog_entry(args.name)
        params = _parse_params(args.param)
        A, metric = _parts(entry.build(params))
        print(f"name: {entry.name}")
        print(f"kind: {entry.kind}")
        for spec in entry.params:
            bounds = f" in {spec.choices}" if spec.choices else f" in [{spec.low}, {spec.high}]"
            print(f"param {spec.name} (default {spec.default:g}){bounds}")
        resolved = entry.resolve(params)
        if entry.expected_signature is not None:
            print(f"expected signature: {entry.expected_signature(resolved)}")
        if entry.expected_k is not None:
            print(f"expected k: {entry.expected_k(resolved):g}")
        sys.stdout.write(render_algebra_file(A, metric))
        return 0
    if args.action == "verify-all":
        rows = []
        for name in catalog_list():
            try:
                rep = catalog_verify(name, tol=tol)
                rows.append({"name": name, "ok": True, "worst_residual": rep.max_residual})
            except FixtureBroken as exc:
                rows.append(
                    {"name": name, "ok": False, "predicate": exc.predicate, "residual": exc.residual}
                )
        if args.json:
            _emit({"entries": rows})
        else:
            for row in rows:
                if row["ok"]:
                    print(f"{row['name']}: ok (worst residual {row['worst_residual']:.3e})")
                else:
                    tail = "" if row["residual"] is None else f", residual {row['residual']:.3e}"
                    print(f"{row['name']}: FAIL ({row['predicate']}{tail})")
        return 0 if all(row["ok"] for row in rows) else 1
    if args.action == "export":
        built = catalog_build(args.name, _parse_params(args.param))
        _write_output(render_algebra_file(*_parts(built)), args.out)
        return 0
    raise UnknownEntry(f"no catalog action named {args.action!r}")  # pragma: no cover


def _parse_box(raw: str) -> tuple[float, float]:
    sep = "," if "," in raw else ":"
    parts = raw.split(sep)
    if len(parts) != 2:
        raise SchemaError(f"--box expects two numbers, got {raw!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not lo < hi:
        raise SchemaError(f"--box needs lo < hi, got {raw!r}")
    return lo, hi


def _cmd_search(args, tol: Tolerance) -> int:
    system = builtin_system(args.system)
    box = [_parse_box(args.box)] * system.arity
    roots = newton_search(system, box, args.grid)
    print(json.dumps([list(r) for r in roots]))
    if args.verify:
        for root in roots:
            rep = verify_roots_build(args.system, root)
            print(f"root {list(root)}: verified (worst residual {rep.max_residual:.3e})",
                  file=sys.stderr)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leftsym",
        description="verify, decompose, construct and measure left-symmetric algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run axiom predicates on an algebra file")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--all", action="store_true", help="every applicable predicate (default)")
    group.add_argument("--lsa", action="store_true", help="left-symmetry only")
    group.add_argument("--novikov", action="store_true", help="novikov identities")
    group.add_argument("--hessian", action="store_true", help="metric compatibility")
    group.add_argument("--khessian", type=float, metavar="K", help="sectional identity at K")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("koszul", help="print the trace form of an algebra file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_koszul)

    p = sub.add_parser("decompose", help="split an algebra around its idempotent")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("build", help="assemble an algebra from construction data")
    bsub = p.add_subparsers(dest="builder", required=True)
    b = bsub.add_parser("corollary1", help="flat part of dimension n plus idempotent")
    b.add_argument("n", type=int)
    b.add_argument("--skew", help="JSON matrix file with a skew operator")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_build)
    b = bsub.add_parser("corollary2", help="curved part from a metric algebra file")
    b.add_argument("file")
    b.add_argument("--skew", help="JSON matrix file with a skew derivation")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_build)
    b = bsub.add_parser("theo", help="general assembly from a data file")
    b.add_argument("file")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_build)
    b = bsub.add_parser("milnor", help="rank-one family from a spec file")
    b.add_argument("file")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_build)

    p = sub.add_parser("geometry", help="curvature report for an algebra file")
    p.add_argument("file")
    p.add_argument("--scale", type=float, help="use scale * trace form as the metric")
    p.add_argument("--tb-ricci", action="store_true", help="print the double-space blocks")
    p.add_argument("--einstein", action="store_true", help="verify proportionality, print mu")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_geometry)

    p = sub.add_parser("catalog", help="inspect the registry of worked examples")
    csub = p.add_subparsers(dest="action", required=True)
    c = csub.add_parser("list", help="entry names")
    c.set_defaults(func=_cmd_catalog)
    c = csub.add_parser("show", help="parameters and products of one entry")
    c.add_argument("name")
    c.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    c.set_defaults(func=_cmd_catalog)
    c = csub.add_parser("verify-all", help="replay every entry's predicate suite")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_catalog)
    c = csub.add_parser("export", help="write one entry as an algebra file")
    c.add_argument("name")
    c.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    c.add_argument("--out")
    c.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("search", help="roots of a builtin parameter system")
    p.add_argument("system")
    p.add_argument("--box", default="-1,1", help="per-axis interval lo,hi")
    p.add_argument("--grid", type=int, default=32, help="seeds per axis")
    p.add_argument("--verify", action="store_true", help="rebuild and verify each root")
    p.set_defaults(func=_cmd_search)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, Tolerance.from_env())
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, SchemaError, UnknownEntry, UnknownSystem, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LeftSymError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
