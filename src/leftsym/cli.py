"""Command-line front end.

Every subcommand reads and writes the JSON algebra-file format from
algfile.  Exit codes: 0 when everything asked for passes, 1 when a
predicate or verification fails, 2 on usage or parse errors.  A handler
returns its verdict or raises; run() alone turns an exception into its
error: or failure: line and exit code.  The LSPK_EPS environment variable
overrides the default tolerance; a tolerance recorded inside an input file
overrides both.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
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
from .core import Tolerance, _enforce, _worst_of
from .decompose import decompose
from .errors import (
    DimensionMismatch,
    FixtureBroken,
    LeftSymError,
    NotEinstein,
    ParseError,
    PreconditionFailed,
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


def _load(path: str, tol: Tolerance) -> tuple[AlgebraFile, Tolerance]:
    """An algebra file and the tolerance to judge it at: the one it records, else tol."""
    af = parse_algebra_file(Path(path).read_text())
    return af, tol if af.tolerance is None else Tolerance(af.tolerance)


def _matrix_lines(m: np.ndarray) -> list[str]:
    return ["  [" + ", ".join(format(v, "< .10g").strip() for v in row) + "]" for row in m]


def _null_if_non_finite(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _null_if_non_finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_null_if_non_finite(v) for v in obj]
    return obj


def _emit(doc: dict) -> None:
    """Print doc as strict JSON: a non-finite float becomes null."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:  # only walk the document when it holds a NaN or an infinity
        text = json.dumps(_null_if_non_finite(doc), indent=2)
    print(text)


def _write_output(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_check(args, tol: Tolerance) -> int:
    af, tol = _load(args.file, tol)
    A = af.algebra
    if (args.hessian or args.khessian is not None) and af.metric is None:
        raise SchemaError("this check needs a metric in the file")

    pd_info = None
    if args.lsa:
        checks = [("left-symmetric", check_left_symmetric(A, tol))]
    elif args.novikov:
        checks = [("novikov", check_novikov(A, tol))]
    elif args.hessian:
        checks = [("hessian", check_hessian(A, af.metric, tol))]
    elif args.khessian is not None:
        checks = [("k-hessian", check_k_hessian(A, af.metric, args.khessian, tol))]
    else:  # the default suite, which also reports whether the trace form is definite
        checks = [("left-symmetric", check_left_symmetric(A, tol))]
        if af.metric is not None:
            checks.append(("hessian", check_hessian(A, af.metric, tol)))
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
    af, tol = _load(args.file, tol)
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
    af, tol = _load(args.file, tol)
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


def _skew(args) -> np.ndarray | None:
    return parse_matrix_file(Path(args.skew).read_text()) if args.skew else None


# A builder returns what it built and, for the rank-one family, its sectional constant k.
def _corollary1(args, tol: Tolerance):
    return build_corollary1(args.n, skew=_skew(args), tol=tol), None


def _corollary2(args, tol: Tolerance):
    af, tol = _load(args.file, tol)
    if af.metric is None:
        raise SchemaError("corollary2 input file needs a metric")
    return build_corollary2(MetricAlgebra(af.algebra, af.metric), skew=_skew(args), tol=tol), None


def _theo(args, tol: Tolerance):
    return build_lspk(parse_lspk_data(Path(args.file).read_text()), tol), None


def _milnor(args, tol: Tolerance):
    return build_milnor(parse_milnor_spec(Path(args.file).read_text()), tol)


def _cmd_build(args, tol: Tolerance) -> int:
    built, k = args.build(args, tol)
    _write_output(render_algebra_file(*_parts(built)), args.out)
    if k is not None:
        print(f"k = {k:.17g}", file=sys.stderr)
    return 0


def _cmd_geometry(args, tol: Tolerance) -> int:
    af, tol = _load(args.file, tol)
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

    if args.json:
        doc = report.as_dict()
        if args.einstein:
            doc["einstein"] = report.einstein.holds
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
            _enforce([report.einstein], NotEinstein)
            print(f"mu = {report.einstein_mu:g}")
    return 1 if args.einstein and not report.einstein else 0


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
        if not math.isfinite(value):
            raise SchemaError(f"--param {key}: {raw!r} is not finite")
        out[key] = value  # ParamSpec.validate makes an integer parameter an int
    return out


def _cmd_list(args, tol: Tolerance) -> int:
    for name in catalog_list():
        print(name)
    return 0


def _cmd_show(args, tol: Tolerance) -> int:
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


def _cmd_verify_all(args, tol: Tolerance) -> int:
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


def _cmd_export(args, tol: Tolerance) -> int:
    built = catalog_build(args.name, _parse_params(args.param))
    _write_output(render_algebra_file(*_parts(built)), args.out)
    return 0


def _parse_box(raw: str) -> tuple[float, float]:
    sep = "," if "," in raw else ":"
    parts = raw.split(sep)
    if len(parts) != 2:
        raise SchemaError(f"--box expects two numbers, got {raw!r}")
    bounds = []
    for part in parts:
        try:
            bounds.append(float(part))
        except ValueError:
            raise SchemaError(f"--box {raw!r}: {part!r} is not a number") from None
    lo, hi = bounds
    if not lo < hi:
        raise SchemaError(f"--box needs lo < hi, got {raw!r}")
    return lo, hi


def _cmd_search(args, tol: Tolerance) -> int:
    system = builtin_system(args.system)
    box = [_parse_box(args.box)] * system.arity
    try:
        roots = newton_search(system, box, args.grid)
    except PreconditionFailed as exc:  # a bad --grid or --box
        raise SchemaError(str(exc)) from None
    print(json.dumps([list(r) for r in roots]))
    if args.verify:
        for root in roots:
            rep = verify_roots_build(args.system, root)
            print(f"root {list(root)}: verified (worst residual {rep.max_residual:.3e})",
                  file=sys.stderr)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first run() of the process.

    One parser serves every call: parse_args fills a fresh Namespace and
    the append actions copy their default list before appending.  What
    depends on the environment (LSPK_EPS, the help width) is read per call.
    """
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
    b.set_defaults(func=_cmd_build, build=_corollary1)
    b = bsub.add_parser("corollary2", help="curved part from a metric algebra file")
    b.add_argument("file")
    b.add_argument("--skew", help="JSON matrix file with a skew derivation")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_build, build=_corollary2)
    b = bsub.add_parser("theo", help="general assembly from a data file")
    b.add_argument("file")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_build, build=_theo)
    b = bsub.add_parser("milnor", help="rank-one family from a spec file")
    b.add_argument("file")
    b.add_argument("--out")
    b.set_defaults(func=_cmd_build, build=_milnor)

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
    c.set_defaults(func=_cmd_list)
    c = csub.add_parser("show", help="parameters and products of one entry")
    c.add_argument("name")
    c.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    c.set_defaults(func=_cmd_show)
    c = csub.add_parser("verify-all", help="replay every entry's predicate suite")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_verify_all)
    c = csub.add_parser("export", help="write one entry as an algebra file")
    c.add_argument("name")
    c.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    c.add_argument("--out")
    c.set_defaults(func=_cmd_export)

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
        # products that overflow are refused by name; numpy's warnings would only precede that
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args, Tolerance.from_env())
    except (OSError, ParseError, SchemaError, DimensionMismatch, UnknownEntry,
            UnknownSystem, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LeftSymError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
