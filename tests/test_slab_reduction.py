"""Rank-4 defects reduced slab by slab, against full-tensor oracles.

core._slab_worst never holds a whole n^4 defect: it evaluates one slab of an
index at a time and keeps the running worst entry and its witness.  The oracles
below build each defect as one tensor, the way the identities read on paper,
and the reduction must report the same worst entry (to 1e-13 of its size) and
the same witness.  The sizes straddle the slab edges: n <= 12 is one slab,
n = 13 splits into slabs of 10 and 3, and n = 24, 25 take one k per slab.
The last tests count the kernel runs and the measurements of the split systems
that a decompose and its rebuild make, and scan the syntax tree for the one
place the systems are measured and for every call of the kernel.
"""

import ast
import importlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from leftsym import (
    AlgebraStructure,
    LSPKData,
    Tolerance,
    change_basis,
    check_associative,
    check_jacobi,
    check_left_symmetric,
    check_novikov,
    data_from_decomposition,
    data_residuals,
    decompose,
    einstein_check,
    residual_scale,
    validate_data,
)
from leftsym import _systems, construct, forms
from leftsym.catalog import catalog_build, catalog_list
from leftsym.construct import MilnorSpec, build_corollary1, build_corollary2, build_lspk, build_milnor
from leftsym.core import Check, _compose, _conjunction, _slab_worst
from leftsym.forms import _left_symmetry_worst, _metric_sectional, _worst

SIZES = [0, 1, 2, 5, 12, 13, 24, 25]


def assoc_tensor(c):
    """T[i,j,k,:] = associator(e_i, e_j, e_k)."""
    return np.einsum("ijm,mkl->ijkl", c, c) - np.einsum("jkm,iml->ijkl", c, c)


def left_symmetry_defect(c):
    """ass(x, y, z) - ass(y, x, z) on basis triples."""
    t = assoc_tensor(c)
    return t - t.transpose(1, 0, 2, 3)


def sectional_target(g, x):
    """T[i,j,k,l] = g_jk x_li - g_ik x_lj, i.e. <e_j,e_k> X e_i - <e_i,e_k> X e_j for X = x."""
    return np.einsum("jk,li->ijkl", g, x) - np.einsum("ik,lj->ijkl", g, x)


def _data(n):
    rng = np.random.default_rng(1000 + n)
    c = rng.standard_normal((n, n, n))
    g = rng.standard_normal((n, n))
    g = g @ g.T + n * np.eye(n)
    return c, g


def _assert_same_worst(got, want):
    if want[1] is None:
        assert got == want == (None, None)  # one vacuous rule for _worst and _slab_worst
        return
    assert abs(got[0] - want[0]) <= 1e-13 * max(1.0, want[0])
    assert got[1] == want[1]


@pytest.mark.parametrize("n", SIZES)
def test_sectional_defects_match_the_full_tensor_oracle(n):
    c, g = _data(n)
    eye = np.eye(n)
    d = left_symmetry_defect(c)
    cases = [
        (None, d),  # left symmetry
        (_metric_sectional(g, -1.0), d - sectional_target(g, eye)),  # S2, corollary 2
        (_metric_sectional(g, 2.5), d + 2.5 * sectional_target(g, eye)),  # check_k_hessian
    ]
    for target, full in cases:
        _assert_same_worst(_left_symmetry_worst(c, target), _worst(full))


@pytest.mark.parametrize("n", SIZES)
def test_predicates_match_the_full_tensor_oracle(n):
    c, _ = _data(n)
    A = AlgebraStructure(c)
    lie = AlgebraStructure(c - c.transpose(1, 0, 2))
    left = np.einsum("ijm,mkl->ijkl", c, c)
    t = np.einsum("ijm,mkl->ijkl", lie.constants, lie.constants)
    right_symmetry = left - left.transpose(0, 2, 1, 3)
    jacobi = t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)
    reports = [
        (check_left_symmetric(A), left_symmetry_defect(c)),
        (check_associative(A), assoc_tensor(c)),
        (check_novikov(A), right_symmetry),  # its first part, which fails on these data
        (check_jacobi(lie), jacobi),
    ]
    for rep, full in reports:
        if n == 0:
            assert (rep.holds, rep.max_residual, rep.witness) == (True, 0.0, None)
            continue
        want = _worst(full)
        if rep is reports[-1][0]:
            # the Jacobiator is antisymmetric only up to rounding, so its maximum is
            # never unique: the witness need only attain it
            assert abs(rep.max_residual - want[0]) <= 1e-13 * want[0]
            assert np.max(np.abs(full[rep.witness])) >= want[0] * (1 - 1e-13)
        else:
            _assert_same_worst((rep.max_residual, rep.witness), want)


@pytest.mark.parametrize("n", [1, 5, 13, 25])
@pytest.mark.parametrize("axis", [2, 3])
def test_slab_worst_reports_like_worst_with_ties_and_nans(n, axis):
    # few distinct values, so the maximum is tied across many slabs
    rng = np.random.default_rng(n + 10 * axis)
    arr = rng.integers(-3, 4, size=(n, n, n, n)).astype(float)
    with_nan = arr.copy()
    with_nan.flat[rng.integers(arr.size, size=2)] = np.nan
    for a in (arr, with_nan):
        got = _slab_worst(n, lambda lo, hi: np.take(a, range(lo, hi), axis=axis), axis)
        want = _worst(a)
        assert got[1] == want[1]
        assert got[0] == want[0] or (math.isnan(got[0]) and math.isnan(want[0]))


def test_a_nan_in_the_last_slab_wins():
    n = 25
    arr = np.random.default_rng(3).standard_normal((n, n, n, n))
    arr[0, 0, 0, 0] = 1e300
    arr[3, 1, n - 1, 2] = np.nan
    got = _slab_worst(n, lambda lo, hi: arr[:, :, lo:hi].copy())
    assert math.isnan(got[0]) and got[1] == (3, 1, n - 1)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_left_symmetry_and_decompose_hold_no_rank4_tensor():
    n = 48
    A = AlgebraStructure(np.random.default_rng(48).standard_normal((n, n, n)))
    Q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((n, n)))
    B = change_basis(build_corollary1(n - 1), Q)
    assert _peak_bytes(lambda: check_left_symmetric(A)) <= 0.5 * 8 * n**4
    assert _peak_bytes(lambda: decompose(B)) <= 0.5 * 8 * n**4
    E = change_basis(build_corollary1(n - 1), Q)  # fresh: no trace form or geometry kept on it
    assert _peak_bytes(lambda: einstein_check(E)) <= 0.5 * 8 * n**4  # the curvature tensor is n^4


SRC = Path(__file__).resolve().parents[1] / "src" / "leftsym"


def _names(path: Path) -> set[str]:
    """Every name a module reads, imports or looks up as an attribute."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_only_forms_builds_a_left_symmetry_defect():
    # outside forms (and core, which owns the reduction) no module reduces a rank-4
    # defect slab by slab itself: a sectional or left-symmetry check goes through
    # forms._left_symmetry_worst, or through check_left_symmetric / check_k_hessian
    for path in sorted(SRC.glob("*.py")):
        if path.stem in ("core", "forms"):
            continue
        assert not _names(path) & {"_slab_worst", "_assoc_slabs"}, path.name
    for module in ("decompose", "_systems", "construct"):
        assert "_left_symmetry_worst" in _names(SRC / f"{module}.py"), module


def test_as2_s2_and_corollary2_reduce_through_the_kernel(monkeypatch):
    seen = []

    def counted(c, target=None):
        seen.append(c.shape[0])
        return _left_symmetry_worst(c, target)

    for module in (importlib.import_module("leftsym.decompose"), _systems, construct):
        monkeypatch.setattr(module, "_left_symmetry_worst", counted)
    A = catalog_build("lspk_dim5")  # n1 = 3, n2 = 1: the split algebra on h + R H, S2 on n2
    dec = decompose(A)
    assert seen == [5, 1]
    build_lspk(data_from_decomposition(dec))
    assert seen == [5, 1]  # the rebuild reads decompose's S2, with no kernel call on c2
    seen.clear()
    h, _ = build_milnor(MilnorSpec(2, np.array([1.0, 0.0])))
    assert build_corollary2(h).dim == 3
    assert seen == [2]  # its sectional hypothesis, which S2 in build_lspk folds in


def _product_part(n, seed):
    """The transported product-part algebra of dimension n (n1 = 0, n2 = n - 1), as in perfbench."""
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(n - 1)
    M, _ = build_milnor(MilnorSpec(n - 1, h / np.linalg.norm(h)))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return change_basis(build_corollary2(M), Q)


def test_decompose_and_rebuild_measure_the_systems_once(monkeypatch):
    systems, kernel = [], []

    def counted_systems(*arrays):
        systems.append(arrays[0].shape[0])
        return _systems.system_residuals(*arrays)

    def counted_kernel(c, target=None):
        kernel.append(c.shape[0])
        return _left_symmetry_worst(c, target)

    monkeypatch.setattr(construct, "system_residuals", counted_systems)
    for module in (forms, importlib.import_module("leftsym.decompose"), _systems, construct):
        monkeypatch.setattr(module, "_left_symmetry_worst", counted_kernel)
    dec = decompose(catalog_build("lspk_dim5"))
    data = data_from_decomposition(dec)
    assert validate_data(data) and data_residuals(data)
    rebuilt = build_lspk(data)
    assert rebuilt.dim == 5
    assert systems == [1]  # one measurement, on c2 with n2 = 1
    assert kernel == [5, 5, 1, 5]  # the input, the split algebra on h + R H, S2, the rebuilt algebra


def _one_part(family, n, seed):
    """A transported flat-part, product-part or R^n algebra of dimension n; at n = 1 each is R H."""
    if family == "product" and n > 1:
        return _product_part(n, seed)
    rng = np.random.default_rng(seed)
    if family == "flat":
        d = rng.standard_normal((n - 1, n - 1))
        A = build_corollary1(n - 1, (d - d.T) / 2.0)
    else:  # the coordinatewise product e_i e_i = e_i
        c = np.zeros((n, n, n))
        c[range(n), range(n), range(n)] = 1.0
        A = AlgebraStructure(c, name=f"rn{n}")
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return change_basis(A, Q)


def test_one_part_data_never_contracts_an_empty_part(monkeypatch):
    # a relation that spans an empty part is None without being evaluated, so
    # the systems of one-part data make no GEMM or kernel call on a zero-length axis
    shapes, names = [], set()

    def counted_compose(a, b):
        shapes.append((a.shape, b.shape))
        return _compose(a, b)

    def counted_kernel(c, target=None):
        shapes.append((c.shape,))
        return _left_symmetry_worst(c, target)

    monkeypatch.setattr(_systems, "_compose", counted_compose)
    monkeypatch.setattr(_systems, "_left_symmetry_worst", counted_kernel)
    parts = set()
    for family in ("flat", "product", "rn"):
        for n in (1, 2, 6, 12):
            data = data_from_decomposition(decompose(_one_part(family, n, n)))
            assert build_lspk(data).dim == n and validate_data(data)
            parts.add((data.n1, data.n2))
            names.add(tuple(data_residuals(data)))
    empty = LSPKData(n1=0, n2=0)
    assert build_lspk(empty).dim == 1 and validate_data(empty)
    names.add(tuple(data_residuals(empty)))
    assert parts == {(0, 0), (1, 0), (5, 0), (11, 0), (0, 1), (0, 5), (0, 11)}
    assert shapes and all(0 not in shape for call in shapes for shape in call)
    names.add(tuple(data_residuals(decompose(catalog_build("lspk_dim5")).data)))  # mixed data
    assert names == {_systems.NAMES}


def _product_data(n, seed, monkeypatch):
    """The LSPKData that build_corollary2 hands to build_lspk, for a random metric of dimension n."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    g = m @ m.T + n * np.eye(n)
    h = rng.standard_normal(n)
    handed = []

    def rebuild(data, tol=Tolerance(), name=""):
        handed.append(data)
        return build_lspk(data, tol, name)

    monkeypatch.setattr(construct, "build_lspk", rebuild)
    M, k = build_milnor(MilnorSpec(n, h / math.sqrt(h @ g @ h), g))
    assert k == pytest.approx(-1.0)
    build_corollary2(M)
    (data,) = handed
    return data


@pytest.mark.parametrize("n, seed", [(1, 1), (2, 2), (5, 3), (12, 4)])
def test_a_product_part_keeps_the_measurement_of_its_hypotheses(n, seed, monkeypatch):
    data = _product_data(n, seed, monkeypatch)
    assert "S2" in dir(data)  # the parts build_corollary2 measured, which its S2 folds in

    def bits(pairs):
        return [(name, None if r is None else r.hex()) for name, r in pairs]

    assert bits(data._residuals()) == bits(_systems.system_residuals(*data._arrays))


ROUND_TRIP = [name for name in catalog_list() if name.startswith("lspk_")] + ["product12"]


@pytest.mark.parametrize("name", ROUND_TRIP)
def test_rebuild_reads_the_measurement_decompose_kept(name):
    A = _product_part(12, 12) if name == "product12" else catalog_build(name)
    dec = decompose(A)
    checks = dec.checks
    data = data_from_decomposition(dec)
    arrays = (data.c2, data.rho2, data.omega1, data.b1, data.b2, data.g1, data.g2)
    fresh = _systems.system_residuals(*arrays)  # measured again on the data's own fields
    for tol in (Tolerance(), Tolerance(1e-14)):
        thr = tol.eps * residual_scale(*arrays)
        assert validate_data(data, tol) == _conjunction([Check(n, r, thr) for n, r in fresh])
    assert data_residuals(data) == dict(fresh)
    build_lspk(data)
    assert dec.checks is checks
    by_name = {c.name: c for c in checks}
    assert [(n, by_name[n].residual) for n, _ in fresh] == list(fresh)


def _sites(source: str, match) -> list[str]:
    """The enclosing definition (dotted, "" at module level) of every node of source that match accepts."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}".lstrip("."))
                continue
            if match(child):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "")
    return found


def _named(node) -> str | None:
    """The name a call, attribute or name node refers to: f, mod.f and f(...) all give "f"."""
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _call_sites(source: str, name: str) -> list[str]:
    """The enclosing definition (dotted, "" at module level) of every call of name in source."""
    return _sites(source, lambda node: isinstance(node, ast.Call) and _named(node) == name)


_PRODUCT_FIELDS = {"c2", "rho2", "omega1"}


def _product_field_literals(source: str) -> list[str]:
    """Where source calls LSPKData(...) with a product field as a literal keyword."""
    return _sites(source, lambda node: isinstance(node, ast.Call) and _named(node) == "LSPKData"
                  and any(k.arg in _PRODUCT_FIELDS for k in node.keywords))


def _halved_n1(source: str) -> list[str]:
    """Where source computes n1 / 2 (the first term of the rho law n1/2 + n2 + 1)."""
    return _sites(source, lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
                  and _named(node.left) == "n1" and getattr(node.right, "value", None) == 2)


def _shape_comparisons(source: str) -> list[str]:
    """Where source compares a .shape (a field's shape rule written out by hand)."""
    return _sites(source, lambda node: isinstance(node, ast.Compare) and any(
        isinstance(x, ast.Attribute) and x.attr == "shape" for x in (node.left, *node.comparators)))


def _identity_shifts(source: str) -> list[str]:
    """Where source adds or subtracts the identity, bare or times a number (a shift written out)."""
    def eye(node) -> bool:
        return isinstance(node, ast.Call) and _named(node) == "eye"

    def scaled_eye(node) -> bool:
        return eye(node) or (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div))
                             and any(eye(x) for x in (node.left, node.right))
                             and any(isinstance(x, ast.Constant) for x in (node.left, node.right)))

    return _sites(source, lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
                  and any(scaled_eye(x) for x in (node.left, node.right)))


def _call_arguments(source: str, name: str) -> list[tuple[str, str | None]]:
    """(enclosing definition, name of the first argument) of every call of name in source."""
    first = []

    def call(node) -> bool:
        if not (isinstance(node, ast.Call) and _named(node) == name):
            return False
        first.append(_named(node.args[0]) if node.args else None)
        return True

    return list(zip(_sites(source, call), first))


def _kernel_calls(source: str) -> list[tuple[str, str | None, str | None]]:
    """(enclosing definition, first argument, maker of the target or None) of every
    _left_symmetry_worst call in source."""
    found = []

    def call(node) -> bool:
        if not (isinstance(node, ast.Call) and _named(node) == "_left_symmetry_worst"):
            return False
        targets = node.args[1:] + [k.value for k in node.keywords if k.arg == "target"]
        found.append((_named(node.args[0]), _named(targets[0]) if targets else None))
        return True

    return [(owner, *call) for owner, call in zip(_sites(source, call), found)]


def _slab_updates(source: str) -> list[str]:
    """The functions of (d, lo, hi), the signature of a kernel target, that source defines."""
    return _sites(source, lambda node: isinstance(node, ast.arguments)
                  and [a.arg for a in node.args] == ["d", "lo", "hi"])


def test_call_site_scanner_names_the_enclosing_definition():
    source = (
        "x = f(1)\n"
        "class K:\n"
        "    def m(self):\n"
        "        return self._kept('k', lambda: mod.f(g(f(2))))\n"
    )
    assert _call_sites(source, "f") == ["", "K.m", "K.m"]
    assert _call_sites(source, "h") == []


def test_format_scanners_find_what_they_look_for():
    source = (
        "def f(c, fields, self):\n"
        "    LSPKData(n1=1, n2=0, b1=c, **fields)\n"
        "    construct.LSPKData(n1=1, n2=0, rho2=c)\n"
        "    x = self.n1 / 2.0 + n1 / 2 + np.eye(n1) / 2.0\n"
        "    y = c - np.eye(2) + 0.5 * eye(3) - c * np.eye(2) + s * np.eye(2) - np.eye(2) @ c\n"
        "    change_basis(c, x) + change_basis(self.c, x)\n"
        "    return c.shape != (1,) or (2,) == c.shape\n"
    )
    assert _product_field_literals(source) == ["f"]
    assert _halved_n1(source) == ["f", "f"]
    assert _shape_comparisons(source) == ["f", "f"]
    assert _identity_shifts(source) == ["f", "f", "f"]
    assert _call_arguments(source, "change_basis") == [("f", "c"), ("f", "c")]
    assert _call_arguments("class K:\n    def m(self, A):\n        g(A)\n", "g") == [("K.m", "A")]
    kernel = (
        "def f(c):\n"
        "    _left_symmetry_worst(c)\n"
        "    forms._left_symmetry_worst(g(c), _metric_sectional(c, 1.0))\n"
        "    _left_symmetry_worst(c, target=h(c))\n"
        "    def update(d, lo, hi):\n"
        "        pass\n"
        "def slab(lo, hi):\n"
        "    pass\n"
    )
    assert _kernel_calls(kernel) == [("f", "c", None), ("f", "g", "_metric_sectional"), ("f", "c", "h")]
    assert _slab_updates(kernel) == ["f.update"]


def test_the_systems_are_measured_in_one_place():
    # every relation of S1-S3 reaches a caller through the measurement that
    # LSPKData keeps, so a second measuring path cannot grow back unseen
    sites = [(path.stem, owner) for path in sorted(SRC.glob("*.py"))
             for owner in _call_sites(path.read_text(), "system_residuals")]
    assert sites == [("construct", "LSPKData._residuals")]


def test_the_kernel_has_one_sectional_target():
    # the split algebra of split_h carries the operator terms of AS-1..AS-6 in its
    # own blocks, so the kernel runs on it with no target, and every other target
    # is the metric sectional term: no second slab update can grow back unseen
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    calls = [(m, *call) for m, text in sources.items() for call in _kernel_calls(text)]
    assert calls == [
        ("_systems", "system_residuals", "c2", "_metric_sectional"),
        ("construct", "build_corollary2", "c", "_metric_sectional"),
        ("decompose", "split_h", "split", None),
        ("forms", "check_left_symmetric", "constants", None),
        ("forms", "check_k_hessian", "c", "_metric_sectional"),
    ]
    assert [(m, owner) for m, text in sources.items() for owner in _slab_updates(text)] == [
        ("forms", "_metric_sectional.update")
    ]


def test_the_split_data_format_has_one_owner():
    # construct.LSPKData owns the format of the split data: build_lspk writes every
    # field through LSPKData._layout and extract_structure reads it back through
    # it, off the one frame change_basis(A, basis); the shifts 1/2 and 1 of the
    # action of H are numbers of that table, which eigensplit reads too, and no
    # module writes a shift of the identity by hand; LSPKData.rho is the one rho
    # law, and core._frozen the one shape rule, so neither module can drift from
    # the other unseen
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    layout = [(m, owner) for m, text in sources.items() for owner in _call_sites(text, "_layout")]
    assert layout == [("construct", "build_lspk"), ("decompose", "eigensplit"), ("decompose", "extract_structure")]
    shifted = {(m, owner) for m, text in sources.items() for owner in _call_sites(text, "_shifted")}
    assert sorted(shifted) == layout
    assert {key: shift for key, _, _, shift in construct.LSPKData._layout(2, 3) if shift} == {"b1": 0.5, "b2": 1.0}
    assert [(m, owner) for m, text in sources.items() for owner in _identity_shifts(text)] == []
    assert _call_arguments(sources["decompose"], "change_basis") == [("extract_structure", "A")]
    literals = [(m, owner) for m, text in sources.items() if m != "construct"
                for owner in _product_field_literals(text)]
    assert literals == []
    assert [(m, owner) for m, text in sources.items() for owner in _halved_n1(text)] == [
        ("construct", "LSPKData.rho")
    ]
    assert _shape_comparisons(sources["construct"]) == []
