"""No library contraction is a np.einsum over three or more operands, or with a rank-4 output.

Without a contraction path a wide einsum loops over every index at once (the
former four-operand change_basis cost n^7); the library routes these through
the GEMM helpers in leftsym.core instead.  A rank-4 output is an n^4 temporary:
the rank-4 defects are reduced slab by slab (core._slab_worst) and their
sectional terms are added in closed form.  The check walks the syntax tree with
the standard library and also follows plain aliases such as `e = np.einsum`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "leftsym"
MODULES = sorted(SRC.glob("*.py"))


def _is_einsum(node: ast.expr, aliases: set[str]) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "einsum"
    return isinstance(node, ast.Name) and node.id in aliases


def _einsum_calls(source: str) -> list[ast.Call]:
    tree = ast.parse(source)
    aliases = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_einsum(node.value, set())
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _is_einsum(node.func, aliases)
    ]


def wide_einsums(source: str) -> list[str]:
    """Line and operand count of every einsum call with three or more operands."""
    found = []
    for node in _einsum_calls(source):
        operands = node.args[1:]
        if len(operands) >= 3 or any(isinstance(a, ast.Starred) for a in operands):
            found.append(f"line {node.lineno}: {len(operands)} operands")
    return found


def rank4_einsums(source: str) -> list[str]:
    """Line and output of every einsum call whose output has four or more indices.

    Subscripts that are not a string literal, or an output with an ellipsis,
    have no rank known from the source and are reported too.
    """
    found = []
    for node in _einsum_calls(source):
        spec = node.args[0] if node.args else None
        if not (isinstance(spec, ast.Constant) and isinstance(spec.value, str)):
            found.append(f"line {node.lineno}: subscripts not a literal")
            continue
        inputs, arrow, output = spec.value.replace(" ", "").partition("->")
        if not arrow:  # implicit output: the indices that occur once, in order
            letters = [ch for ch in inputs if ch.isalpha()]
            output = "".join(sorted(ch for ch in set(letters) if letters.count(ch) == 1))
        if "." in output or sum(ch.isalpha() for ch in output) >= 4:
            found.append(f"line {node.lineno}: output {output!r}")
    return found


def test_scanner_flags_wide_einsums():
    source = (
        "import numpy as np\n"
        "a = np.einsum('ij,jk->ik', x, y)\n"
        "b = np.einsum('ij,jk,kl->il', x, y, z)\n"
        "e = np.einsum\n"
        "c = e('i,ij,j->', v, m, v)\n"
        "d = e('ij->ji', m)\n"
        "f = np.einsum('ij,jk->ik', *pair)\n"
    )
    assert wide_einsums(source) == [
        "line 3: 3 operands",
        "line 5: 3 operands",
        "line 7: 1 operands",
    ]


def test_scanner_flags_rank4_outputs():
    source = (
        "import numpy as np\n"
        "a = np.einsum('ijm,mkl->ijkl', x, y)\n"
        "b = np.einsum('ijm,mk->ijk', x, y)\n"
        "e = np.einsum\n"
        "c = e('jk, xl -> xjkl', g, h)\n"
        "d = e('ij,kl', g, h)\n"
        "f = e('ajbj->ab', t)\n"
        "h = np.einsum(spec, x, y)\n"
        "k = np.einsum('...i,i->...', x, v)\n"
    )
    assert rank4_einsums(source) == [
        "line 2: output 'ijkl'",
        "line 5: output 'xjkl'",
        "line 6: output 'ijkl'",
        "line 8: subscripts not a literal",
        "line 9: output '...'",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_einsum_with_three_or_more_operands(path):
    assert wide_einsums(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_einsum_with_a_rank4_output(path):
    assert rank4_einsums(path.read_text()) == []
