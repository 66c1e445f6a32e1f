"""No library contraction is a np.einsum over three or more operands.

Without a contraction path such a call loops over every index at once (the
former four-operand change_basis cost n^7); the library routes these through
the GEMM helpers in leftsym.core instead.  The check walks the syntax tree
with the standard library and also follows plain aliases such as
`e = np.einsum`.
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


def wide_einsums(source: str) -> list[str]:
    """Line and operand count of every einsum call with three or more operands."""
    tree = ast.parse(source)
    aliases = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and _is_einsum(node.value, set())
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _is_einsum(node.func, aliases):
            operands = node.args[1:]
            if len(operands) >= 3 or any(isinstance(a, ast.Starred) for a in operands):
                found.append(f"line {node.lineno}: {len(operands)} operands")
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_einsum_with_three_or_more_operands(path):
    assert wide_einsums(path.read_text()) == []
