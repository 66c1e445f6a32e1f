"""Every ResidualError is raised by core._enforce, from the first failing Check.

A module other than core that wants to refuse a relation builds a Check and
hands it to _enforce, so the pass/fail rule (Check.holds) is never restated,
and _enforce is only ever handed a ResidualError class, whose message formats
the name and residual (a plain LeftSymError would print the args tuple).
The scan walks the syntax tree of every library module with the standard
library, like test_imports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "leftsym"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "core.py")


def residual_errors(source: str) -> set[str]:
    """ResidualError and the names of the classes in source deriving from it."""
    names = {"ResidualError"}
    classes = [n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef)]
    grew = True
    while grew:
        found = {c.name for c in classes if any(getattr(b, "id", None) in names for b in c.bases)}
        grew = not found <= names
        names |= found
    return names


ERRORS = residual_errors((SRC / "errors.py").read_text())


def direct_raises(source: str) -> list[str]:
    """The ResidualError classes that source raises itself, with their lines."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(target, "id", None) in ERRORS:
                out.append(f"{target.id} (line {node.lineno})")
    return out


def enforced_classes(source: str) -> list[str]:
    """The error argument of every _enforce(...) call in source, with its line."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_enforce":
            error = node.args[1] if len(node.args) > 1 else None
            out.append(f"{getattr(error, 'id', None)} (line {node.lineno})")
    return out


def test_scanner_finds_the_residual_errors_and_a_direct_raise():
    assert {"ResidualError", "SystemViolated", "NotEinstein"} <= ERRORS
    assert "FixtureBroken" not in ERRORS and "UnknownEntry" not in ERRORS
    source = "def f(r):\n    raise NotEinstein('einstein', r)\n\n\ndef g():\n    raise UnknownEntry('x')\n"
    assert direct_raises(source) == ["NotEinstein (line 2)"]


def test_scanner_reads_the_class_handed_to_enforce():
    source = "_enforce(checks, NotEinstein)\n_enforce([c], UnknownEntry)\n"
    assert enforced_classes(source) == ["NotEinstein (line 1)", "UnknownEntry (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_core_raises_residual_errors(path):
    assert direct_raises(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_enforce_is_handed_a_residual_error(path):
    enforced = enforced_classes(path.read_text())
    assert [e for e in enforced if e.split(" ")[0] not in ERRORS] == []
