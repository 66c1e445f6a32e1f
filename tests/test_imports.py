"""Every name a library module imports is used in that module, no module imports weakref,
every error class is named by the library outside errors.py, and the scripts use only
public names of leftsym.

Neither pyflakes nor ruff is a dependency, so the checks walk the syntax
tree with the standard library.  Package __init__ re-exports and
__future__ imports are exempt from the unused-import check.  What the
library derives from an object is kept on that object (core._Owner), so no
module needs weak references.  A refusal class that no module names any
more, outside its definition and the package's re-export, raises nowhere.
A script is written on the public API, so it imports and reads no name of
leftsym, module or attribute, that starts with an underscore.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "leftsym"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names inside string annotations such as -> "BilinearForm"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scanner_flags_an_unused_import():
    source = "from .core import used, spare\nimport numpy as np\n\nx = used(np.ones(1))\n"
    assert unused_imports(source) == ["spare (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports in source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_scanner_lists_imported_modules():
    source = "import os.path as p, weakref\nfrom collections.abc import Mapping\nfrom .core import x\n"
    assert imported_modules(source) == {"os", "weakref", "collections"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_weak_references(path):
    assert "weakref" not in imported_modules(path.read_text())


def unnamed_classes(errors_source: str, sources: list[str]) -> list[str]:
    """The classes defined in errors_source that no other source names."""
    named = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    defined = [n.name for n in ast.parse(errors_source).body if isinstance(n, ast.ClassDef)]
    return [name for name in defined if name not in named]


def test_scanner_flags_an_error_class_nothing_names():
    errors = "class Base(Exception): pass\nclass Used(Base): pass\nclass Orphan(Base): pass\n"
    sources = ["from .errors import Orphan, Used\n\nraise Used()\n", "import errors\nerrors.Base\n"]
    assert unnamed_classes(errors, sources) == ["Orphan"]


def test_every_error_class_is_named_by_another_module():
    others = [p.read_text() for p in MODULES if p.name != "errors.py"]
    assert unnamed_classes((SRC / "errors.py").read_text(), others) == []


def private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_names(source: str) -> list[str]:
    """The names starting with _ (dunders apart) that source imports from leftsym or reads
    off a name bound to leftsym, one of its modules or one of its public names."""
    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "leftsym":
                    found += [part for part in alias.name.split(".") if private(part)]
                    bound.add(alias.asname or "leftsym")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "leftsym":
            found += [part for part in node.module.split(".") if private(part)]
            found += [alias.name for alias in node.names if private(alias.name)]
            bound |= {alias.asname or alias.name for alias in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(node.attr)
    return found


def test_scanner_flags_private_leftsym_names():
    source = (
        "import leftsym as ls\nimport leftsym._systems\nfrom leftsym.catalog import _parts, catalog_build\n"
        "from leftsym import geometry\nimport numpy as np\n\n"
        "ls._worst_of(); leftsym.forms._traces(); geometry._trace_form_report(); np._core\n"
        "catalog_build.__name__; ls.decompose(1)._kept\n"
    )
    assert sorted(private_names(source)) == ["_parts", "_systems", "_trace_form_report", "_traces",
                                             "_worst_of"]


@pytest.mark.parametrize("path", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_scripts_use_public_names_only(path):
    assert private_names(path.read_text()) == []
