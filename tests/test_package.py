"""The package surface: the export list in rigidity/__init__.py is sound,
and no module or test imports a name it never uses."""

import ast
from collections import Counter
from pathlib import Path

import rigidity


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from rigidity import *", namespace)
    assert set(rigidity.__all__) <= set(namespace)


def test_export_list_has_no_duplicates():
    repeated = [name for name, n in Counter(rigidity.__all__).items() if n > 1]
    assert repeated == []


def test_every_export_resolves_on_the_package():
    missing = [name for name in rigidity.__all__ if not hasattr(rigidity, name)]
    assert missing == []


def test_every_public_name_is_reached():
    """Each export is used by the package itself or by the acceptance
    tests; a name that only other tests reach is not public surface."""
    package = Path(rigidity.__file__).parent
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    sources.append(Path(__file__).parent / "test_acceptance.py")
    used: set[str] = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(rigidity.__all__) - used) == []


def test_no_unused_imports():
    """Every name bound by an import in a module (bar the re-exporting
    __init__.py) or a test file is referenced as a Name, which covers the
    base of an Attribute."""
    package = Path(rigidity.__file__).parent
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted(Path(__file__).parent.glob("*.py"))
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []
