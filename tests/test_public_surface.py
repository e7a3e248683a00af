"""Every public name has a caller: each name that ``hypervol`` exports is
loaded by another module of the package or by the acceptance criteria."""

import ast
from pathlib import Path

import hypervol

ROOT = Path(__file__).resolve().parent.parent


def loaded_names(path: Path) -> set[str]:
    """The names ``path`` loads: read Names, attributes and imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_exported_name_has_a_caller():
    sources = [f for f in (ROOT / "src" / "hypervol").glob("*.py") if f.name != "__init__.py"]
    sources.append(ROOT / "tests" / "test_acceptance.py")
    loaded = set().union(*map(loaded_names, sources))
    assert sorted(set(hypervol.__all__) - {"__version__"} - loaded) == []
