"""The README's "Package layout" indexes every package module and every
tool, and each of them has the module docstring its line points to."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "udaselect"

MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TOOLS = sorted((ROOT / "tools").glob("*.py"))


def package_layout() -> str:
    """The text of the README's "Package layout" section."""
    section = (ROOT / "README.md").read_text().split("\n## Package layout\n", 1)[1]
    return section.split("\n## ", 1)[0]


@pytest.mark.parametrize("path", MODULES + TOOLS, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_module_has_a_docstring_and_an_index_line(path):
    assert ast.get_docstring(ast.parse(path.read_text())), f"{path} has no module docstring"
    name = path.name if path.parent == PACKAGE else path.relative_to(ROOT).as_posix()
    assert re.search(rf"^- `{re.escape(name)}` — ", package_layout(), re.MULTILINE), (
        f"README's Package layout has no line for {name}")
