"""The package as shipped: it runs on the standard library alone."""

import ast
import sys
from pathlib import Path

import pytest

import combspectra

PACKAGE = Path(combspectra.__file__).parent


def test_every_import_names_the_standard_library_or_the_package():
    foreign = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign.update(
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names | {"combspectra"}
            )
    assert not foreign


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    pyproject = PACKAGE.parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["dependencies"] == []
