"""No library module imports a name it never uses, or imports reporting.

A deletion that leaves an import behind is caught here: for every module of
src/roughn_lab except the package __init__ (whose imports are its API), each
name an import binds must appear somewhere else in the module.  The CLI
writes every output file, so cli_harness is the one module that imports
reporting: the library returns numbers, and file names, headers and report
keys live next to the handler that writes them.
"""

import ast
from pathlib import Path

import pytest

import roughn_lab

SRC = Path(roughn_lab.__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def imports_reporting(source: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if "reporting" in module or any(a.name == "reporting" for a in node.names):
                return True
        elif isinstance(node, ast.Import):
            if any("reporting" in a.name.split(".") for a in node.names):
                return True
    return False


def test_reporting_checker_sees_every_import_form():
    for source in ("from .reporting import write_csv\n", "from . import reporting\n",
                   "from roughn_lab.reporting import write_json\n",
                   "import roughn_lab.reporting\n"):
        assert imports_reporting(source), source
    assert not imports_reporting("from .primes_core import factor_window\n")


def test_only_the_cli_imports_reporting():
    importers = [p.name for p in sorted(SRC.glob("*.py")) if imports_reporting(p.read_text())]
    assert importers == ["cli_harness.py"]
