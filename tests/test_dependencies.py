"""The package imports no third-party module that pyproject.toml does not
declare, and the command line imports no private name of the package."""

import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
# distributions whose import name differs from the project name
IMPORT_NAMES = {"pyyaml": "yaml"}


def declared_modules():
    """Import names of the [project] dependencies (read without tomllib, which
    Python 3.10 lacks)."""
    text = (REPO / "pyproject.toml").read_text()
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    names = [name.lower() for name in re.findall(r'"([A-Za-z0-9_.-]+)', block)]
    return {IMPORT_NAMES.get(name, name) for name in names}


def imported_modules():
    """Top-level modules of every absolute import in src/mildsolve/*.py,
    function-level imports included."""
    found = set()
    for path in sorted((REPO / "src" / "mildsolve").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found


def test_third_party_imports_are_the_declared_dependencies():
    third_party = imported_modules() - set(sys.stdlib_module_names) - {"mildsolve"}
    assert declared_modules() == {"numpy", "yaml"}
    assert third_party == declared_modules()


def test_cli_imports_no_private_name():
    # the command layer reaches the library through its public names only
    tree = ast.parse((REPO / "src" / "mildsolve" / "cli.py").read_text())
    private = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or node.module.split(".")[0] == "mildsolve")
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
