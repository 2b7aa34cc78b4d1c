"""Static checks over the package source."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "atomzeta"
ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(tree):
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_NAMES
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENV_NAMES:
                    yield node.lineno, f"from os import {alias.name}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_package_reads_no_environment(path):
    # every setting is a command line option; a hidden environment setting
    # would change what a command prints without showing in its config line
    found = list(_env_reads(ast.parse(path.read_text(), str(path))))
    assert found == [], f"{path.name}: {found}"


def test_env_guard_sees_each_spelling():
    code = ("import os\nfrom os import getenv\n"
            "a = os.environ.get('X')\nb = os.getenv('X')\nc = os.environ['X']\n")
    assert sorted(_env_reads(ast.parse(code))) == [
        (2, "from os import getenv"), (3, "os.environ"), (4, "os.getenv"), (5, "os.environ")]
