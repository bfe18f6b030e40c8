"""Source-level rules for the whole package."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import msfbm

from conftest import package_env

SOURCES = sorted(Path(msfbm.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so no check of the package may be one.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_cli_import_leaves_out_thread_pools_and_scipy():
    # Every command imports msfbm.cli; a pool's module is imported only where a
    # draw starts one, and scipy never.
    code = ("import sys, msfbm.cli; "
            "print(sorted({'concurrent.futures', 'scipy'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
