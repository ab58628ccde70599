"""numpy is the only runtime dependency: every import in ``src/sidforge``
names a standard-library module, numpy or sidforge itself. Every file also
parses under the oldest supported Python's grammar."""

import ast
import sys
from pathlib import Path

import pytest

import sidforge

SRC = Path(sidforge.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "sidforge"}


def _imported(tree: ast.AST) -> list[str]:
    """The top-level package of every import in ``tree``; relative ones are sidforge."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("sidforge" if node.level else node.module.split(".")[0])
    return names


def test_src_imports_only_stdlib_numpy_and_itself():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    offenders = [f"{path.name}: {name}" for path in paths
                 for name in _imported(ast.parse(path.read_text(encoding="utf-8")))
                 if name not in ALLOWED]
    assert offenders == []


@pytest.mark.parametrize("source, allowed", [
    ("import numpy as np", True),
    ("from numpy.linalg import norm", True),
    ("from . import curriculum as curr", True),
    ("from .sids import Sid", True),
    ("from __future__ import annotations", True),
    ("import os.path, json", True),
    ("def f():\n    from itertools import combinations", True),
    ("import scipy", False),
    ("from hypothesis import given", False),
    ("import json, pandas", False),
])
def test_import_detector(source, allowed):
    assert all(name in ALLOWED for name in _imported(ast.parse(source))) is allowed


def test_every_file_parses_as_python_3_10():
    """CI also runs Python 3.10, so no file may use newer grammar."""
    paths = sorted(p for part in ("src", "tests", "perfbench") for p in (ROOT / part).rglob("*.py"))
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_grammar_guard_rejects_newer_syntax():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass", feature_version=(3, 10))
