"""The library reads beam hits as arrays: only ``generator.py``, which
defines ``BeamHit``, builds one, so no other module pays for hit objects
that ``beam_search`` leaves to its callers."""

import ast
from pathlib import Path

import pytest

import sidforge

SRC = Path(sidforge.__file__).parent


def _name(expr: ast.expr) -> str | None:
    return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", None)


def _builds_beam_hits(node: ast.Call) -> bool:
    """``BeamHit(...)``, or ``BeamHit`` handed to ``map``/``starmap`` to call."""
    if _name(node.func) == "BeamHit":
        return True
    return (_name(node.func) in ("map", "starmap") and bool(node.args)
            and _name(node.args[0]) == "BeamHit")


def _offenders(tree: ast.AST) -> list[int]:
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _builds_beam_hits(node)]


def test_only_the_generator_builds_beam_hits():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    offenders = [f"{path.name}:{line}" for path in paths if path.name != "generator.py"
                 for line in _offenders(ast.parse(path.read_text(encoding="utf-8")))]
    assert offenders == []
    assert _offenders(ast.parse((SRC / "generator.py").read_text(encoding="utf-8")))


@pytest.mark.parametrize("source, builds", [
    ("BeamHit(sid, 0.0)", True),
    ("generator.BeamHit(sid, 0.0, True)", True),
    ("hits = [BeamHit(s, 0.0) for s in sids]", True),
    ("list(map(BeamHit, sids, scores))", True),
    ("itertools.starmap(BeamHit, rows)", True),
    ("isinstance(hit, BeamHit)", False),
    ("BeamHits(digits, scores, None, 3)", False),
    ("hits.digits.tolist()", False),
    ("def f(hits: list[BeamHit]) -> BeamHit:\n    return hits[0]", False),
    ("from .generator import BeamHit", False),
])
def test_beam_hit_build_detector(source, builds):
    assert bool(_offenders(ast.parse(source))) is builds
