"""Every output file goes through ``_records.replacing``: it is written beside
its path and renamed into place only when the write finishes, so a failed or
killed write leaves the previous file (or none), never a shorter one."""

import ast
import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sidforge
from sidforge import _records, cli
from sidforge._records import write_records
from sidforge.generator import cooccurrence_fit
from sidforge.quantizer import fit_codebook, save_codebook
from sidforge.sids import Sid, SidScheme

SRC = Path(sidforge.__file__).parent
OLD = b"an earlier, finished file\n"


def _codebook():
    rng = np.random.default_rng(0)
    return fit_codebook(rng.normal(size=(16, 4)), level_sizes=(2, 2), opq_subspaces=2,
                        opq_codes=2, iters=2, opq_outer_iters=1, seed=0)


def _scorer():
    scheme = SidScheme((3, 3), (2,))
    return cooccurrence_fit([(Sid((1, 0), (0,)), Sid((2, 1), (1,)))] * 3, scheme)


WRITERS = {
    "write_records": lambda p: write_records(p, [("a", "b")] * 50),
    "save_codebook": lambda p: save_codebook(_codebook(), p),
    "scorer_save": lambda p: _scorer().save(p),
}


class _DiskFull:
    """A file whose first write stores half its data, then fails like a full disk."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data[:len(data) // 2])
        self._f.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_write_keeps_the_existing_file(tmp_path, monkeypatch, name):
    path = tmp_path / "out"
    path.write_bytes(OLD)
    sidecar = tmp_path / "out.meta.json"
    sidecar.write_bytes(OLD)
    monkeypatch.setattr(_records, "open", lambda *a, **k: _DiskFull(open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="No space left"):
        WRITERS[name](path)
    assert path.read_bytes() == OLD and sidecar.read_bytes() == OLD
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "out.meta.json"]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_finished_write_equals_a_fresh_one(tmp_path, name):
    WRITERS[name](tmp_path / "fresh")
    (tmp_path / "old").write_bytes(OLD)
    WRITERS[name](tmp_path / "old")
    assert (tmp_path / "old").read_bytes() == (tmp_path / "fresh").read_bytes()
    assert not list(tmp_path.glob(".*.tmp"))


def test_jsonl_rows_are_json_dumps_lines(tmp_path):
    """One encoder serves the whole file, and it writes each row as
    ``json.dumps(row, sort_keys=True, separators=(",", ":"))`` would."""
    rows = [{"b": [1, 2.5, None], "a": "é\u2028\"x\""}, {"z": {"y": True, "x": float("nan")}},
            {}, {"n": 10**20, "f": -0.0, "s": ["\t", "日本"]}]
    write_records(tmp_path / "r.jsonl", rows, jsonl=True)
    assert (tmp_path / "r.jsonl").read_text(encoding="utf-8") == "".join(
        json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n" for row in rows)


def test_refused_record_keeps_the_existing_file(tmp_path):
    path = tmp_path / "p.tsv"
    path.write_bytes(OLD)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
        write_records(path, [("a", "b"), ("c\td", "e")])
    assert path.read_bytes() == OLD
    assert [p.name for p in tmp_path.iterdir()] == ["p.tsv"]


def test_located_error_from_a_row_passes_through(tmp_path):
    """An input read lazily while its rows are written keeps its own
    `path:line`, and the existing file is kept."""
    path = tmp_path / "p.tsv"
    path.write_bytes(OLD)
    source = tmp_path / "in.jsonl"
    source.write_text('{"a": 1}\n[]\n')
    rows = ((str(obj["a"]),) for obj in _records.iter_records(source, dict, jsonl=True))
    with pytest.raises(ValueError) as info:
        write_records(path, rows)
    assert str(info.value) == f"{source}:2: expected a JSON object, got list"
    assert path.read_bytes() == OLD
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.jsonl", "p.tsv"]


def test_killed_write_keeps_the_existing_file(tmp_path):
    """A process that dies mid-write, with lines already flushed to disk,
    leaves the target as it was; only its temporary file may remain."""
    path = tmp_path / "p.tsv"
    path.write_bytes(OLD)
    child = (
        "import os, sys\n"
        "from sidforge._records import write_records\n"
        "def rows():\n"
        "    for i in range(100_000):\n"
        "        yield ('row', str(i))\n"
        "    os._exit(3)\n"
        "write_records(sys.argv[1], rows())\n"
    )
    paths = [str(SRC.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", child, str(path)], env=env, timeout=60)
    assert done.returncode == 3
    assert path.read_bytes() == OLD
    (tmp,) = tmp_path.glob(".p.tsv.*.tmp")
    assert tmp.read_bytes().startswith(b"row\t0\nrow\t1\n")


def test_mode_follows_the_umask_like_a_plain_open(tmp_path):
    (tmp_path / "written").write_text("an older file with another mode\n")
    (tmp_path / "written").chmod(0o600)
    old_mask = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        write_records(tmp_path / "written", [("a",)])
    finally:
        os.umask(old_mask)
    mode = (tmp_path / "plain").stat().st_mode
    assert (tmp_path / "written").stat().st_mode == mode == 0o100640


@pytest.mark.parametrize("kind", ["fifo", "directory", "link_to_fifo"])
def test_non_regular_target_is_refused_before_anything_is_created(tmp_path, kind):
    target = tmp_path / "target"
    if kind == "directory":
        target.mkdir()
    else:
        os.mkfifo(target)
    path = tmp_path / "link" if kind == "link_to_fifo" else target
    if kind == "link_to_fifo":
        path.symlink_to(target)
    (tmp_path / "pairs.tsv").write_text("a\tb\tq2i\t0.7\n")
    before = sorted(tmp_path.iterdir())
    for write in (lambda: write_records(path, [("a",)]),
                  lambda: save_codebook(_codebook(), path),
                  lambda: cli.main(["filter-pairs", "--pairs", str(tmp_path / "pairs.tsv"),
                                    "--threshold", "0.6", "--out", str(path)])):
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a regular file$"):
            write()
    assert sorted(tmp_path.iterdir()) == before


def test_writing_through_a_symlink_updates_its_target(tmp_path):
    target = tmp_path / "real.tsv"
    target.write_bytes(OLD)
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    write_records(link, [("a", "b")])
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == b"a\tb\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.tsv", "real.tsv"]


def _writes_a_file(node: ast.Call) -> bool:
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name == "replace" and isinstance(func, ast.Attribute):
        return isinstance(func.value, ast.Name) and func.value.id == "os"
    if name not in ("open", "fdopen"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (k.value for k in node.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a mode the test cannot read counts as a write
    return bool(set(mode.value) & set("wax+"))


def test_only_records_opens_a_file_for_writing():
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "_records.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and _writes_a_file(node)
    ]
    assert offenders == []


@pytest.mark.parametrize("source, writes", [
    ("open(p, 'wb')", True),
    ("open(p, mode='a')", True),
    ("open(p, 'r+')", True),
    ("open(p, m)", True),
    ("Path(p).write_text(s)", True),
    ("p.write_bytes(b)", True),
    ("os.replace(a, b)", True),
    ("os.fdopen(fd, 'w')", True),
    ("open(p)", False),
    ("open(p, 'rb')", False),
    ("s.replace('a', 'b')", False),
])
def test_write_call_detector(source, writes):
    assert _writes_a_file(ast.parse(source).body[0].value) is writes
