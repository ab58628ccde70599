"""The one reader and the one writer behind every file. A bad record raises
``ValueError("<path>:<line>: ...")``; a bad file ``ValueError("<path>: ...")``,
both as :class:`LocatedError`."""

from __future__ import annotations

import contextlib
import json
import os
import sys
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator


class LocatedError(ValueError):
    """A ``ValueError`` whose message already starts with the file, and line or
    record, it is about: :func:`write_records` passes it through unchanged, so
    an input read lazily while its rows are written keeps its own location."""


def _error(where: object, exc: Exception) -> LocatedError:
    if isinstance(exc, UnicodeDecodeError):
        return LocatedError(f"{where}: not UTF-8 text ({exc.reason})")
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    return LocatedError(f"{where}: {detail}")


def _json_object(text: str) -> dict:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def id_text(value: Any) -> str:
    """``value`` checked to be a JSON id string."""
    if not isinstance(value, str):
        raise ValueError(f"expected an id string, got {value!r}")
    return value


def id_list(value: Any) -> list[str]:
    """``value`` checked to be a JSON list of id strings, not one string."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"expected a JSON list of id strings, got {value!r}")
    return value


def number_list(value: Any) -> list[float]:
    """``value`` checked to be a JSON list of numbers, not bools, as floats."""
    if not isinstance(value, list) or any(type(v) not in (int, float) for v in value):
        raise ValueError(f"expected a JSON list of numbers, got {value!r}")
    return [float(v) for v in value]


def read_records(path: str | Path, parse: Callable[..., Any], *, fields: int = 0,
                 jsonl: bool = False, header: Callable[[str], Any] | None = None) -> list:
    """``parse`` applied to each non-blank line of a UTF-8 file, in order: the
    list of :func:`iter_records`."""
    return list(iter_records(path, parse, fields=fields, jsonl=jsonl, header=header))


def iter_records(path: str | Path, parse: Callable[..., Any], *, fields: int = 0,
                 jsonl: bool = False, header: Callable[[str], Any] | None = None) -> Iterator:
    """``parse`` applied to each non-blank line of a UTF-8 file, yielded in
    order as the file is read.

    TSV lines lose only their trailing newline; with ``fields`` a line must
    have exactly that many tab-separated fields, passed to ``parse`` as
    arguments. JSONL lines are stripped and ``parse`` gets each one's JSON
    object. ``header`` gets line 1 as it is, blank or not.
    """
    line_no = 0
    with open(path, "r", encoding="utf-8") as f:
        try:
            if header is not None:
                line_no = 1
                header(f.readline())
            for line_no, line in enumerate(f, line_no + 1):
                line = line.strip() if jsonl else line.rstrip("\n")
                if not line:
                    continue
                if jsonl:
                    record = parse(_json_object(line))
                elif fields:
                    parts = line.split("\t")
                    if len(parts) != fields:
                        raise ValueError(f"expected {fields} fields, got {len(parts)}")
                    record = parse(*parts)
                else:
                    record = parse(line)
                yield record
        except UnicodeDecodeError as exc:  # decoded in blocks: the line is unknown
            raise _error(path, exc) from None
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            raise _error(f"{path}:{line_no}", exc) from None


def read_json(path: str | Path, parse: Callable[[dict], Any]) -> Any:
    """``parse`` applied to the one JSON object a file holds."""
    try:
        return parse(_json_object(Path(path).read_text(encoding="utf-8")))
    except (ValueError, KeyError, TypeError) as exc:
        raise _error(path, exc) from None


@contextlib.contextmanager
def replacing(path: str | Path, binary: bool = False) -> Iterator[IO]:
    """A new file that replaces ``path``, symlinks resolved, only when the block
    exits normally: it is written beside it as ``.<name>.<pid>.tmp`` and renamed
    over it, so a failed or killed write leaves the previous file or none. An
    existing ``path`` that is not a regular file raises ``ValueError``."""
    target = Path(path).resolve()
    if target.exists() and not target.is_file():
        raise ValueError(f"{path}: not a regular file")
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as f:
            yield f
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)


def write_records(path: str | Path | None, rows: Iterable, *, jsonl: bool = False) -> None:
    """Each row as one UTF-8 line ending in a newline, through :func:`replacing`,
    or to standard output when ``path`` is None: a TSV row tab-joins its string
    fields, a JSONL row is an object dumped with sorted keys and no spaces. A
    field holding a tab, CR or LF, or a ``ValueError``, ``TypeError`` or
    ``KeyError`` from making or writing a row, raises
    ``ValueError("<path>:<record>: ...")``; any other exception, a
    :class:`LocatedError` and ``KeyboardInterrupt`` included, propagates
    unchanged."""
    record = 1
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    with contextlib.nullcontext(sys.stdout) if path is None else replacing(path) as f:
        try:
            for row in rows:
                if jsonl:
                    line = encode(row)
                else:
                    line = "\t".join(row)
                    if line.count("\t") != len(row) - 1 or "\n" in line or "\r" in line:
                        raise ValueError(f"a field holds a tab, CR or LF: {row!r}")
                f.write(line + "\n")
                record += 1
        except LocatedError:
            raise
        except (ValueError, TypeError, KeyError) as exc:
            raise _error(f"{'<stdout>' if path is None else path}:{record}", exc) from None
