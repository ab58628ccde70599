"""The one reader behind every text input. A bad record raises
``ValueError("<path>:<line>: ...")``; a bad file ``ValueError("<path>: ...")``."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable


def _error(where: object, exc: Exception) -> ValueError:
    if isinstance(exc, UnicodeDecodeError):
        return ValueError(f"{where}: not UTF-8 text ({exc.reason})")
    detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
    return ValueError(f"{where}: {detail}")


def _json_object(text: str) -> dict:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
    return obj


def read_records(path: str | Path, parse: Callable[..., Any], *, fields: int = 0,
                 jsonl: bool = False, header: Callable[[str], Any] | None = None) -> list:
    """``parse`` applied to each non-blank line of a UTF-8 file, in order.

    TSV lines lose only their trailing newline; with ``fields`` a line must
    have exactly that many tab-separated fields, passed to ``parse`` as
    arguments. JSONL lines are stripped and ``parse`` gets each one's JSON
    object. ``header`` gets line 1 as it is, blank or not.
    """
    out = []
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
                    out.append(parse(_json_object(line)))
                elif fields:
                    parts = line.split("\t")
                    if len(parts) != fields:
                        raise ValueError(f"expected {fields} fields, got {len(parts)}")
                    out.append(parse(*parts))
                else:
                    out.append(parse(line))
        except UnicodeDecodeError as exc:  # decoded in blocks: the line is unknown
            raise _error(path, exc) from None
        except (ValueError, KeyError, TypeError) as exc:
            raise _error(f"{path}:{line_no}", exc) from None
    return out


def read_json(path: str | Path, parse: Callable[[dict], Any]) -> Any:
    """``parse`` applied to the one JSON object a file holds."""
    try:
        return parse(_json_object(Path(path).read_text(encoding="utf-8")))
    except (ValueError, KeyError, TypeError) as exc:
        raise _error(path, exc) from None
