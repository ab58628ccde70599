"""Reference stage-3 reader: ``parse_prompt`` and ``read_stage3_codes`` as
they were before one checker served both, one object per line. Tests compare
the library's reader with these, result for result and message for message."""

from __future__ import annotations

import numpy as np

from sidforge._records import read_records
from sidforge.sids import SidScheme


def parse_prompt(tokens, scheme: SidScheme):
    """``(short, long, query text, query SID, recent SIDs, click SIDs)``."""
    tokens = list(tokens)
    if len(tokens) < 2 or tokens[0] != "[BOS]" or tokens[-1] != "[EOS]":
        raise ValueError("prompt must be bracketed by [BOS] ... [EOS]")
    segments = []
    start = 1
    for _ in range(tokens.count("[SEP]")):
        end = tokens.index("[SEP]", start)
        segments.append(tokens[start:end])
        start = end + 1
    segments.append(tokens[start:-1])
    if len(segments) < 3:
        raise ValueError(f"expected at least 3 segments, got {len(segments)}")
    user_seg = segments[0]
    if len(user_seg) != 2:
        raise ValueError("user segment must hold exactly two code groups")
    if scheme.length == 5:
        short_part, long_part = (scheme.parse(group).digits for group in user_seg)
    else:
        short_part, long_part = (tuple(map(int, group.split(","))) for group in user_seg)
        for group, part in zip(user_seg, (short_part, long_part)):
            if ",".join(map(str, part)) != group or "-" in group:
                raise ValueError(f"user id group {group!r} is not in canonical form")
    query_text = " ".join(segments[1])
    if len(segments[2]) != 1:
        raise ValueError("query-sid segment must hold exactly one SID")
    query_sid = scheme.parse(segments[2][0])
    recent, clicks = (), ()
    for seg in segments[3:]:
        if not seg:
            raise ValueError("empty segment between separators")
        tag, rest = seg[0], seg[1:]
        if tag == "q>":
            recent = tuple(map(scheme.parse, rest))
        elif tag == "i>":
            clicks = tuple(map(scheme.parse, rest))
        else:
            raise ValueError(f"unknown history segment tag {tag!r}")
    if (len(short_part), len(long_part)) != (5, 5):
        raise ValueError("user id must have 10 digits (5 short + 5 long)")
    return short_part, long_part, query_text, query_sid, recent, clicks


_TAGS = {"text_to_sid", "sid_to_text", "text_to_category", "sid_to_category",
         "query_to_item", "item_to_query", "qsid_to_isid", "isid_to_qsid", "personalization"}


def read_stage3_codes(path, scheme: SidScheme) -> np.ndarray:
    def codes(stage, tag, inputs, targets):
        if int(stage) not in (1, 2, 3):
            raise ValueError(f"stage must be 1, 2 or 3, got {int(stage)}")
        if tag not in _TAGS:
            raise ValueError(f"unknown task tag {tag!r}")
        if int(stage) != 3:
            return None
        tokens = inputs.split(" ")
        if tag != "personalization" or tokens[0] != "<T3>" or " " in targets:
            raise ValueError("stage 3 needs a personalization <T3> prompt and one target SID")
        tokens = tokens[1:]
        if tokens and tokens[-1].startswith("agg:"):
            tokens = tokens[:-1]
        query = parse_prompt(tokens, scheme)[3]
        return (query.rq[0], *scheme.parse(targets).digits)

    rows = [row for row in read_records(path, codes, fields=4) if row is not None]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 1 + scheme.length)
