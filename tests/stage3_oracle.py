"""Reference stage 3: ``parse_prompt`` and ``read_stage3_codes`` as they
were before one checker served both, one object per line, and the session
reader and ``stage3_rows`` as they were before stage 3 ran in blocks, every
session and record in memory and the user parts of all sessions from one
``user_parts`` call. Tests compare the library with these, result for result
and message for message."""

from __future__ import annotations

import numpy as np

from sidforge._records import id_list, id_text, read_records
from sidforge.curriculum import Session, StageStats
from sidforge.identity import MAX_SEQUENCE_LENGTH, check_user_parts, query_words, user_parts
from sidforge.sids import Sid, SidScheme


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


def read_sessions(path, item_sids, query_sids) -> list[Session]:
    """Stage-3 sessions; one whose queries or items have no SID is left out."""

    def session(obj):
        session_id, query_id, clicked = map(
            id_text, (obj["session_id"], obj["query_id"], obj["clicked_item"]))
        short_ids = id_list(obj.get("short_clicks", []))
        long_ids = id_list(obj.get("long_clicks", []))
        recent_ids = id_list(obj.get("recent_queries", []))
        ref = obj.get("aggregate_ref")
        if ref is not None and (not isinstance(ref, str) or ref.split() != [ref]):
            raise ValueError(f"aggregate_ref must be one token without whitespace, got {ref!r}")
        query_text = obj.get("query_text", query_id)
        query_words(query_text)
        try:
            return Session(
                session_id=session_id,
                query_text=query_text,
                query_sid=query_sids[query_id],
                clicked_sid=item_sids[clicked],
                short_clicks=tuple(item_sids[i] for i in short_ids),
                long_clicks=tuple(item_sids[i] for i in long_ids),
                recent_queries=tuple(query_sids[q] for q in recent_ids),
                aggregate_ref=ref,
            )
        except KeyError:
            return None

    return [s for s in read_records(path, session, jsonl=True) if s is not None]


def stage3_rows(sessions, codebook, max_window=5):
    """``(stage, task, input tokens, target)`` text rows and their stats."""
    scheme = codebook.scheme
    rendered: dict[Sid, str] = {}
    rows: dict[Sid, int] = {}
    digits: list[tuple[int, ...]] = []

    def render(sid):
        text = rendered.get(sid)
        if text is None:
            text = rendered[sid] = sid.render()
        return text

    def click_rows(sids):
        out = []
        for sid in sids:
            row = rows.get(sid)
            if row is None:
                scheme.validate(sid)
                row = rows[sid] = len(digits)
                digits.append(sid.digits)
            out.append(row)
        return out

    stats = StageStats()
    kept, sequences = [], []
    for sess in sessions:
        effective = list(sess.short_clicks)
        if not effective or effective[-1] != sess.clicked_sid:
            effective.append(sess.clicked_sid)
        long_items = sess.long_clicks or effective
        if (len(effective) > MAX_SEQUENCE_LENGTH["short_click"]
                or len(long_items) > MAX_SEQUENCE_LENGTH["long_click"]):
            stats.skipped += 1
            continue
        try:
            short_rows = click_rows(effective)
            long_rows = click_rows(long_items) if sess.long_clicks else short_rows
        except ValueError:
            stats.skipped += 1
            continue
        kept.append((sess, effective))
        sequences += [short_rows, long_rows]

    table = np.array(digits, dtype=np.float64).reshape(len(digits), scheme.length)
    parts = user_parts(sequences, table, scheme.sizes)
    if kept:
        check_user_parts(parts[0], parts[1])
        if max_window < 1:
            raise ValueError(f"max_window must be >= 1, got {max_window}")
    groups = [",".join(map(str, part)) for part in parts.tolist()]
    out = []
    for (sess, effective), short_group, long_group in zip(kept, groups[0::2], groups[1::2]):
        head = ["<T3>", "[BOS]", short_group, long_group, "[SEP]",
                *query_words(sess.query_text), "[SEP]", render(sess.query_sid)]
        if sess.recent_queries:
            head += ["[SEP]", "q>", *(render(sid) for sid in sess.recent_queries)]
        head = " ".join(head)
        end = ""
        if sess.aggregate_ref is not None:
            token = f"agg:{sess.aggregate_ref}"
            if token.split() != [token]:
                raise ValueError("aggregate_ref must be one token without whitespace, "
                                 f"got {sess.aggregate_ref!r}")
            end = f" {token}"
        clicks = [render(sid) for sid in effective]
        for t, target in enumerate(clicks):
            window = " ".join(clicks[max(0, t - max_window):t])
            inputs = f"{head} [SEP] i> {window} [EOS]" if window else f"{head} [EOS]"
            out.append(("3", "personalization", inputs + end, target))
        stats.emitted += 1
    return out, stats
