"""Staged training-record construction with sliding-window augmentation.

Stage 1 aligns entity text with codes, stage 2 synchronizes query-item
co-occurrence, stage 3 adds personalization with the assembled prompt as
input. Records are plain token sequences; a task tag token (``<T1a>`` ...)
prefixes every input so one trainer can multiplex tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._records import read_records, write_records
from .identity import BehaviorSequence, UserSid, parse_prompt, prompt_windows, user_parts
from .quantizer import RqOpqCodebook
from .sids import Sid, SidScheme

TASK_TAGS = {
    "text_to_sid": "<T1a>",
    "sid_to_text": "<T1b>",
    "text_to_category": "<T1c>",
    "sid_to_category": "<T1d>",
    "query_to_item": "<T2a>",
    "item_to_query": "<T2b>",
    "qsid_to_isid": "<T2c>",
    "isid_to_qsid": "<T2d>",
    "personalization": "<T3>",
}

DEFAULT_MAX_WINDOW = 5

# a stage-3 input ends with this token when its session names an aggregate file
AGGREGATE_PREFIX = "agg:"


def _check_kind(stage: int, task_tag: str) -> None:
    if stage not in (1, 2, 3):
        raise ValueError(f"stage must be 1, 2 or 3, got {stage}")
    if task_tag not in TASK_TAGS:
        raise ValueError(f"unknown task tag {task_tag!r}")


@dataclass(frozen=True, slots=True)
class TaskRecord:
    stage: int
    task_tag: str
    input_tokens: tuple[str, ...]
    target_tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        _check_kind(self.stage, self.task_tag)
        if not self.input_tokens or not self.target_tokens:
            raise ValueError("input and target token sequences must be nonempty")
        object.__setattr__(self, "input_tokens", tuple(self.input_tokens))
        object.__setattr__(self, "target_tokens", tuple(self.target_tokens))


@dataclass
class StageStats:
    emitted: int = 0
    skipped: int = 0


def _rec(stage: int, tag: str, inputs: Sequence[str], targets: Sequence[str]) -> TaskRecord:
    return TaskRecord(stage, tag, (TASK_TAGS[tag], *inputs), tuple(targets))


def build_stage1(
    texts: Mapping[str, str],
    sid_catalog: Mapping[str, Sid],
    categories: Mapping[str, str],
) -> tuple[list[TaskRecord], StageStats]:
    """Four alignment records per entity; two when its category is missing or blank."""
    records: list[TaskRecord] = []
    stats = StageStats()
    for entity_id in texts:
        text_tokens = texts[entity_id].split()
        sid = sid_catalog.get(entity_id)
        if sid is None or not text_tokens:
            stats.skipped += 1
            continue
        sid_token = sid.render()
        records.append(_rec(1, "text_to_sid", text_tokens, [sid_token]))
        records.append(_rec(1, "sid_to_text", [sid_token], text_tokens))
        category = categories.get(entity_id, "").split()
        if category:
            records.append(_rec(1, "text_to_category", text_tokens, category))
            records.append(_rec(1, "sid_to_category", [sid_token], category))
        stats.emitted += 1
    return records, stats


def build_stage2(
    pairs: Iterable[tuple[str, str]],
    sid_catalog: Mapping[str, Sid],
    texts: Mapping[str, str] | None = None,
) -> tuple[list[TaskRecord], StageStats]:
    """Four mutual-prediction records per clicked (query, item) pair.

    Entity text, or the entity id when the text table lacks it, is split on whitespace.
    """
    records: list[TaskRecord] = []
    stats = StageStats()
    texts = texts or {}
    for query_id, item_id in pairs:
        q_sid = sid_catalog.get(query_id)
        i_sid = sid_catalog.get(item_id)
        if q_sid is None or i_sid is None:
            stats.skipped += 1
            continue
        q_text = texts.get(query_id, query_id).split()
        i_text = texts.get(item_id, item_id).split()
        records.append(_rec(2, "query_to_item", q_text, i_text))
        records.append(_rec(2, "item_to_query", i_text, q_text))
        records.append(_rec(2, "qsid_to_isid", [q_sid.render()], [i_sid.render()]))
        records.append(_rec(2, "isid_to_qsid", [i_sid.render()], [q_sid.render()]))
        stats.emitted += 1
    return records, stats


def sliding_window(seq: Sequence, max_window: int = DEFAULT_MAX_WINDOW) -> list[tuple[list, object]]:
    """(window, target) pairs, one per position; the first has no window.

    The window holds the min(t-1, max_window) items preceding target t, so
    output length always equals input length.
    """
    if max_window < 1:
        raise ValueError(f"max_window must be >= 1, got {max_window}")
    out: list[tuple[list, object]] = []
    for t in range(1, len(seq) + 1):
        width = min(t - 1, max_window)
        out.append((list(seq[t - 1 - width:t - 1]), seq[t - 1]))
    return out


@dataclass(frozen=True)
class Session:
    """One search session; ``short_clicks`` is oldest-first and is expected
    to end with the clicked item (it is appended when absent)."""

    session_id: str
    query_text: str
    query_sid: Sid
    clicked_sid: Sid
    short_clicks: tuple[Sid, ...] = ()
    long_clicks: tuple[Sid, ...] = ()
    recent_queries: tuple[Sid, ...] = ()
    aggregate_ref: str | None = None


def build_stage3(
    sessions: Iterable[Session],
    codebook: RqOpqCodebook,
    max_window: int = DEFAULT_MAX_WINDOW,
) -> tuple[list[TaskRecord], StageStats]:
    """Personalization records with sliding-window expansion on short clicks.

    A session with m short clicks yields m records whose targets walk the
    click sequence; an empty click history yields one cold record that
    targets the session's clicked item directly. The long sequence backs
    the user id (falling back to the short side when absent), and an
    aggregate-file reference token rides along when the session names one.
    A session with an invalid click SID, or a sequence over its length
    cap, is skipped; a codebook without 5-digit SIDs raises ``ValueError``.

    Each distinct SID is validated and rendered once per call, the user
    parts of all sessions come from one :func:`user_parts` call, and each
    session's prompt head is built once for all of its windows.
    """
    scheme = codebook.scheme
    rendered: dict[Sid, str] = {}
    rows: dict[Sid, int] = {}  # valid click SID -> its row of `digits`
    digits: list[tuple[int, ...]] = []

    def render(sid: Sid) -> str:
        text = rendered.get(sid)
        if text is None:
            text = rendered[sid] = sid.render()
        return text

    def click_rows(sids: Sequence[Sid]) -> list[int]:
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
    kept: list[tuple[Session, list[Sid]]] = []
    sequences: list[list[int]] = []  # short, then long click rows of each kept session
    for sess in sessions:
        effective = list(sess.short_clicks)
        if not effective or effective[-1] != sess.clicked_sid:
            effective.append(sess.clicked_sid)
        long_items = sess.long_clicks or effective
        try:
            # the sequences' length caps; their ValueError skips the session
            BehaviorSequence(tuple(effective), "short_click")
            BehaviorSequence(tuple(long_items), "long_click")
            short_rows = click_rows(effective)
            long_rows = click_rows(long_items) if sess.long_clicks else short_rows
        except ValueError:
            stats.skipped += 1
            continue
        kept.append((sess, effective))
        sequences += [short_rows, long_rows]

    table = np.array(digits, dtype=np.float64).reshape(len(digits), scheme.length)
    parts = user_parts(sequences, table, scheme.sizes).tolist()
    records: list[TaskRecord] = []
    for (sess, effective), short_part, long_part in zip(kept, parts[0::2], parts[1::2]):
        user = UserSid(tuple(short_part), tuple(long_part))
        pairs = sliding_window([render(sid) for sid in effective], max_window)
        prompts = prompt_windows(user, sess.query_text, render(sess.query_sid),
                                 [render(sid) for sid in sess.recent_queries],
                                 [window for window, _ in pairs])
        agg = [] if sess.aggregate_ref is None else [f"{AGGREGATE_PREFIX}{sess.aggregate_ref}"]
        for prompt, (_, target) in zip(prompts, pairs):
            records.append(_rec(3, "personalization", prompt + agg, (target,)))
        stats.emitted += 1
    return records, stats


def _token_field(tokens: tuple[str, ...]) -> str:
    text = " ".join(tokens)
    if len(text.split()) != len(tokens):
        raise ValueError(f"a token is empty or holds whitespace: {tokens!r}")
    return text


def write_task_records(records: Iterable[TaskRecord], path: str | Path) -> None:
    """``stage<TAB>task<TAB>input tokens<TAB>target tokens`` lines. Tokens are
    what ``str.split`` yields: one that is empty or holds whitespace would not
    read back as itself, so it raises ``ValueError``."""
    write_records(path, ((str(rec.stage), rec.task_tag, _token_field(rec.input_tokens),
                          _token_field(rec.target_tokens)) for rec in records))


def read_task_records(path: str | Path) -> list[TaskRecord]:
    return read_records(path, lambda stage, tag, inputs, targets: TaskRecord(
        int(stage), tag, tuple(inputs.split(" ")), tuple(targets.split(" "))), fields=4)


def read_stage3_codes(path: str | Path, scheme: SidScheme) -> np.ndarray:
    """The ``(query first digit, target digits...)`` row of each stage-3
    record in a record file, as an ``(n, 1 + L)`` int array.

    Every line is checked as a record; a stage-3 one must hold a whole
    ``<T3>`` personalization prompt and one target SID. Other stages are skipped.
    """

    def codes(stage: str, tag: str, inputs: str, targets: str) -> tuple[int, ...] | None:
        _check_kind(int(stage), tag)
        if int(stage) != 3:
            return None
        tokens = inputs.split(" ")
        if tag != "personalization" or tokens[0] != TASK_TAGS[tag] or " " in targets:
            raise ValueError("stage 3 needs a personalization <T3> prompt and one target SID")
        tokens = tokens[1:]
        if tokens and tokens[-1].startswith(AGGREGATE_PREFIX):
            tokens = tokens[:-1]
        query = parse_prompt(tokens, scheme).query_sid
        return (query.rq[0], *scheme.parse(targets).digits)

    rows = [row for row in read_records(path, codes, fields=4) if row is not None]
    return np.array(rows, dtype=np.int64).reshape(len(rows), 1 + scheme.length)
