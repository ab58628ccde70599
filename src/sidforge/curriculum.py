"""Staged training-record construction with sliding-window augmentation.

Stage 1 aligns entity text with codes, stage 2 synchronizes query-item
co-occurrence, stage 3 adds personalization with the assembled prompt as
input. Records are plain token sequences; a task tag token (``<T1a>`` ...)
prefixes every input so one trainer can multiplex tasks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._records import iter_records, read_records, write_records
from .identity import (
    MAX_SEQUENCE_LENGTH,
    PromptHeads,
    check_user_parts,
    prompt_head,
    prompt_text,
    query_words,
    user_parts,
)
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


def _check_window(max_window: int) -> None:
    if max_window < 1:
        raise ValueError(f"max_window must be >= 1, got {max_window}")


def sliding_window(seq: Sequence, max_window: int = DEFAULT_MAX_WINDOW) -> list[tuple[list, object]]:
    """(window, target) pairs, one per position; the first has no window.

    The window holds the min(t-1, max_window) items preceding target t, so
    output length always equals input length.
    """
    _check_window(max_window)
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
    """Personalization records with sliding-window expansion on short clicks:
    the rows of :func:`stage3_rows` as :class:`TaskRecord` objects."""
    rows, stats = stage3_rows(sessions, codebook, max_window)
    return [TaskRecord(3, "personalization", tuple(inputs.split(" ")), (target,))
            for _, _, inputs, target in rows], stats


def stage3_rows(
    sessions: Iterable[Session],
    codebook: RqOpqCodebook,
    max_window: int = DEFAULT_MAX_WINDOW,
) -> tuple[list[tuple[str, str, str, str]], StageStats]:
    """Stage-3 records as the ``(stage, task, input tokens, target)`` text rows
    that :func:`write_task_records` writes, tokens joined by single spaces.

    A session with m short clicks yields m records whose targets walk the
    click sequence; an empty click history yields one cold record that
    targets the session's clicked item directly. The long sequence backs
    the user id (falling back to the short side when absent), and an
    aggregate-file reference token rides along when the session names one.
    A session with an invalid click SID, or a sequence over its length
    cap, is skipped; a codebook without 5-digit SIDs, or an aggregate
    reference that is not one token, raises ``ValueError``.

    The sessions become the id rows of :func:`stage3_blocks`, which renders
    them: each distinct click SID is validated and rendered once per call.
    """
    table = SidRows(codebook.scheme)
    stats = StageStats()
    kept: list[tuple[Session, list[int], list[int]]] = []
    for sess in sessions:
        clicks = click_sequences(list(sess.short_clicks), sess.clicked_sid, list(sess.long_clicks))
        if clicks is not None:
            short, long = clicks
            try:
                short_rows = [table.add(sid) for sid in short]
                long_rows = short_rows if long is short else [table.add(sid) for sid in long]
            except ValueError:  # an invalid click SID
                clicks = None
        if clicks is None:
            stats.skipped += 1
        else:
            kept.append((sess, short_rows, long_rows))
    if kept:  # these raise before any query text or aggregate reference is checked
        _check_sessions(codebook.scheme, max_window)
    rendered: dict[Sid, str] = {}

    def render(sid: Sid) -> str:
        text = rendered.get(sid)
        if text is None:
            text = rendered[sid] = sid.render()
        return text

    id_rows = ((query_words(sess.query_text), render(sess.query_sid),
                [render(sid) for sid in sess.recent_queries], short_rows, long_rows,
                aggregate_end(sess.aggregate_ref)) for sess, short_rows, long_rows in kept)
    return [row for block in stage3_blocks(id_rows, table, max_window, stats)
            for row in block], stats


# Sessions in one block of stage3_blocks, and records in one block of
# stage3_code_blocks: what stage 3 and the scorer fit hold at once.
_BLOCK = 4096


class SidRows:
    """Distinct SIDs numbered in first-seen order, each validated against
    ``scheme`` and rendered once: SID ``row`` renders as ``texts[row]`` and
    its digits are row ``row`` of :meth:`digits`."""

    def __init__(self, scheme: SidScheme):
        self.scheme = scheme
        self.texts: list[str] = []
        self._rows: dict[Sid, int] = {}
        self._digits: list[tuple[int, ...]] = []

    def add(self, sid: Sid) -> int:
        """The row of ``sid``; an invalid one raises ``ValueError``."""
        row = self._rows.get(sid)
        if row is None:
            self.scheme.validate(sid)
            row = self._rows[sid] = len(self.texts)
            self.texts.append(sid.render())
            self._digits.append(sid.digits)
        return row

    def digits(self) -> np.ndarray:
        """The ``(rows, L)`` float table :func:`user_parts` weights."""
        return np.array(self._digits, dtype=np.float64).reshape(len(self._digits),
                                                                self.scheme.length)


def click_sequences(short: list, clicked, long: list) -> tuple[list, list] | None:
    """A session's effective short sequence, its short clicks followed by the
    clicked item unless they already end with it, and its long sequence,
    which is the short one when ``long`` is empty; None when either is over
    its length cap."""
    if not short or short[-1] != clicked:
        short = [*short, clicked]
    long = long or short
    if (len(short) > MAX_SEQUENCE_LENGTH["short_click"]
            or len(long) > MAX_SEQUENCE_LENGTH["long_click"]):
        return None
    return short, long


def aggregate_end(ref: str | None) -> str:
    """What a session's aggregate reference adds at the end of each of its
    stage-3 inputs: nothing, or a space and its ``agg:`` token. A reference
    that is not a nonempty string without whitespace raises ``ValueError``."""
    if ref is None:
        return ""
    if not isinstance(ref, str) or ref.split() != [ref]:  # its record would not read back
        raise ValueError(f"aggregate_ref must be one token without whitespace, got {ref!r}")
    return f" {AGGREGATE_PREFIX}{ref}"


def _check_sessions(scheme: SidScheme, max_window: int) -> None:
    """The checks stage 3 makes once it keeps a session."""
    check_user_parts(scheme.sizes, scheme.sizes)  # a part has a digit per position
    _check_window(max_window)


def stage3_blocks(
    sessions: Iterable[tuple],
    table: SidRows,
    max_window: int,
    stats: StageStats,
) -> Iterator[list[tuple[str, str, str, str]]]:
    """The text rows of :func:`stage3_rows`, one list per block of ``_BLOCK``
    kept sessions, so memory holds one block whatever the input's length.

    Each session comes as id rows: ``(query words, query SID text, recent
    query SID texts, short rows, long rows, aggregate end)``, the words
    checked by :func:`query_words`, the sequences as :func:`click_sequences`
    gives them in rows of ``table`` and the end as :func:`aggregate_end`
    gives it. The user parts of a block come from one :func:`user_parts`
    call, and each session's prompt head is joined once for all of its
    windows. ``stats.emitted`` counts the sessions.

    The checks of a kept session run on the first one; when they fail, the
    rest of ``sessions`` is read before they raise, so a fault the reader
    finds further on is still the one raised.
    """
    sessions = iter(sessions)
    digits, texts = table.digits(), table.texts
    tag = f"{TASK_TAGS['personalization']} "
    block = list(itertools.islice(sessions, _BLOCK))
    if block:
        try:
            _check_sessions(table.scheme, max_window)
        except ValueError:
            for _ in sessions:
                pass
            raise
    while block:
        parts = user_parts([seq for sess in block for seq in sess[3:5]], digits,
                           table.scheme.sizes)
        groups = [",".join(map(str, part)) for part in parts.tolist()]
        rows: list[tuple[str, str, str, str]] = []
        for (words, query, recent, short, _, end), short_group, long_group in zip(
                block, groups[0::2], groups[1::2]):
            head = tag + prompt_head((short_group, long_group), words, query, recent)
            clicks = [texts[row] for row in short]
            for t, target in enumerate(clicks):  # the first record has no window
                window = " ".join(clicks[max(0, t - max_window):t])
                rows.append(("3", "personalization", prompt_text(head, window) + end, target))
        stats.emitted += len(block)
        yield rows
        block = list(itertools.islice(sessions, _BLOCK))


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


def stage3_code_blocks(path: str | Path, scheme: SidScheme) -> Iterator[np.ndarray]:
    """The ``(query first digit, target digits...)`` row of each stage-3
    record in a record file, as ``(m, 1 + L)`` int arrays of at most
    ``_BLOCK`` rows each, none empty, yielded as the file is read.

    Every line is checked as a record; a stage-3 one must hold a whole
    ``<T3>`` personalization prompt and one target SID. Other stages are
    skipped. Prompts are checked through :class:`PromptHeads`, so the
    records of one session check their shared head once.
    """
    heads = PromptHeads(scheme)

    def codes(stage: str, tag: str, inputs: str, targets: str) -> tuple[int, ...] | None:
        _check_kind(int(stage), tag)
        if int(stage) != 3:
            return None
        tokens = inputs.split(" ")
        if tag != "personalization" or tokens[0] != TASK_TAGS[tag] or " " in targets:
            raise ValueError("stage 3 needs a personalization <T3> prompt and one target SID")
        tokens = tokens[1:]
        if tokens and tokens[-1].startswith(AGGREGATE_PREFIX):
            tokens.pop()
        query = heads.query_sid(tokens)
        return (query.rq[0], *scheme.parse(targets).digits)

    rows = (row for row in iter_records(path, codes, fields=4) if row is not None)
    while block := list(itertools.islice(rows, _BLOCK)):
        yield np.array(block, dtype=np.int64)


def read_stage3_codes(path: str | Path, scheme: SidScheme) -> np.ndarray:
    """The blocks of :func:`stage3_code_blocks` as one ``(n, 1 + L)`` int array."""
    return np.concatenate([*stage3_code_blocks(path, scheme),
                           np.zeros((0, 1 + scheme.length), dtype=np.int64)])
