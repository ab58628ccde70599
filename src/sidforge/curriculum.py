"""Staged training-record construction with sliding-window augmentation.

Stage 1 aligns entity text with codes, stage 2 synchronizes query-item
co-occurrence, stage 3 adds personalization with the assembled prompt as
input. Records are plain token sequences; a task tag token (``<T1a>`` ...)
prefixes every input so one trainer can multiplex tasks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ._records import read_records
from .identity import BehaviorSequence, assemble_prompt, build_user_sid
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


@dataclass(frozen=True)
class TaskRecord:
    stage: int
    task_tag: str
    input_tokens: tuple[str, ...]
    target_tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.stage not in (1, 2, 3):
            raise ValueError(f"stage must be 1, 2 or 3, got {self.stage}")
        if self.task_tag not in TASK_TAGS:
            raise ValueError(f"unknown task tag {self.task_tag!r}")
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
    """Four alignment records per entity; two when its category is missing."""
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
        category = categories.get(entity_id)
        if category is not None:
            records.append(_rec(1, "text_to_category", text_tokens, [category]))
            records.append(_rec(1, "sid_to_category", [sid_token], [category]))
        stats.emitted += 1
    return records, stats


def build_stage2(
    pairs: Iterable[tuple[str, str]],
    sid_catalog: Mapping[str, Sid],
    texts: Mapping[str, str] | None = None,
) -> tuple[list[TaskRecord], StageStats]:
    """Four mutual-prediction records per clicked (query, item) pair.

    Entity text defaults to the entity id when no text table is given.
    """
    records: list[TaskRecord] = []
    stats = StageStats()

    def text_tokens(entity_id: str) -> list[str]:
        if texts is not None and entity_id in texts:
            return texts[entity_id].split()
        return [entity_id]

    for query_id, item_id in pairs:
        q_sid = sid_catalog.get(query_id)
        i_sid = sid_catalog.get(item_id)
        if q_sid is None or i_sid is None:
            stats.skipped += 1
            continue
        q_text, i_text = text_tokens(query_id), text_tokens(item_id)
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
    """
    records: list[TaskRecord] = []
    stats = StageStats()
    scheme = codebook.scheme
    for sess in sessions:
        try:
            effective = list(sess.short_clicks)
            if not effective or effective[-1] != sess.clicked_sid:
                effective.append(sess.clicked_sid)
            long_items = sess.long_clicks or tuple(effective)
            # build_user_sid validates every SID; its ValueError skips the session
            user = build_user_sid(
                BehaviorSequence(tuple(effective), "short_click"),
                BehaviorSequence(tuple(long_items), "long_click"),
                scheme,
            )
        except ValueError:
            stats.skipped += 1
            continue
        for window, target in sliding_window(effective, max_window):
            prompt = assemble_prompt(
                user, sess.query_text, sess.query_sid,
                recent_queries=sess.recent_queries, short_clicks=window,
            )
            inputs = list(prompt)
            if sess.aggregate_ref is not None:
                inputs.append(f"agg:{sess.aggregate_ref}")
            records.append(_rec(3, "personalization", inputs, [target.render()]))
        stats.emitted += 1
    return records, stats


def write_task_records(records: Iterable[TaskRecord], path: str | Path) -> None:
    """``stage<TAB>task<TAB>input tokens<TAB>target tokens`` lines."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(f"{rec.stage}\t{rec.task_tag}\t"
                    f"{' '.join(rec.input_tokens)}\t{' '.join(rec.target_tokens)}\n")


def read_task_records(path: str | Path) -> list[TaskRecord]:
    return read_records(path, lambda stage, tag, inputs, targets: TaskRecord(
        int(stage), tag, tuple(inputs.split(" ")), tuple(targets.split(" "))), fields=4)
