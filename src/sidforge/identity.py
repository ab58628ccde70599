"""Behavior-sequence user identity and prompt assembly.

A user's token identity is the digit-wise ceiling of a recency-weighted
average over the SIDs of their clicked items: weights exp(sqrt(i)),
normalized, with position m (most recent) weighted highest. Short and
long sequences each contribute a 5-digit part, giving a 10-digit user id.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .quantizer import RqOpqCodebook, lookup_centroids
from .sids import Sid, SidScheme

BOS = "[BOS]"
EOS = "[EOS]"
SEP = "[SEP]"
RECENT_QUERIES_TAG = "q>"
SHORT_CLICKS_TAG = "i>"
_RESERVED = (BOS, EOS, SEP, RECENT_QUERIES_TAG, SHORT_CLICKS_TAG)

SEQUENCE_KINDS = ("short_click", "long_click", "long_order", "long_rsu")

# Hard caps per sequence kind; long sources run to thousands of items.
MAX_SEQUENCE_LENGTH = {
    "short_click": 500,
    "long_click": 5000,
    "long_order": 5000,
    "long_rsu": 5000,
}

# Positions beyond this are dropped (oldest first) before weighting.
MAX_WEIGHTED_LENGTH = 50


@dataclass(frozen=True)
class BehaviorSequence:
    """Ordered item SIDs, index 1 oldest through index m most recent."""

    items: tuple[Sid, ...]
    kind: str = "short_click"

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if self.kind not in SEQUENCE_KINDS:
            raise ValueError(f"kind must be one of {SEQUENCE_KINDS}, got {self.kind!r}")
        if len(self.items) > MAX_SEQUENCE_LENGTH[self.kind]:
            raise ValueError(
                f"{self.kind} sequence exceeds {MAX_SEQUENCE_LENGTH[self.kind]} items"
            )

    def __len__(self) -> int:
        return len(self.items)


@dataclass(frozen=True)
class UserSid:
    short_part: tuple[int, ...]
    long_part: tuple[int, ...]

    @property
    def digits(self) -> tuple[int, ...]:
        return self.short_part + self.long_part

    def __post_init__(self) -> None:
        if len(self.digits) != 10:
            raise ValueError("user id must have 10 digits (5 short + 5 long)")


@functools.lru_cache(maxsize=MAX_WEIGHTED_LENGTH)
def decay_weights(m: int) -> np.ndarray:
    """exp(sqrt(i)) / sum, i = 1..m; positive, summing to 1, increasing.

    Computed once per length and shared, so the array is read-only.
    """
    if m < 1:
        raise ValueError("need at least one position")
    raw = np.exp(np.sqrt(np.arange(1, m + 1, dtype=np.float64)))
    lam = raw / raw.sum()
    lam.flags.writeable = False
    return lam


def _weighted_part(items: Sequence[Sid], scheme: SidScheme) -> tuple[int, ...]:
    items = list(items)[-MAX_WEIGHTED_LENGTH:]
    lam = decay_weights(len(items))
    digits = np.array([sid.digits for sid in items], dtype=np.float64)
    if digits.shape[1] != scheme.length:
        raise ValueError(f"sequence SIDs have {digits.shape[1]} digits, scheme has {scheme.length}")
    weighted = lam @ digits
    part = []
    for pos, (value, size) in enumerate(zip(weighted, scheme.sizes)):
        # guard against FP creep so exact-integer combinations stay put
        code = math.ceil(value - 1e-9)
        part.append(min(max(code, 0), size - 1))
    return tuple(part)


def build_user_sid(
    short: BehaviorSequence,
    long: BehaviorSequence,
    codebook: RqOpqCodebook | SidScheme,
) -> UserSid:
    """Concatenate the weighted short part and weighted long part."""
    scheme = codebook.scheme if isinstance(codebook, RqOpqCodebook) else codebook
    if len(short) == 0 or len(long) == 0:
        raise ValueError("behavior sequences must be nonempty; supply a default sequence first")
    for sid in tuple(short.items) + tuple(long.items):
        scheme.validate(sid)
    return UserSid(_weighted_part(short.items, scheme), _weighted_part(long.items, scheme))


@dataclass(frozen=True)
class ClickStat:
    item_id: str
    sid: Sid
    page_views: int


GLOBAL_FALLBACK = "*"


def default_sequence(
    query: str,
    click_stats: Mapping[str, Sequence[ClickStat]],
    kind: str = "short_click",
    max_items: int = 10,
) -> BehaviorSequence:
    """Cold-start default: the query's most-clicked items by page views.

    Unseen queries fall back to the stats under ``GLOBAL_FALLBACK``; page-view
    ties order by item id.
    """
    stats = click_stats.get(query) or click_stats.get(GLOBAL_FALLBACK)
    if not stats:
        raise ValueError(f"no click stats for query {query!r} and no global fallback")
    ranked = sorted(stats, key=lambda s: (-s.page_views, s.item_id))[:max_items]
    return BehaviorSequence(tuple(s.sid for s in ranked), kind=kind)


@dataclass(frozen=True)
class LongSeqAggregate:
    """Per-source, per-level sums of hierarchy centroids (3 x 3 vectors)."""

    click: tuple[np.ndarray, ...]
    order: tuple[np.ndarray, ...]
    rsu: tuple[np.ndarray, ...]

    def as_rows(self) -> list[tuple[str, np.ndarray]]:
        rows = []
        for source, vectors in (("click", self.click), ("order", self.order), ("rsu", self.rsu)):
            for level, vec in enumerate(vectors, 1):
                rows.append((f"{source}.L{level}", vec))
        return rows


def aggregate_long(
    click: BehaviorSequence,
    order: BehaviorSequence,
    rsu: BehaviorSequence,
    codebook: RqOpqCodebook,
) -> LongSeqAggregate:
    """Sum each item's per-level centroid within each long-sequence source."""
    n_levels = len(codebook.rq.levels)

    def sums(seq: BehaviorSequence) -> tuple[np.ndarray, ...]:
        acc = [np.zeros(codebook.dim) for _ in range(n_levels)]
        for sid in seq.items:
            for level, centroid in enumerate(lookup_centroids(sid, codebook)):
                acc[level] += centroid
        return tuple(acc)

    return LongSeqAggregate(sums(click), sums(order), sums(rsu))


def assemble_prompt(
    user: UserSid,
    query_text: str,
    query_sid: Sid,
    recent_queries: Sequence[Sid] = (),
    short_clicks: Sequence[Sid] = (),
) -> list[str]:
    """Serialize one decoding context to tokens.

    Layout: ``[BOS] user [SEP] query-text [SEP] query-sid [SEP] q> ...
    [SEP] i> ... [EOS]``. Empty history segments are dropped together with
    their separator, so separators never stack; the ``q>``/``i>`` tags keep
    the parse unambiguous when only one history segment is present. SIDs
    are rendered as single comma-joined tokens.
    """
    words = query_text.split()
    for w in words:
        if w in _RESERVED:
            raise ValueError(f"query text may not contain reserved token {w!r}")
    short_render = ",".join(str(d) for d in user.short_part)
    long_render = ",".join(str(d) for d in user.long_part)
    segments: list[list[str]] = [
        [short_render, long_render],
        words,
        [query_sid.render()],
    ]
    if recent_queries:
        segments.append([RECENT_QUERIES_TAG] + [s.render() for s in recent_queries])
    if short_clicks:
        segments.append([SHORT_CLICKS_TAG] + [s.render() for s in short_clicks])
    tokens = [BOS]
    for i, seg in enumerate(segments):
        if i > 0:
            tokens.append(SEP)
        tokens.extend(seg)
    tokens.append(EOS)
    return tokens


@dataclass(frozen=True)
class ParsedPrompt:
    user: UserSid
    query_text: str
    query_sid: Sid
    recent_queries: tuple[Sid, ...]
    short_clicks: tuple[Sid, ...]


def parse_prompt(tokens: Sequence[str], scheme: SidScheme) -> ParsedPrompt:
    """Inverse of :func:`assemble_prompt`."""
    tokens = list(tokens)
    if len(tokens) < 2 or tokens[0] != BOS or tokens[-1] != EOS:
        raise ValueError("prompt must be bracketed by [BOS] ... [EOS]")
    segments: list[list[str]] = [[]]
    for tok in tokens[1:-1]:
        if tok == SEP:
            segments.append([])
        else:
            segments[-1].append(tok)
    if len(segments) < 3:
        raise ValueError(f"expected at least 3 segments, got {len(segments)}")
    user_seg = segments[0]
    if len(user_seg) != 2:
        raise ValueError("user segment must hold exactly two code groups")
    short_part = tuple(int(d) for d in user_seg[0].split(","))
    long_part = tuple(int(d) for d in user_seg[1].split(","))
    query_text = " ".join(segments[1])
    if len(segments[2]) != 1:
        raise ValueError("query-sid segment must hold exactly one SID")
    query_sid = scheme.parse(segments[2][0])
    recent: tuple[Sid, ...] = ()
    clicks: tuple[Sid, ...] = ()
    for seg in segments[3:]:
        if not seg:
            raise ValueError("empty segment between separators")
        tag, rest = seg[0], seg[1:]
        if tag == RECENT_QUERIES_TAG:
            recent = tuple(scheme.parse(t) for t in rest)
        elif tag == SHORT_CLICKS_TAG:
            clicks = tuple(scheme.parse(t) for t in rest)
        else:
            raise ValueError(f"unknown history segment tag {tag!r}")
    return ParsedPrompt(UserSid(short_part, long_part), query_text, query_sid, recent, clicks)
