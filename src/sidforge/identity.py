"""Behavior-sequence user identity and prompt assembly.

A user's token identity is the digit-wise ceiling of a recency-weighted
average over the SIDs of their clicked items: weights exp(sqrt(i)),
normalized, with position m (most recent) weighted highest. Short and
long sequences each contribute a 5-digit part, giving a 10-digit user id.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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
        if (len(self.short_part), len(self.long_part)) != (5, 5):
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


def user_parts(sequences: Sequence[Sequence[int]], digits: np.ndarray,
               sizes: Sequence[int]) -> np.ndarray:
    """The weighted parts of many sequences, as an ``(S, L)`` int array.

    Each sequence lists rows of the ``(n, L)`` float ``digits`` table, oldest
    first, and only its last ``MAX_WEIGHTED_LENGTH`` rows count. Sequences
    of one length m share one ``decay_weights(m) @ stack`` over their
    ``(S, m, L)`` stack, then each part is the digit-wise ceiling, clipped
    to ``[0, size)``.
    """
    sequences = [seq[-MAX_WEIGHTED_LENGTH:] for seq in sequences]
    by_length: dict[int, list[int]] = {}
    for i, seq in enumerate(sequences):
        by_length.setdefault(len(seq), []).append(i)
    parts = np.empty((len(sequences), len(sizes)), dtype=np.int64)
    top = np.asarray(sizes) - 1
    for m, idx in by_length.items():
        weighted = np.matmul(decay_weights(m), digits[np.array([sequences[i] for i in idx])])
        # guard against FP creep so exact-integer combinations stay put
        parts[idx] = np.clip(np.ceil(weighted - 1e-9), 0, top)
    return parts


def build_user_sid(
    short: BehaviorSequence,
    long: BehaviorSequence,
    codebook: RqOpqCodebook | SidScheme,
) -> UserSid:
    """Concatenate the weighted short part and weighted long part."""
    scheme = codebook.scheme if isinstance(codebook, RqOpqCodebook) else codebook
    if len(short) == 0 or len(long) == 0:
        raise ValueError("behavior sequences must be nonempty; supply a default sequence first")
    for sid in dict.fromkeys(short.items + long.items):  # each distinct SID once
        scheme.validate(sid)
    short_tail, long_tail = short.items[-MAX_WEIGHTED_LENGTH:], long.items[-MAX_WEIGHTED_LENGTH:]
    digits = np.array([sid.digits for sid in short_tail + long_tail], dtype=np.float64)
    n = len(short_tail)
    short_part, long_part = user_parts([range(n), range(n, len(digits))], digits, scheme.sizes)
    return UserSid(tuple(short_part.tolist()), tuple(long_part.tolist()))


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
    """Serialize one decoding context to tokens: :func:`prompt_windows`
    with one window."""
    return prompt_windows(user, query_text, query_sid.render(),
                          [s.render() for s in recent_queries],
                          [[s.render() for s in short_clicks]])[0]


def query_words(query_text: object) -> list[str]:
    """The tokens of a query text, which must be a string free of reserved tokens."""
    if not isinstance(query_text, str):
        raise ValueError(f"query text must be a string, got {query_text!r}")
    words = query_text.split()
    for w in words:
        if w in _RESERVED:
            raise ValueError(f"query text may not contain reserved token {w!r}")
    return words


def prompt_windows(
    user: UserSid,
    query_text: str,
    query_sid: str,
    recent_queries: Sequence[str],
    windows: Iterable[Sequence[str]],
) -> list[list[str]]:
    """One prompt per short-click window; SIDs come already rendered.

    Layout: ``[BOS] user [SEP] query-text [SEP] query-sid [SEP] q> ...
    [SEP] i> ... [EOS]``. Empty history segments are dropped together with
    their separator, so separators never stack; the ``q>``/``i>`` tags keep
    the parse unambiguous when only one history segment is present. SIDs
    are single comma-joined tokens. The head up to the window is built once.
    """
    words = query_words(query_text)
    head = [BOS, ",".join(map(str, user.short_part)), ",".join(map(str, user.long_part)),
            SEP, *words, SEP, query_sid]
    if recent_queries:
        head += [SEP, RECENT_QUERIES_TAG, *recent_queries]
    return [head + [SEP, SHORT_CLICKS_TAG, *window, EOS] if window else head + [EOS]
            for window in windows]


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
    segments: list[list[str]] = []
    start = 1
    for _ in range(tokens.count(SEP)):
        end = tokens.index(SEP, start)
        segments.append(tokens[start:end])
        start = end + 1
    segments.append(tokens[start:-1])
    if len(segments) < 3:
        raise ValueError(f"expected at least 3 segments, got {len(segments)}")
    user_seg = segments[0]
    if len(user_seg) != 2:
        raise ValueError("user segment must hold exactly two code groups")
    if scheme.length == 5:  # user_parts clips each group to the scheme, so it reads as a SID
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
    recent: tuple[Sid, ...] = ()
    clicks: tuple[Sid, ...] = ()
    for seg in segments[3:]:
        if not seg:
            raise ValueError("empty segment between separators")
        tag, rest = seg[0], seg[1:]
        if tag == RECENT_QUERIES_TAG:
            recent = tuple(map(scheme.parse, rest))
        elif tag == SHORT_CLICKS_TAG:
            clicks = tuple(map(scheme.parse, rest))
        else:
            raise ValueError(f"unknown history segment tag {tag!r}")
    return ParsedPrompt(UserSid(short_part, long_part), query_text, query_sid, recent, clicks)
