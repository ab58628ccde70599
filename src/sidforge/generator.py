"""Beam generation over code sequences with a pluggable scorer.

A scorer's ``score_step(context, prefixes, vocab)`` maps the ``(B, step)``
int array of live beam prefixes to the ``(B, vocab)`` finite log-scores of
each beam's next digit: one call per beam step. The shipped co-occurrence
scorer estimates smoothed digit frequencies conditioned on the query's first
code digit and the previous target digit, so no neural decoder is needed.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Protocol

import numpy as np

from ._records import read_json, write_records
from .identity import parse_prompt
from .reward import rscore
from .sids import Sid, SidCatalog, SidScheme

DEFAULT_BEAM = 512


class Scorer(Protocol):
    """``score_step`` must be a pure function of its arguments: equal
    contexts and prefixes give equal rows, which lets ``run_eval`` search
    each distinct context once."""

    def score_step(self, context, prefixes: np.ndarray, vocab: int) -> np.ndarray: ...


class UniformScorer:
    """Scores every digit identically; beam output falls back to tie-break order."""

    def score_step(self, context, prefixes: np.ndarray, vocab: int) -> np.ndarray:
        return np.zeros((len(prefixes), vocab))


class _TrieNode:
    __slots__ = ("children", "item_ids")

    def __init__(self) -> None:
        self.children: dict[int, "_TrieNode"] = {}
        self.item_ids: list[str] = []


class SidTrie:
    """Prefix tree over catalog code tuples; terminals carry item ids. Children
    and terminal ids are in ascending order, so readers never sort.
    ``terminals`` maps each distinct full SID to its terminal's ``item_ids``."""

    def __init__(self, scheme: SidScheme):
        self.scheme = scheme
        self.root = _TrieNode()
        self.size = 0
        self.terminals: dict[tuple[int, ...], list[str]] = {}

    def contains(self, digits: tuple[int, ...]) -> bool:
        return tuple(digits) in self.terminals

    def items_at(self, digits: tuple[int, ...]) -> list[str]:
        return list(self.terminals.get(tuple(digits), ()))


def build_trie(sid_catalog: SidCatalog) -> SidTrie:
    """Trie of exactly the catalog's SIDs, laid out from one sort of
    ``(digits, id)``; duplicates share a path and a terminal entry."""
    trie = SidTrie(sid_catalog.scheme)
    for digits, item_id in sorted((sid.digits, item_id) for item_id, sid in sid_catalog):
        item_ids = trie.terminals.get(digits)
        if item_ids is None:
            node = trie.root
            for d in digits:
                node = node.children.setdefault(d, _TrieNode())
            item_ids = trie.terminals[digits] = node.item_ids
        item_ids.append(item_id)
    trie.size = len(sid_catalog)
    return trie


@dataclass(frozen=True)
class BeamHit:
    sid: Sid
    score: float
    in_catalog: bool | None = None   # None when no trie was available to check


class BeamHits(Sequence):
    """``beam_search``'s hits, best first, as arrays: ``digits`` the ``(B, L)``
    int64 codes, ``scores`` the ``(B,)`` float64 summed log-scores and
    ``in_catalog`` a ``(B,)`` bool array, or None when no trie was given.
    It reads as the list of :class:`BeamHit` values, which are built from
    the arrays each time an element is read; a slice is a ``BeamHits``."""

    def __init__(self, digits: np.ndarray, scores: np.ndarray,
                 in_catalog: np.ndarray | None, n_rq: int):
        self.digits, self.scores, self.in_catalog = digits, scores, in_catalog
        self._n_rq = n_rq  # leading digits that form a hit's ``sid.rq``

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, index):
        if isinstance(index, slice):
            flags = None if self.in_catalog is None else self.in_catalog[index]
            return BeamHits(self.digits[index], self.scores[index], flags, self._n_rq)
        i = range(len(self))[index]
        return next(iter(self[i:i + 1]))

    def __iter__(self) -> Iterator[BeamHit]:
        columns = self.digits.T.tolist()  # one list per position
        rq = zip(*columns[:self._n_rq])
        opq = zip(*columns[self._n_rq:]) if self._n_rq < len(columns) else itertools.repeat(())
        sids = map(Sid, rq, opq)
        flags = itertools.repeat(None) if self.in_catalog is None else self.in_catalog.tolist()
        return map(BeamHit, sids, self.scores.tolist(), flags)

    def __eq__(self, other) -> bool:
        if isinstance(other, (list, tuple, BeamHits)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


def beam_search(
    context,
    scorer: Scorer,
    beam: int = DEFAULT_BEAM,
    trie: SidTrie | None = None,
    scheme: SidScheme | None = None,
    constrained: bool = True,
) -> BeamHits:
    """Length-L beam expansion by summed log-scores.

    Constrained mode expands only trie continuations, so every result is a
    catalog SID. Unconstrained mode expands the full per-position
    vocabulary and, when a trie is supplied, flags each terminal with
    catalog membership instead of dropping misses. Ties break by digit
    order, lowest first.
    """
    if beam < 1:
        raise ValueError(f"beam must be >= 1, got {beam}")
    if constrained:
        if trie is None:
            raise ValueError("constrained search requires a trie")
        scheme = trie.scheme
    else:
        if scheme is None:
            if trie is None:
                raise ValueError("unconstrained search requires a scheme or a trie")
            scheme = trie.scheme
    length = scheme.length

    # live beams stay in digit order, so a cut that keeps the lowest index
    # among equal scores breaks ties by digits
    prefixes, acc = np.zeros((1, 0), dtype=np.int64), np.zeros(1)
    nodes = [trie.root] if constrained else []  # each live beam's trie node
    for step in range(length):
        vocab = scheme.sizes[step]
        rows = np.asarray(scorer.score_step(context, prefixes, vocab), dtype=float)
        if rows.shape != (len(prefixes), vocab) or not np.isfinite(rows).all():
            raise ValueError(f"step {step}: scorer must return finite scores of shape "
                             f"{(len(prefixes), vocab)}, got shape {rows.shape}")
        if constrained:
            parent = np.repeat(np.arange(len(nodes)), [len(node.children) for node in nodes])
            digit = np.array([d for node in nodes for d in node.children], dtype=np.int64)
            scores = acc[parent] + rows[parent, digit]
        else:  # every (parent, digit) in row-major order
            scores = (acc[:, None] + rows).ravel()
        keep = _best(scores, beam)
        parent, digit = (parent[keep], digit[keep]) if constrained else np.divmod(keep, vocab)
        prefixes, acc = np.column_stack((prefixes[parent], digit)), scores[keep]
        if constrained:
            nodes = [nodes[p].children[d] for p, d in zip(parent.tolist(), digit.tolist())]

    order = np.argsort(-acc, kind="stable")
    digits, scores = prefixes[order], acc[order]
    if constrained:
        in_catalog: np.ndarray | None = np.ones(len(scores), dtype=bool)
    elif trie is not None:
        in_catalog = np.fromiter(map(trie.terminals.__contains__, map(tuple, digits.tolist())),
                                 dtype=bool, count=len(scores))
    else:
        in_catalog = None
    return BeamHits(digits, scores, in_catalog, len(scheme.rq_sizes))


def _best(scores: np.ndarray, beam: int) -> np.ndarray:
    """Ascending indices of the ``beam`` highest ``scores``, equal scores kept
    lowest index first: ``np.sort(np.argsort(-scores, kind="stable")[:beam])``
    from one partition instead of a full sort."""
    n = len(scores)
    if n <= beam:
        return np.arange(n)
    threshold = np.partition(scores, n - beam)[n - beam]
    keep = scores > threshold
    tied = np.flatnonzero(scores == threshold)
    keep[tied[:beam - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


class CooccurrenceScorer:
    """Add-1 smoothed digit model P(digit_k | query level-1 digit, previous digit)."""

    def __init__(self, scheme: SidScheme):
        self.scheme = scheme
        self._set_counts({})
        # the last token-list context and its query digit: every step of a
        # search passes the same prompt, which is walked once
        self._prompt_digit: tuple[tuple[str, ...] | None, int] = (None, 0)

    @property
    def counts(self) -> Mapping[tuple[int, int, int], Mapping[int, int]]:
        """Read-only ``counts[(position, query_digit, previous_digit)][digit]``."""
        return self._counts

    def _set_counts(self, counts: dict[tuple[int, int, int], dict[int, int]]) -> None:
        """The one place counts are set: they are frozen, and each slot's
        log-scores are computed once, ``(log(1/total), digits, their logs)``,
        by the per-digit formula so every bit is kept."""
        self._counts = MappingProxyType({key: MappingProxyType(slot)
                                         for key, slot in counts.items()})
        sizes = self.scheme.sizes
        self._uniform = [(math.log(1 / vocab), np.zeros(0, dtype=np.int64), np.zeros(0))
                         for vocab in sizes]
        self._slots = {}
        for key, slot in counts.items():
            total = sum(slot.values()) + sizes[key[0]]
            self._slots[key] = (math.log(1 / total), np.array(list(slot), dtype=np.int64),
                                np.array([math.log((count + 1) / total)
                                          for count in slot.values()]))

    def _context_digit(self, context) -> int:
        if isinstance(context, Sid):
            return context.rq[0]
        if isinstance(context, (tuple, list)) and context and isinstance(context[0], int):
            return int(context[0])
        if isinstance(context, (tuple, list)) and context and isinstance(context[0], str):
            tokens = tuple(context)
            if tokens != self._prompt_digit[0]:
                self._prompt_digit = (tokens, parse_prompt(tokens, self.scheme).query_sid.rq[0])
            return self._prompt_digit[1]
        raise ValueError(f"cannot extract a query digit from context {context!r}")

    def score_step(self, context, prefixes: np.ndarray, vocab: int) -> np.ndarray:
        pos = prefixes.shape[1]
        if self.scheme.sizes[pos:pos + 1] != (vocab,):
            raise ValueError(f"no position {pos} of {vocab} codes in scheme {self.scheme.sizes}")
        q1 = self._context_digit(context)
        slots, inverse = np.unique(prefixes[:, -1] if pos else np.full(len(prefixes), -1),
                                   return_inverse=True)
        rows = np.empty((len(slots), vocab))
        uniform = self._uniform[pos]  # an unseen slot: add-1 over zero counts
        for row, prev in zip(rows, slots.tolist()):
            base, digits, logs = self._slots.get((pos, q1, prev), uniform)
            row.fill(base)
            row[digits] = logs
        return rows[inverse]

    def save(self, path: str | Path) -> None:
        payload = {
            "rq_sizes": list(self.scheme.rq_sizes),
            "opq_sizes": list(self.scheme.opq_sizes),
            "counts": {
                f"{pos},{q1},{prev},{digit}": count
                for (pos, q1, prev), slot in self.counts.items()
                for digit, count in slot.items()
            },
        }
        write_records(path, [payload], jsonl=True)

    @classmethod
    def load(cls, path: str | Path) -> "CooccurrenceScorer":
        def parse(payload: dict) -> "CooccurrenceScorer":
            for name in ("rq_sizes", "opq_sizes"):
                if not (isinstance(payload[name], list)
                        and all(type(w) is int and w > 0 for w in payload[name])):
                    raise ValueError(f"{name} must be a list of positive integers, "
                                     f"got {payload[name]!r}")
            scorer = cls(SidScheme(tuple(payload["rq_sizes"]), tuple(payload["opq_sizes"])))
            counts = payload["counts"]
            if not isinstance(counts, dict):
                raise ValueError("counts must be a JSON object")
            sizes = scorer.scheme.sizes
            slots: dict[tuple[int, int, int], dict[int, int]] = {}
            for key, count in counts.items():
                pos, q1, prev, digit = (int(x) for x in key.split(","))
                if key != f"{pos},{q1},{prev},{digit}":
                    raise ValueError(f"count key {key!r} is not in canonical form")
                if not (0 <= pos < len(sizes) and 0 <= q1 < sizes[0] and 0 <= digit < sizes[pos]
                        and (prev == -1 if pos == 0 else 0 <= prev < sizes[pos - 1])):
                    raise ValueError(f"count key {key!r} is outside the scheme {sizes}")
                if type(count) is not int or count < 0:  # bool is an int subclass
                    raise ValueError(f"count {count!r} for {key!r} is not a non-negative integer")
                slots.setdefault((pos, q1, prev), {})[digit] = count
            scorer._set_counts(slots)
            return scorer

        return read_json(path, parse)


def cooccurrence_fit(records: Iterable[tuple[Sid, Sid]] | np.ndarray,
                     scheme: SidScheme) -> CooccurrenceScorer:
    """Fit the frequency scorer from ``(query_sid, target_sid)`` pairs, or
    from an ``(n, 1 + L)`` int array whose rows hold a query's first digit
    and then its target's digits: :func:`cooccurrence_fit_blocks` of one
    block. Each distinct target SID is validated once, in first-seen order.
    """
    if not isinstance(records, np.ndarray):
        records = list(records)
        for target in dict.fromkeys(target for _, target in records):
            scheme.validate(target)
        records = np.array([(query.rq[0], *target.digits) for query, target in records],
                           dtype=np.int64)
    return cooccurrence_fit_blocks([records], scheme)


def cooccurrence_fit_blocks(blocks: Iterable[np.ndarray], scheme: SidScheme) -> CooccurrenceScorer:
    """Fit the frequency scorer from blocks of ``(m, 1 + L)`` int code rows,
    as :func:`cooccurrence_fit` reads one array, holding one block at a time.

    Each block's positions are counted with one ``np.unique`` over packed
    ``(query digit, previous digit, digit)`` keys, and the integer counts
    add up across blocks, so any split of the rows gives the same scorer.
    """
    slots: dict[tuple[int, int, int], dict[int, int]] = {}
    if not sum(_count_codes(codes, scheme, slots) for codes in blocks):
        raise ValueError("cannot fit a co-occurrence scorer on zero records")
    scorer = CooccurrenceScorer(scheme)
    scorer._set_counts(slots)
    return scorer


def _count_codes(codes: np.ndarray, scheme: SidScheme,
                 slots: dict[tuple[int, int, int], dict[int, int]]) -> int:
    """Add the digit counts of the code rows ``codes`` to ``slots``; the
    number of rows. Rows outside the scheme raise ``ValueError``."""
    if codes.size == 0:
        return 0
    if codes.shape[1:] != (1 + scheme.length,) or codes.dtype.kind not in "iu":
        raise ValueError(f"expected an (n, {1 + scheme.length}) int array, "
                         f"got {codes.dtype} of shape {codes.shape}")
    codes = codes.astype(np.int64, copy=False)
    q1 = codes[:, 0]
    outside = (q1 < 0) | (q1 >= scheme.rq_sizes[0])
    if outside.any():
        raise ValueError(f"query digit {q1[outside][0]} outside [0, {scheme.rq_sizes[0]})")
    sizes = np.array(scheme.sizes)
    outside = (codes[:, 1:] < 0) | (codes[:, 1:] >= sizes)
    if outside.any():
        row, pos = np.argwhere(outside)[0]
        raise ValueError(f"code {codes[row, 1 + pos]} at position {pos} "
                         f"outside [0, {sizes[pos]})")
    prev, prev_slots = np.full(len(codes), -1, dtype=np.int64), 1
    for pos, vocab in enumerate(scheme.sizes):
        digit = codes[:, 1 + pos]
        keys, counts = np.unique((q1 * prev_slots + prev + 1) * vocab + digit,
                                 return_counts=True)
        for slot, d, count in zip((keys // vocab).tolist(), (keys % vocab).tolist(),
                                  counts.tolist()):
            q, p = divmod(slot, prev_slots)
            counted = slots.setdefault((pos, q, p - 1), {})
            counted[d] = counted.get(d, 0) + count
        prev, prev_slots = digit, vocab + 1
    return len(codes)


def rerank_with_rscore(
    candidates: Sequence[str],
    component_scores: Mapping[str, Sequence[float]],
    lambdas: Sequence[float] = (1.0, 1.0, 1.0, 1.0),
) -> list[tuple[str, float]]:
    """Stable rerank of candidates by fused reward score, best first."""
    scored = []
    for cand in candidates:
        if cand not in component_scores:
            raise ValueError(f"missing component scores for candidate {cand!r}")
        ctr, cvr, ctcvr, s_rel = component_scores[cand]
        scored.append((cand, rscore(ctr, cvr, ctcvr, s_rel, lambdas)))
    # sorted() is stable: equal scores keep input order
    return sorted(scored, key=lambda t: -t[1])
