"""Beam generation over code sequences with a pluggable scorer.

A scorer's ``score_step(context, prefixes, vocab)`` maps the ``(B, step)``
int array of live beam prefixes to the ``(B, vocab)`` finite log-scores of
each beam's next digit: one call per beam step. The shipped co-occurrence
scorer estimates smoothed digit frequencies conditioned on the query's first
code digit and the previous target digit, so no neural decoder is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

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
    and terminal ids are in ascending order, so readers never sort."""

    def __init__(self, scheme: SidScheme):
        self.scheme = scheme
        self.root = _TrieNode()
        self.size = 0

    def contains(self, digits: tuple[int, ...]) -> bool:
        return bool(self.items_at(digits))

    def items_at(self, digits: tuple[int, ...]) -> list[str]:
        node = self.root
        for d in digits:
            node = node.children.get(d)
            if node is None:
                return []
        return list(node.item_ids)


def build_trie(sid_catalog: SidCatalog) -> SidTrie:
    """Trie of exactly the catalog's SIDs, laid out from one sort of
    ``(digits, id)``; duplicates share a path."""
    trie = SidTrie(sid_catalog.scheme)
    for digits, item_id in sorted((sid.digits, item_id) for item_id, sid in sid_catalog):
        node = trie.root
        for d in digits:
            node = node.children.setdefault(d, _TrieNode())
        node.item_ids.append(item_id)
    trie.size = len(sid_catalog)
    return trie


@dataclass(frozen=True)
class BeamHit:
    sid: Sid
    score: float
    in_catalog: bool | None = None   # None when no trie was available to check


def beam_search(
    context,
    scorer: Scorer,
    beam: int = DEFAULT_BEAM,
    trie: SidTrie | None = None,
    scheme: SidScheme | None = None,
    constrained: bool = True,
) -> list[BeamHit]:
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

    # live beams stay in digit order, so a stable sort on -score is (-score, digits)
    prefixes, acc = np.zeros((1, 0), dtype=np.int64), np.zeros(1)
    nodes = [trie.root] if constrained else []  # each live beam's trie node
    for step in range(length):
        vocab = scheme.sizes[step]
        if constrained:
            parent = np.repeat(np.arange(len(nodes)), [len(node.children) for node in nodes])
            digit = np.array([d for node in nodes for d in node.children], dtype=np.int64)
        else:
            parent, digit = np.divmod(np.arange(len(prefixes) * vocab), vocab)
        rows = np.asarray(scorer.score_step(context, prefixes, vocab), dtype=float)
        if rows.shape != (len(prefixes), vocab) or not np.isfinite(rows).all():
            raise ValueError(f"step {step}: scorer must return finite scores of shape "
                             f"{(len(prefixes), vocab)}, got shape {rows.shape}")
        scores = acc[parent] + rows[parent, digit]
        keep = np.sort(np.argsort(-scores, kind="stable")[:beam])
        parent, digit = parent[keep], digit[keep]
        prefixes, acc = np.column_stack((prefixes[parent], digit)), scores[keep]
        if constrained:
            nodes = [nodes[p].children[d] for p, d in zip(parent.tolist(), digit.tolist())]

    n_rq = len(scheme.rq_sizes)
    hits = []
    order = np.argsort(-acc, kind="stable")
    for digits, score in zip(map(tuple, prefixes[order].tolist()), acc[order].tolist()):
        sid = Sid(digits[:n_rq], digits[n_rq:])
        if constrained:
            in_catalog: bool | None = True
        else:
            in_catalog = trie.contains(digits) if trie is not None else None
        hits.append(BeamHit(sid, score, in_catalog))
    return hits


class CooccurrenceScorer:
    """Add-1 smoothed digit model P(digit_k | query level-1 digit, previous digit)."""

    def __init__(self, scheme: SidScheme):
        self.scheme = scheme
        # counts[(position, query_digit, previous_digit)][digit]
        self.counts: dict[tuple[int, int, int], dict[int, int]] = {}

    def _context_digit(self, context) -> int:
        if isinstance(context, Sid):
            return context.rq[0]
        if isinstance(context, (tuple, list)) and context and isinstance(context[0], int):
            return int(context[0])
        if isinstance(context, (tuple, list)) and context and isinstance(context[0], str):
            return parse_prompt(context, self.scheme).query_sid.rq[0]
        raise ValueError(f"cannot extract a query digit from context {context!r}")

    def score_step(self, context, prefixes: np.ndarray, vocab: int) -> np.ndarray:
        pos = prefixes.shape[1]
        if self.scheme.sizes[pos:pos + 1] != (vocab,):
            raise ValueError(f"no position {pos} of {vocab} codes in scheme {self.scheme.sizes}")
        q1 = self._context_digit(context)
        slots, inverse = np.unique(prefixes[:, -1] if pos else np.full(len(prefixes), -1),
                                   return_inverse=True)
        rows = np.empty((len(slots), vocab))
        for row, prev in zip(rows, slots.tolist()):
            slot = self.counts.get((pos, q1, prev), {})
            total = sum(slot.values()) + vocab
            row.fill(math.log(1 / total))
            for digit, count in slot.items():
                row[digit] = math.log((count + 1) / total)
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
            scorer = cls(SidScheme(tuple(payload["rq_sizes"]), tuple(payload["opq_sizes"])))
            counts = payload["counts"]
            if not isinstance(counts, dict):
                raise ValueError("counts must be a JSON object")
            sizes = scorer.scheme.sizes
            for key, count in counts.items():
                pos, q1, prev, digit = (int(x) for x in key.split(","))
                if key != f"{pos},{q1},{prev},{digit}":
                    raise ValueError(f"count key {key!r} is not in canonical form")
                if not (0 <= pos < len(sizes) and 0 <= q1 < sizes[0] and 0 <= digit < sizes[pos]
                        and (prev == -1 if pos == 0 else 0 <= prev < sizes[pos - 1])):
                    raise ValueError(f"count key {key!r} is outside the scheme {sizes}")
                if not isinstance(count, int) or count < 0:
                    raise ValueError(f"count {count!r} for {key!r} is not a non-negative integer")
                scorer.counts.setdefault((pos, q1, prev), {})[digit] = count
            return scorer

        return read_json(path, parse)


def cooccurrence_fit(records: Iterable[tuple[Sid, Sid]] | np.ndarray,
                     scheme: SidScheme) -> CooccurrenceScorer:
    """Fit the frequency scorer from ``(query_sid, target_sid)`` pairs, or
    from an ``(n, 1 + L)`` int array whose rows hold a query's first digit
    and then its target's digits.

    Each position is counted with one ``np.unique`` over packed
    ``(query digit, previous digit, digit)`` keys.
    """
    if not isinstance(records, np.ndarray):
        records = np.array([(query.rq[0], *scheme.validate(target).digits)
                            for query, target in records], dtype=np.int64)
    if records.size == 0:
        raise ValueError("cannot fit a co-occurrence scorer on zero records")
    if records.shape[1:] != (1 + scheme.length,) or records.dtype.kind not in "iu":
        raise ValueError(f"expected an (n, {1 + scheme.length}) int array, "
                         f"got {records.dtype} of shape {records.shape}")
    codes = records.astype(np.int64, copy=False)
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
    scorer = CooccurrenceScorer(scheme)
    prev, prev_slots = np.full(len(codes), -1, dtype=np.int64), 1
    for pos, vocab in enumerate(scheme.sizes):
        digit = codes[:, 1 + pos]
        keys, counts = np.unique((q1 * prev_slots + prev + 1) * vocab + digit,
                                 return_counts=True)
        for slot, d, count in zip((keys // vocab).tolist(), (keys % vocab).tolist(),
                                  counts.tolist()):
            q, p = divmod(slot, prev_slots)
            scorer.counts.setdefault((pos, q, p - 1), {})[d] = count
        prev, prev_slots = digit, vocab + 1
    return scorer


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
