"""Beam generation over code sequences with a pluggable scorer.

A scorer's ``score_step(context, prefixes, vocab)`` maps the ``(B, step)``
int array of live beam prefixes to the ``(B, vocab)`` finite log-scores of
each beam's next digit: one call per beam step. The shipped co-occurrence
scorer estimates smoothed digit frequencies conditioned on the query's first
code digit and the previous target digit, so no neural decoder is needed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from ._records import read_json
from .identity import parse_prompt
from .reward import rscore
from .sids import Sid, SidCatalog, SidScheme

DEFAULT_BEAM = 512


class Scorer(Protocol):
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
    """Prefix tree over catalog code tuples; terminals carry item ids."""

    def __init__(self, scheme: SidScheme):
        self.scheme = scheme
        self.root = _TrieNode()
        self.size = 0

    def insert(self, sid: Sid, item_id: str) -> None:
        digits = self.scheme.validate(sid).digits
        node = self.root
        for d in digits:
            node = node.children.setdefault(d, _TrieNode())
        node.item_ids.append(item_id)
        self.size += 1

    def contains(self, digits: tuple[int, ...]) -> bool:
        return bool(self.items_at(digits))

    def items_at(self, digits: tuple[int, ...]) -> list[str]:
        node = self.root
        for d in digits:
            node = node.children.get(d)
            if node is None:
                return []
        return sorted(node.item_ids)


def build_trie(sid_catalog: SidCatalog) -> SidTrie:
    """Trie containing exactly the catalog's SIDs; duplicates share a path."""
    trie = SidTrie(sid_catalog.scheme)
    lengths = {len(sid) for _, sid in sid_catalog}
    if len(lengths) > 1:
        raise ValueError(f"mixed SID lengths in catalog: {sorted(lengths)}")
    for item_id in sorted(sid_catalog.entries):
        trie.insert(sid_catalog.entries[item_id], item_id)
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
            kids = [sorted(node.children) for node in nodes]
            parent = np.repeat(np.arange(len(kids)), [len(k) for k in kids])
            digit = np.array([d for k in kids for d in k], dtype=np.int64)
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

    def observe(self, query_sid: Sid, target_sid: Sid) -> None:
        q1 = query_sid.rq[0]
        if not 0 <= q1 < self.scheme.rq_sizes[0]:
            raise ValueError(f"query digit {q1} outside [0, {self.scheme.rq_sizes[0]})")
        digits = self.scheme.validate(target_sid).digits
        prev = -1
        for pos, d in enumerate(digits):
            slot = self.counts.setdefault((pos, q1, prev), {})
            slot[d] = slot.get(d, 0) + 1
            prev = d

    def score_step(self, context, prefixes: np.ndarray, vocab: int) -> np.ndarray:
        pos = prefixes.shape[1]
        if self.scheme.sizes[pos:pos + 1] != (vocab,):
            raise ValueError(f"no position {pos} of {vocab} codes in scheme {self.scheme.sizes}")
        q1 = self._context_digit(context)
        rows = np.empty((len(prefixes), vocab))
        for row, prev in zip(rows, prefixes[:, -1].tolist() if pos else [-1] * len(rows)):
            slot = self.counts.get((pos, q1, prev), {})
            total = sum(slot.values()) + vocab
            row.fill(math.log(1 / total))
            for digit, count in slot.items():
                row[digit] = math.log((count + 1) / total)
        return rows

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
        Path(path).write_text(
            json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8"
        )

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
                if not (0 <= pos < len(sizes) and 0 <= q1 < sizes[0] and 0 <= digit < sizes[pos]
                        and (prev == -1 if pos == 0 else 0 <= prev < sizes[pos - 1])):
                    raise ValueError(f"count key {key!r} is outside the scheme {sizes}")
                if not isinstance(count, int) or count < 0:
                    raise ValueError(f"count {count!r} for {key!r} is not a non-negative integer")
                scorer.counts.setdefault((pos, q1, prev), {})[digit] = count
            return scorer

        return read_json(path, parse)


def cooccurrence_fit(records: Iterable, scheme: SidScheme) -> CooccurrenceScorer:
    """Fit the frequency scorer from personalization records or raw pairs.

    Accepts stage-3 ``TaskRecord`` objects (the query SID is recovered from
    the prompt, the target SID from the label) or plain
    ``(query_sid, target_sid)`` tuples.
    """
    scorer = CooccurrenceScorer(scheme)
    seen = 0
    for rec in records:
        if isinstance(rec, tuple) and len(rec) == 2 and isinstance(rec[0], Sid):
            query_sid, target_sid = rec
        else:
            tokens = list(rec.input_tokens)
            if tokens and tokens[0].startswith("<T"):
                tokens = tokens[1:]
            if tokens and tokens[-1].startswith("agg:"):
                tokens = tokens[:-1]
            parsed = parse_prompt(tokens, scheme)
            query_sid = parsed.query_sid
            target_sid = scheme.parse(rec.target_tokens[0])
        scorer.observe(query_sid, target_sid)
        seen += 1
    if seen == 0:
        raise ValueError("cannot fit a co-occurrence scorer on zero records")
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
