"""Beam generation over code sequences with a pluggable scorer.

A scorer is anything with ``score(context, prefix, digit) -> float``
returning a finite log-score. The shipped co-occurrence scorer estimates
smoothed digit frequencies conditioned on the query's first code digit
and the previous target digit, so the pipeline runs end to end without a
neural decoder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

from ._records import read_json
from .identity import parse_prompt
from .reward import rscore
from .sids import Sid, SidCatalog, SidScheme

DEFAULT_BEAM = 512


class Scorer(Protocol):
    def score(self, context, prefix: tuple[int, ...], digit: int) -> float: ...


class UniformScorer:
    """Scores every digit identically; beam output falls back to tie-break order."""

    def score(self, context, prefix: tuple[int, ...], digit: int) -> float:
        return 0.0


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
        node = self.root
        for d in digits:
            node = node.children.get(d)
            if node is None:
                return False
        return bool(node.item_ids)

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

    beams: list[tuple[tuple[int, ...], float]] = [((), 0.0)]
    for step in range(length):
        candidates: list[tuple[tuple[int, ...], float]] = []
        for prefix, acc in beams:
            if constrained:
                node = trie.root
                for d in prefix:
                    node = node.children[d]
                digits = sorted(node.children)
            else:
                digits = range(scheme.sizes[step])
            for d in digits:
                s = scorer.score(context, prefix, d)
                if not math.isfinite(s):
                    raise ValueError(f"scorer returned non-finite score {s} for digit {d}")
                candidates.append((prefix + (d,), acc + s))
        if not candidates:
            return []
        candidates.sort(key=lambda c: (-c[1], c[0]))
        beams = candidates[:beam]

    n_rq = len(scheme.rq_sizes)
    hits = []
    for digits, score in beams:
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
        self._ctx_memo: tuple[object, int] = (object(), 0)  # (last context, its digit)

    def _context_digit(self, context) -> int:
        if self._ctx_memo[0] is context:
            return self._ctx_memo[1]
        if isinstance(context, list):  # the caller may change a list: key on a snapshot
            context = tuple(context)
            if self._ctx_memo[0] == context:
                return self._ctx_memo[1]
        if isinstance(context, Sid):
            digit = context.rq[0]
        elif isinstance(context, tuple) and context and isinstance(context[0], int):
            digit = int(context[0])
        elif isinstance(context, tuple) and context and isinstance(context[0], str):
            digit = parse_prompt(context, self.scheme).query_sid.rq[0]
        else:
            raise ValueError(f"cannot extract a query digit from context {context!r}")
        self._ctx_memo = (context, digit)
        return digit

    def observe(self, query_sid: Sid, target_sid: Sid) -> None:
        q1 = query_sid.rq[0]
        digits = self.scheme.validate(target_sid).digits
        prev = -1
        for pos, d in enumerate(digits):
            slot = self.counts.setdefault((pos, q1, prev), {})
            slot[d] = slot.get(d, 0) + 1
            prev = d

    def score(self, context, prefix: tuple[int, ...], digit: int) -> float:
        pos = len(prefix)
        if pos >= self.scheme.length:
            raise ValueError(f"prefix length {pos} outside scheme of length {self.scheme.length}")
        vocab = self.scheme.sizes[pos]
        if not 0 <= digit < vocab:
            raise ValueError(f"digit {digit} outside [0, {vocab}) at position {pos}")
        q1 = self._context_digit(context)
        prev = prefix[-1] if prefix else -1
        slot = self.counts.get((pos, q1, prev), {})
        total = sum(slot.values())
        return math.log((slot.get(digit, 0) + 1) / (total + vocab))

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
            for key, count in counts.items():
                pos, q1, prev, digit = (int(x) for x in key.split(","))
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
