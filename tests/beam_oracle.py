"""Reference decode path: ``beam_search``, the co-occurrence ``score_step``
and ``SidTrie.items_at`` as they were before the search ran on arrays, with a
full stable sort per step, one ``math.log`` per counted digit and a node walk
per lookup. Tests compare the library's decoder with these, hit for hit."""

from __future__ import annotations

import math

import numpy as np

from sidforge.generator import BeamHit
from sidforge.sids import Sid


def items_at(trie, digits) -> list[str]:
    node = trie.root
    for d in digits:
        node = node.children.get(d)
        if node is None:
            return []
    return list(node.item_ids)


def contains(trie, digits) -> bool:
    return bool(items_at(trie, digits))


class OracleCooccurrence:
    """The per-digit ``score_step`` over a ``CooccurrenceScorer``'s counts."""

    def __init__(self, scorer):
        self.scorer = scorer

    def score_step(self, context, prefixes: np.ndarray, vocab: int) -> np.ndarray:
        scheme, counts = self.scorer.scheme, self.scorer.counts
        pos = prefixes.shape[1]
        if scheme.sizes[pos:pos + 1] != (vocab,):
            raise ValueError(f"no position {pos} of {vocab} codes in scheme {scheme.sizes}")
        q1 = self.scorer._context_digit(context)
        slots, inverse = np.unique(prefixes[:, -1] if pos else np.full(len(prefixes), -1),
                                   return_inverse=True)
        rows = np.empty((len(slots), vocab))
        for row, prev in zip(rows, slots.tolist()):
            slot = counts.get((pos, q1, prev), {})
            total = sum(slot.values()) + vocab
            row.fill(math.log(1 / total))
            for digit, count in slot.items():
                row[digit] = math.log((count + 1) / total)
        return rows[inverse]


def beam_search(context, scorer, beam, trie=None, scheme=None, constrained=True):
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

    prefixes, acc = np.zeros((1, 0), dtype=np.int64), np.zeros(1)
    nodes = [trie.root] if constrained else []
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
            in_catalog = contains(trie, digits) if trie is not None else None
        hits.append(BeamHit(sid, score, in_catalog))
    return hits
