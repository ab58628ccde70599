"""Embedding catalogs, keyword-enhanced composition, and pair filtering.

Catalog file format: a ``dim=<d>`` header line followed by
``id<TAB>base64(little-endian f32 vector)`` records. Vectors are stored
bit-exactly; catalogs are immutable after load.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._records import read_records

# The 18 structured attribute classes recognised by the keyword matcher.
NER_ATTRIBUTES = (
    "Entity", "Modifier", "Brand", "Material", "Style", "Function",
    "Location", "Audience", "Color", "Marketing", "Season", "Pattern",
    "Scene", "Specifications", "Price", "Model", "Anchor", "Series",
)

PAIR_KINDS = ("q2q", "i2i", "q2i")


@dataclass(frozen=True)
class Embedding:
    id: str
    vector: np.ndarray

    def __post_init__(self) -> None:
        vec = np.asarray(self.vector, dtype=np.float64)
        if vec.ndim != 1 or vec.size == 0:
            raise ValueError(f"embedding {self.id!r} must be a nonempty 1-D vector")
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"embedding {self.id!r} contains non-finite values")
        object.__setattr__(self, "vector", vec)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


@dataclass(frozen=True)
class KeywordSet:
    """Core keywords attached to one query or item."""

    owner_id: str
    keyword_embeddings: tuple[Embedding, ...] = ()
    attribute_tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "keyword_embeddings", tuple(self.keyword_embeddings))
        object.__setattr__(self, "attribute_tags", tuple(self.attribute_tags))
        for tag in self.attribute_tags:
            if tag not in NER_ATTRIBUTES:
                raise ValueError(f"unknown attribute tag {tag!r}")


@dataclass(frozen=True)
class PairRecord:
    left_id: str
    right_id: str
    pair_kind: str
    cosine: float

    def __post_init__(self) -> None:
        if self.pair_kind not in PAIR_KINDS:
            raise ValueError(f"pair_kind must be one of {PAIR_KINDS}, got {self.pair_kind!r}")
        if not -1.0 - 1e-9 <= self.cosine <= 1.0 + 1e-9:
            raise ValueError(f"cosine {self.cosine} outside [-1, 1]")


class Catalog:
    """Fixed-dimension embedding table keyed by id; immutable after build."""

    def __init__(self, ids: Sequence[str], matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] == 0:
            raise ValueError("catalog matrix must be 2-D with d > 0")
        if len(ids) != matrix.shape[0]:
            raise ValueError("id count does not match row count")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("catalog contains non-finite values")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate ids in catalog")
        self.ids = list(ids)
        self.matrix = matrix
        self._row = {item_id: i for i, item_id in enumerate(self.ids)}

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self._row

    def __getitem__(self, item_id: str) -> Embedding:
        return Embedding(item_id, self.matrix[self._row[item_id]])

    def __iter__(self) -> Iterator[Embedding]:
        for item_id in self.ids:
            yield self[item_id]


def compose_enhanced(base: Embedding, keywords: KeywordSet) -> Embedding:
    """Average the keyword vectors into the base representation.

    Returns ``0.5 * (base + mean(keywords))``; with no keywords the base
    passes through unchanged so that absent keywords never move an item.
    """
    if not keywords.keyword_embeddings:
        return base
    for kw in keywords.keyword_embeddings:
        if kw.dim != base.dim:
            raise ValueError(
                f"keyword {kw.id!r} has dim {kw.dim}, base {base.id!r} has dim {base.dim}"
            )
    mean = np.mean([kw.vector for kw in keywords.keyword_embeddings], axis=0)
    return Embedding(base.id, 0.5 * (base.vector + mean))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine over the raw vectors; callers wanting unit inputs normalize first."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    denom = float(np.linalg.norm(u) * np.linalg.norm(v))
    if denom == 0.0:
        raise ValueError("cosine undefined for zero-norm vector")
    return float(np.dot(u, v) / denom)


def make_pair(left: Embedding, right: Embedding, pair_kind: str) -> PairRecord:
    return PairRecord(left.id, right.id, pair_kind, cosine(left.vector, right.vector))


def cosine_filter(pairs: Sequence[PairRecord], threshold: float) -> list[PairRecord]:
    """Keep exactly the pairs with cosine strictly above the threshold."""
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"threshold {threshold} outside [-1, 1]")
    return [p for p in pairs if p.cosine > threshold]


def match_keywords(text: str, lexicon: Mapping[str, Sequence[str]]) -> list[tuple[str, str]]:
    """Scan ``text`` for lexicon keywords by exact substring containment.

    Returns (attribute, keyword) pairs deduplicated by keyword, in lexicon
    order (attribute insertion order, then per-attribute keyword order).
    """
    seen: set[str] = set()
    matches: list[tuple[str, str]] = []
    for attribute, words in lexicon.items():
        for word in words:
            if not word:
                raise ValueError(f"empty keyword under attribute {attribute!r}")
            if word in text and word not in seen:
                seen.add(word)
                matches.append((attribute, word))
    return matches


def save_catalog(catalog: Catalog, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"dim={catalog.dim}\n")
        for i, item_id in enumerate(catalog.ids):
            blob = catalog.matrix[i].astype("<f4").tobytes()
            f.write(f"{item_id}\t{base64.b64encode(blob).decode('ascii')}\n")


def load_catalog(path: str | Path) -> Catalog:
    dim = 0

    def read_dim(line: str) -> None:
        nonlocal dim
        text = line.strip()
        dim = int(text[len("dim="):]) if text.startswith("dim=") else 0
        if dim <= 0:
            raise ValueError(f"expected a dim=<positive int> header, got {text!r}")

    def row(item_id: str, blob: str) -> tuple[str, bytes]:
        raw = base64.b64decode(blob, validate=True)
        if len(raw) != 4 * dim:
            raise ValueError(f"vector has {len(raw)} bytes, expected {4 * dim} for dim {dim}")
        return item_id, raw

    rows = read_records(path, row, fields=2, header=read_dim)
    if not rows:
        raise ValueError(f"{path}: catalog is empty")
    ids, raws = zip(*rows)
    matrix = np.frombuffer(b"".join(raws), dtype="<f4").reshape(len(raws), dim)
    try:
        return Catalog(list(ids), matrix.astype(np.float64))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_pairs(pairs: Iterable[PairRecord], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for p in pairs:
            f.write(f"{p.left_id}\t{p.right_id}\t{p.pair_kind}\t{p.cosine!r}\n")


def read_pairs(path: str | Path) -> list[PairRecord]:
    return read_records(path, lambda left, right, kind, cos:
                        PairRecord(left, right, kind, float(cos)), fields=4)
