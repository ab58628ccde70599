"""Embedding catalogs, keyword-enhanced composition, and pair filtering.

Catalog file format: a ``dim=<d>`` header line followed by
``id<TAB>base64(little-endian f32 vector)`` records. Vectors are stored
bit-exactly; catalogs are immutable after load.
"""

from __future__ import annotations

import base64
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ._records import read_records, write_records

# The 18 structured attribute classes recognised by the keyword matcher.
NER_ATTRIBUTES = (
    "Entity", "Modifier", "Brand", "Material", "Style", "Function",
    "Location", "Audience", "Color", "Marketing", "Season", "Pattern",
    "Scene", "Specifications", "Price", "Model", "Anchor", "Series",
)

PAIR_KINDS = ("q2q", "i2i", "q2i")

# Entries beyond this magnitude are refused, so no arithmetic on accepted
# rows overflows float64 (max ~1.8e308). A product of two entries, or the
# square of a difference, is at most 4e200; a sum of at most 2^40 such terms
# (a squared norm or distance, a k-means++ weight total, a Procrustes product,
# a mean's sum) stays below ~4.4e212. A residual level at most doubles the
# largest entry (it subtracts a table entry or a mean of earlier residuals),
# and even 150 levels keep such sums below ~9e302; an orthonormal rotation
# keeps row norms. The Hamerly margin 4 (d + 3) eps (max ||p|| + max ||t||)^2
# is such a sum times a tiny factor. Float32 files (<= ~3.4e38) never reach it.
_MAX_ABS = 1e100
_MIN, _MAX = np.minimum.reduce, np.maximum.reduce
# A finite sum of squares below this bounds every entry by ~3.2e99 < _MAX_ABS,
# even after the dot product's rounding.
_MAX_SQUARES = 1e199


def float_rows(rows: np.ndarray, what: str, dim: int | None = None, *,
               empty: bool = False) -> np.ndarray:
    """``rows`` as a float64 ``(n, dim)`` array (any ``dim >= 1`` when None;
    zero rows only when ``empty``). A wrong shape, NaN or inf, or an entry
    beyond ``_MAX_ABS`` raises ``ValueError`` naming ``what`` and the first
    bad row. The common case, a C-contiguous array, costs one dot product of
    its flat view with itself; any other, one min and one max. Neither makes
    an (n, dim) temporary.
    """
    rows = np.asarray(rows, dtype=np.float64)
    n, d = rows.shape if rows.ndim == 2 else (0, 0)
    if not d or dim not in (None, d) or not (n or empty):
        raise ValueError(f"{what} must be {'an' if empty else 'a nonempty'} (n, dim) array "
                         f"with dim {dim or '>= 1'}, got shape {rows.shape}")
    if n and not (_bounded_squares(rows)
                  or -_MAX_ABS <= _MIN(rows, None) and _MAX(rows, None) <= _MAX_ABS):
        bad = int(np.argmin((np.abs(rows) <= _MAX_ABS).all(axis=1)))
        kind = f"value beyond {_MAX_ABS:g}" if np.isfinite(rows[bad]).all() else "non-finite value"
        raise ValueError(f"{what} row {bad} holds a {kind}")
    return rows


def _bounded_squares(rows: np.ndarray) -> bool:
    """Whether a C-contiguous ``rows`` has a sum of squares below ``_MAX_SQUARES``
    (False for NaN or inf, or for an array that is not C-contiguous)."""
    if not rows.flags.c_contiguous:
        return False
    flat = rows.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.dot(flat, flat) < _MAX_SQUARES)


def float32_rows(rows: np.ndarray, what: str) -> np.ndarray:
    """Finite ``rows`` as little-endian float32 for a file. An entry the cast
    would turn into inf (beyond ~3.4e38) raises ``ValueError`` naming ``what`` and its row."""
    with np.errstate(over="ignore"):
        out = rows.astype("<f4")
    if not np.isfinite(out).all():
        bad = int(np.argmin(np.isfinite(out).all(axis=1)))
        raise ValueError(f"{what} row {bad} holds a value beyond float32 range")
    return out


@dataclass(frozen=True, init=False, eq=False)
class Embedding:
    id: str
    vector: np.ndarray

    def __init__(self, id: str, vector: np.ndarray) -> None:
        rows = float_rows(np.asarray(vector)[None], f"embedding {id!r}")
        self.__dict__.update(id=id, vector=rows[0])  # frozen: __setattr__ refuses

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


@dataclass(frozen=True, eq=False)
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
        matrix = float_rows(matrix, "catalog", empty=True)
        if len(ids) != matrix.shape[0]:
            raise ValueError("id count does not match row count")
        self.ids = list(ids)
        self.matrix = matrix
        self._row = dict(zip(self.ids, range(len(self.ids))))
        if len(self._row) != len(self.ids):
            raise ValueError("duplicate ids in catalog")

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
            raise _dim_mismatch(kw.id, kw.dim, base.id, base.dim)
    stack = np.array([kw.vector for kw in keywords.keyword_embeddings])
    return Embedding(base.id, _composed(base.vector[None], stack[None])[0])


def _dim_mismatch(keyword_id: str, keyword_dim: int, base_id: str, base_dim: int) -> ValueError:
    return ValueError(f"keyword {keyword_id!r} has dim {keyword_dim}, "
                      f"base {base_id!r} has dim {base_dim}")


def _composed(bases: np.ndarray, keywords: np.ndarray) -> np.ndarray:
    """``0.5 * (base + mean(keywords))`` for ``(g, d)`` bases and their
    ``(g, m, d)`` keyword stacks. The sum along axis 1 adds in the order
    ``np.mean`` over one ``(m, d)`` stack does, bit for bit; ``np.add.reduceat``
    would not."""
    return 0.5 * (bases + np.add.reduce(keywords, axis=1) / keywords.shape[1])


def enhance_catalog(catalog: Catalog, keywords: Catalog) -> Catalog:
    """:func:`compose_enhanced` applied to every item of ``catalog``.

    A keyword row belongs to the item its id names before the first ``#``,
    and an item's keywords keep their order in ``keywords``. Rows whose owner
    is not in ``catalog`` are dropped; items without keyword rows pass
    through unchanged. Items with the same keyword count share one array
    pass, so no per-item object is built.
    """
    owners = np.array([catalog._row.get(kid.partition("#")[0], -1) for kid in keywords.ids],
                      dtype=np.int64)
    kept = np.flatnonzero(owners >= 0)
    order = kept[np.argsort(owners[kept], kind="stable")]  # grouped by item, file order within
    items, starts, counts = np.unique(owners[order], return_index=True, return_counts=True)
    if items.size and keywords.dim != catalog.dim:
        # the first item in catalog order that has keywords, and its first keyword
        raise _dim_mismatch(keywords.ids[order[0]], keywords.dim, catalog.ids[items[0]], catalog.dim)
    matrix = catalog.matrix.copy()
    for m in np.unique(counts).tolist():
        group = counts == m
        stacks = keywords.matrix[order[starts[group][:, None] + np.arange(m)]]
        matrix[items[group]] = _composed(matrix[items[group]], stacks)
    return Catalog(catalog.ids, matrix)


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
    rows = float32_rows(catalog.matrix, "catalog")
    blobs = (base64.b64encode(v.tobytes()).decode("ascii") for v in rows)
    write_records(path, itertools.chain([(f"dim={catalog.dim}",)], zip(catalog.ids, blobs)))


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


def write_pairs(pairs: Iterable[PairRecord], path: str | Path | None) -> None:
    """``left<TAB>right<TAB>kind<TAB>cosine`` lines; None writes to standard output."""
    write_records(path, ((p.left_id, p.right_id, p.pair_kind, repr(p.cosine)) for p in pairs))


def read_pairs(path: str | Path) -> list[PairRecord]:
    return read_records(path, lambda left, right, kind, cos:
                        PairRecord(left, right, kind, float(cos)), fields=4)
