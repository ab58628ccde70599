"""Hierarchical residual codebooks with a product-quantized tail.

The fit pipeline: level 0 k-means on raw vectors, each later level on the
residuals of the previous one (optionally size-balanced on the last
level), then an orthonormal rotation plus per-subspace code tables fit on
the final residuals by alternating optimization. Encoding is greedy
nearest-centroid descent and is pure given a frozen codebook.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from ._records import read_json, replacing
from .embedding import Catalog, float32_rows, float_rows
from .kmeans import (BoundedNearest, _sq_row_sums, balanced_kmeans_fit, kmeans_fit, lloyd,
                     nearest_labels)
from .sids import Sid, SidScheme

_MAGIC = b"SIDF"
_VERSION = 1


@dataclass
class RqCodebook:
    levels: list[np.ndarray]               # level l: (W_l, d) centroid table
    level_sizes: tuple[int, ...]
    balanced_last: bool

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("need at least one level")
        if len(self.levels) != len(self.level_sizes):
            raise ValueError("level table count does not match level_sizes")
        self.levels = [float_rows(t, f"level {l + 1} table") for l, t in enumerate(self.levels)]
        for table, w in zip(self.levels, self.level_sizes):
            if table.shape != (w, self.dim):
                raise ValueError(f"level table has shape {table.shape}, expected {(w, self.dim)}")

    @property
    def dim(self) -> int:
        return self.levels[0].shape[1]


@dataclass
class OpqCodebook:
    rotation: np.ndarray                    # (d, d), orthonormal
    subspaces: list[np.ndarray]             # per subspace: (codes, d/#subspaces)

    def __post_init__(self) -> None:
        self.rotation = float_rows(self.rotation, "rotation", len(self.rotation))
        self.subspaces = [float_rows(t, f"subspace {s} table") for s, t in enumerate(self.subspaces)]
        err = float(np.max(np.abs(self.rotation.T @ self.rotation - np.eye(self.dim))))
        if err > 1e-5:
            raise ValueError(f"rotation not orthonormal (max deviation {err:.2e})")
        if sum(t.shape[1] for t in self.subspaces) != self.dim:
            raise ValueError("subspace dims do not sum to d")

    @property
    def dim(self) -> int:
        return self.rotation.shape[0]

    @property
    def code_sizes(self) -> tuple[int, ...]:
        return tuple(t.shape[0] for t in self.subspaces)


@dataclass
class RqOpqCodebook:
    rq: RqCodebook
    opq: OpqCodebook
    build_metadata: dict[str, Any] = field(default_factory=dict)
    # training-catalog codes from the fit assignments; the balanced level's
    # capacity constraint lives only here, greedy encode cannot reproduce it
    fit_sids: list[Sid] | None = None

    def __post_init__(self) -> None:
        if self.rq.dim != self.opq.dim:
            raise ValueError(f"rq dim {self.rq.dim} != opq dim {self.opq.dim}")

    @property
    def dim(self) -> int:
        return self.rq.dim

    @property
    def scheme(self) -> SidScheme:
        return SidScheme(self.rq.level_sizes, self.opq.code_sizes)


def rq_fit(
    catalog: Catalog | np.ndarray,
    level_sizes: Sequence[int],
    balanced_last: bool = True,
    iters: int = 25,
    seed: int = 0,
) -> tuple[RqCodebook, dict[str, Any]]:
    """Fit the residual hierarchy; returns the codebook and fit stats.

    Stats carry per-level mean squared residual norms (after subtracting
    that level) plus any oversized-level warnings.
    """
    codebook, stats, _, _ = _rq_fit_full(catalog, level_sizes, balanced_last, iters, seed)
    return codebook, stats


def _rq_fit_full(
    catalog: Catalog | np.ndarray,
    level_sizes: Sequence[int],
    balanced_last: bool,
    iters: int,
    seed: int,
) -> tuple[RqCodebook, dict[str, Any], np.ndarray, np.ndarray]:
    """rq_fit plus the per-level fit codes (n, L) and final fit residuals."""
    vectors = float_rows(catalog.matrix if isinstance(catalog, Catalog) else catalog, "catalog")
    level_sizes = tuple(int(w) for w in level_sizes)

    warnings: list[str] = []
    residual = vectors.copy()
    levels: list[np.ndarray] = []
    codes: list[np.ndarray] = []
    mean_sq_residual: list[float] = []
    for l, k in enumerate(level_sizes):
        if k > residual.shape[0]:
            warnings.append(f"level {l + 1} size {k} exceeds catalog size {residual.shape[0]}")
        last = l == len(level_sizes) - 1
        fit = balanced_kmeans_fit if (balanced_last and last) else kmeans_fit
        result = fit(residual, k, iters=iters, seed=seed + l)
        levels.append(result.centroids)
        codes.append(result.assignments)
        residual -= result.centroids[result.assignments]
        mean_sq_residual.append(float(np.mean(_sq_row_sums(residual))))

    stats = {
        "levels": list(level_sizes),
        "balanced_last": balanced_last,
        "iters": iters,
        "seed": seed,
        "mean_sq_residual_per_level": mean_sq_residual,
        "warnings": warnings,
    }
    rq = RqCodebook(levels, level_sizes, balanced_last)
    return rq, stats, np.stack(codes, axis=1), residual


def descend(
    levels: Sequence[np.ndarray], opq: OpqCodebook, vectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy nearest-centroid descent; every label is the exact argmin.

    Each table in ``levels`` codes the running residual and is subtracted
    from it; then each OPQ subspace table codes the final residual under its
    columns of the rotation, folded into the table (no rotated batch).
    Returns the (n, L + S) code array and the final hierarchy residual, which
    may be ``vectors`` itself when ``levels`` is empty.
    """
    # only a subtracted level needs a copy it may change in place
    residual = (np.array if len(levels) else np.asarray)(vectors, dtype=np.float64)
    cols = []
    for table in levels:
        codes = nearest_labels(residual, table)
        residual -= table[codes]
        cols.append(codes)
    offset = 0
    for table in opq.subspaces:
        dsub = table.shape[1]
        cols.append(nearest_labels(residual, table, opq.rotation[:, offset:offset + dsub]))
        offset += dsub
    return np.stack(cols, axis=1), residual


def _to_sids(codes: np.ndarray, n_rq: int) -> list[Sid]:
    return [Sid(tuple(row[:n_rq]), tuple(row[n_rq:])) for row in codes.tolist()]


def _warm_lloyd(points: np.ndarray, table: np.ndarray, iters: int) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd from ``table`` (an empty code keeps its centroid): the final table
    and each point's code under it, both from one ``BoundedNearest`` step."""
    step = BoundedNearest()
    for table, _ in lloyd(points, table, iters, step):
        pass
    return table, step(points, table)


def _mean_sq_error(X: np.ndarray, rotation: np.ndarray, Y: np.ndarray) -> float:
    """``np.mean(np.sum((X @ rotation - Y) ** 2, axis=1))`` in one (n, d) array."""
    err = X @ rotation
    err -= Y
    np.square(err, out=err)
    return float(np.mean(np.sum(err, axis=1)))


# Lloyd iterations of each warm round after the first, as FAISS's
# OPQMatrix.niter_pq: the tables start where the last round left them
_WARM_ITERS = 4


def opq_fit(
    residuals: np.ndarray,
    subspaces: int = 2,
    codes_per_subspace: int = 256,
    outer_iters: int = 10,
    seed: int = 0,
    kmeans_iters: int = 25,
) -> tuple[OpqCodebook, dict[str, Any]]:
    """Alternate per-subspace k-means with Procrustes rotation updates.

    ``outer_iters`` counts rotation updates; a final code fit always runs,
    so 0 gives plain product quantization under the identity rotation.
    ``kmeans_iters`` caps the seeded k-means of the first round; every
    later round warm-starts Lloyd from the last round's tables for at most
    ``min(kmeans_iters, _WARM_ITERS)`` iterations. Neither a Lloyd step nor
    a Procrustes step raises the reconstruction error, so it is
    non-increasing over outer iterations for any count of at least one.
    """
    X = float_rows(residuals, "residual")
    n, d = X.shape
    if subspaces < 1 or d % subspaces != 0:
        raise ValueError(f"d={d} not divisible by {subspaces} subspaces")
    dsub = d // subspaces

    rotation = np.eye(d)
    tables: list[np.ndarray] = []
    errors: list[float] = []
    for r in range(outer_iters + 1):
        codes = []
        for s in range(subspaces):
            # the full product, then a contiguous copy of its columns: no
            # rotated (n, d) array lives through the fits, and the GEMM is
            # the same call whatever the subspace
            b = np.ascontiguousarray((X @ rotation)[:, s * dsub:(s + 1) * dsub])
            if r == 0:
                tables.append(kmeans_fit(b, codes_per_subspace, iters=kmeans_iters,
                                         seed=seed + s).centroids)
                codes.append(nearest_labels(b, tables[s]))
            else:
                tables[s], labels = _warm_lloyd(b, tables[s], min(kmeans_iters, _WARM_ITERS))
                codes.append(labels)
            del b
        Y = np.concatenate([t[c] for t, c in zip(tables, codes)], axis=1)
        errors.append(_mean_sq_error(X, rotation, Y))
        if r == outer_iters:
            break  # the last pass fits the codes only
        # orthogonal Procrustes: rotation minimizing ||X R - Y||_F
        M = X.T @ Y
        del Y
        if float(np.abs(M).max()) > 0.0:
            U, _, Vt = np.linalg.svd(M)
            rotation = U @ Vt

    stats = {
        "subspaces": subspaces,
        "codes_per_subspace": codes_per_subspace,
        "outer_iters": outer_iters,
        "seed": seed,
        "mean_sq_error_per_outer_iter": errors,
    }
    return OpqCodebook(rotation, tables), stats


def fit_codebook(
    catalog: Catalog | np.ndarray,
    level_sizes: Sequence[int] = (4096, 1024, 512),
    balanced_last: bool = True,
    opq_subspaces: int = 2,
    opq_codes: int = 256,
    iters: int = 25,
    opq_outer_iters: int = 10,
    seed: int = 0,
) -> RqOpqCodebook:
    """Full RQ + residual-OPQ fit over one catalog.

    The returned codebook carries ``fit_sids``: the training catalog's
    codes taken from the fit assignments (row order preserved). For a
    balanced last level these reflect the capacity constraint, which a
    later greedy re-encode would not.
    """
    rq, rq_stats, rq_codes, fit_residuals = _rq_fit_full(
        catalog, level_sizes, balanced_last, iters=iters, seed=seed
    )
    opq, opq_stats = opq_fit(
        fit_residuals, opq_subspaces, opq_codes, outer_iters=opq_outer_iters, seed=seed
    )
    opq_codes, _ = descend((), opq, fit_residuals)
    fit_sids = _to_sids(np.concatenate([rq_codes, opq_codes], axis=1), len(rq.levels))
    meta = {
        "dim": int(fit_residuals.shape[1]),
        "n_fit_vectors": int(fit_residuals.shape[0]),
        "seed": seed,
        "rq": rq_stats,
        "opq": opq_stats,
    }
    return RqOpqCodebook(rq, opq, meta, fit_sids=fit_sids)


def encode(embedding: np.ndarray, codebook: RqOpqCodebook) -> Sid:
    """Greedy nearest-centroid descent; ties break to the lowest index."""
    return encode_batch(np.asarray(embedding)[None], codebook)[0]


def encode_batch(vectors: np.ndarray, codebook: RqOpqCodebook) -> list[Sid]:
    vecs = float_rows(vectors, "embedding", codebook.dim, empty=True)
    codes, _ = descend(codebook.rq.levels, codebook.opq, vecs)
    return _to_sids(codes, len(codebook.rq.levels))


def lookup_centroids(sid: Sid, codebook: RqOpqCodebook) -> list[np.ndarray]:
    """Per-level hierarchy centroids for a SID; product digits are excluded."""
    SidScheme(codebook.rq.level_sizes).validate(Sid(sid.rq))
    return [table[code].copy() for code, table in zip(sid.rq, codebook.rq.levels)]


def reconstruct(sid: Sid, codebook: RqOpqCodebook) -> np.ndarray:
    """Sum of hierarchy centroids plus the de-rotated product centroids."""
    codebook.scheme.validate(sid)
    vec = np.sum([table[code] for code, table in zip(sid.rq, codebook.rq.levels)], axis=0)
    parts = [table[code] for code, table in zip(sid.opq, codebook.opq.subspaces)]
    return vec + np.concatenate(parts) @ codebook.opq.rotation.T


def _codebook_bytes(codebook: RqOpqCodebook) -> bytes:
    """Versioned binary: magic, JSON config block, then f32 tables in order
    (hierarchy levels, rotation, subspace tables)."""
    config = {
        "dim": codebook.dim,
        "level_sizes": list(codebook.rq.level_sizes),
        "balanced_last": codebook.rq.balanced_last,
        "opq_code_sizes": list(codebook.opq.code_sizes),
    }
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tables = [float32_rows(t, f"level {l + 1} table") for l, t in enumerate(codebook.rq.levels)]
    tables.append(float32_rows(codebook.opq.rotation, "rotation"))
    tables += [float32_rows(t, f"subspace {s} table") for s, t in enumerate(codebook.opq.subspaces)]
    return b"".join([_MAGIC, struct.pack("<II", _VERSION, len(blob)), blob,
                     *(table.tobytes() for table in tables)])


def save_codebook(codebook: RqOpqCodebook, path: str | Path) -> None:
    """``_codebook_bytes`` at ``path``; the metadata plus the sha256 of those
    bytes (``codebook_sha256``) in a JSON sidecar at ``<path>.meta.json``."""
    path = Path(path)
    data = _codebook_bytes(codebook)
    with replacing(path, binary=True) as f:
        f.write(data)
    meta = {**codebook.build_metadata, "codebook_sha256": hashlib.sha256(data).hexdigest()}
    with replacing(path.with_name(path.name + ".meta.json")) as f:
        f.write(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def load_codebook(path: str | Path) -> RqOpqCodebook:
    """Read a codebook written by ``save_codebook``.

    A truncated, malformed or inconsistent file raises ``ValueError`` naming
    the path; a sidecar not bound to it by ``codebook_sha256``, one naming both.
    """
    path = Path(path)
    with open(path, "rb") as f:
        if f.read(4) != _MAGIC:
            raise ValueError(f"{path}: bad magic bytes")

        def read_exact(size: int, what: str) -> bytes:
            raw = f.read(size)
            if len(raw) != size:
                raise ValueError(f"{path}: truncated {what}")
            return raw

        (version,) = struct.unpack("<I", read_exact(4, "header"))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        (blob_len,) = struct.unpack("<I", read_exact(4, "header"))
        blob = read_exact(blob_len, "config block")
        try:
            config = json.loads(blob.decode("utf-8"))
            d, balanced_last = config["dim"], config["balanced_last"]
            level_sizes, code_sizes = tuple(config["level_sizes"]), tuple(config["opq_code_sizes"])
            sizes = (d, *level_sizes, *code_sizes)
            if type(balanced_last) is not bool or {type(v) for v in sizes} != {int}:
                raise TypeError("dim and sizes must be JSON integers, balanced_last a JSON bool")
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad config block ({exc!r})") from None
        if not level_sizes or not code_sizes or min(sizes) < 1 or d % len(code_sizes):
            raise ValueError(f"{path}: inconsistent config {config}")
        dsub = d // len(code_sizes)

        def read_table(rows: int, cols: int) -> np.ndarray:
            raw = read_exact(rows * cols * 4, "table")
            return np.frombuffer(raw, dtype="<f4").reshape(rows, cols).astype(np.float64)

        levels = [read_table(w, d) for w in level_sizes]
        rotation = read_table(d, d)
        subspaces = [read_table(c, dsub) for c in code_sizes]
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes")

    try:
        rq = RqCodebook(levels, level_sizes, balanced_last)
        opq = OpqCodebook(rotation, subspaces)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    codebook = RqOpqCodebook(rq, opq)
    meta_path = path.with_name(path.name + ".meta.json")
    if meta_path.exists():
        codebook.build_metadata = read_json(meta_path, dict)
        digest = hashlib.sha256(_codebook_bytes(codebook)).hexdigest()
        if codebook.build_metadata.pop("codebook_sha256", None) != digest:
            raise ValueError(f"{meta_path}: codebook_sha256 missing or not that of {path}")
    return codebook
