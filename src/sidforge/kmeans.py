"""Deterministic Lloyd k-means and the size-balanced variant.

Both fits share seeded k-means++ initialization, the one Lloyd loop and
fixed iteration caps, so identical (points, k, iters, seed) inputs give
bit-identical results. Every nearest-centroid label is the exact argmin,
lowest index on a tie.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .embedding import float_rows


@dataclass
class KmeansResult:
    centroids: np.ndarray          # (k, d) cluster means of the final assignment
    assignments: np.ndarray        # (n,) int cluster index per point
    sse: float                     # sum of squared distances to assigned centroids
    sse_per_iter: list[float] = field(default_factory=list)

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.assignments, minlength=self.centroids.shape[0])


def _as_points(points: np.ndarray) -> np.ndarray:
    """The checked points; a 1-D input is one column."""
    pts = np.asarray(points)
    return float_rows(pts[:, None] if pts.ndim == 1 else pts, "point")


# Distance blocks hold at most this many float64 entries (2 MB), so a
# nearest-centroid search never builds the full (n, k) matrix.
_CHUNK_ENTRIES = 1 << 18


def _dist_block(points: np.ndarray, neg2_table: np.ndarray, table_sq: np.ndarray) -> np.ndarray:
    """Unclamped ||p||^2 - 2 p.t + ||t||^2 for a block of rows, shape (rows,
    k), built in place as the transpose of a (k, rows) product with
    ``neg2_table = -2 * table`` (an exact scaling). The points are the
    product's columns: as its rows, multithreaded OpenBLAS touched more of
    its packing buffers for every new row count (6.4 MB over 300 random
    counts, 1.0 MB for one fixed count, 0.1 MB as columns).
    """
    d = neg2_table @ points.T
    d += _sq_row_sums(points)
    d += table_sq[:, None]
    return d.T


def _sq_row_sums(points: np.ndarray, centre: np.ndarray | None = None,
                 rows: np.ndarray | None = None) -> np.ndarray:
    """``np.sum((points[rows] - centre) ** 2, axis=1)`` (``points ** 2`` when
    ``centre`` is None, every row when ``rows`` is None), squared in
    ``_chunk_edges`` row blocks: each row's bits are those of one block."""
    m = points.shape[0] if rows is None else rows.size
    sums = np.empty(m)
    edges = _chunk_edges(m, points.shape[1])
    for lo, hi in zip(edges, edges[1:]):
        block = points[lo:hi] if rows is None else points[rows[lo:hi]]
        sums[lo:hi] = np.sum((block if centre is None else block - centre) ** 2, axis=1)
    return sums


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances clamped at 0, shape (n, k), all at once.

    Only for callers that need every column; ``nearest`` bounds memory.
    """
    d = _dist_block(points, -2.0 * centroids, np.sum(centroids**2, axis=1))
    return np.maximum(d, 0.0, out=d)


def _best_two(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row: the argmin, its value and the smallest value in any other
    column (inf when there is one column); ``block`` is left as it was."""
    at = np.arange(block.shape[0])
    j = block.argmin(axis=1)
    best = block[at, j]
    block[at, j] = np.inf
    second = block.min(axis=1)
    block[at, j] = best
    return j, best, second


def _chunk_edges(n: int, width: int) -> list[int]:
    """Edges of near-equal row chunks of at most ``_CHUNK_ENTRIES // width``
    rows (at least one): chunk ``c`` is rows ``edges[c]:edges[c + 1]``, so no
    more than ``_CHUNK_ENTRIES`` distances exist at once."""
    chunks = -(-n // max(1, _CHUNK_ENTRIES // width))
    return [c * n // chunks for c in range(chunks + 1)] if chunks else [0]


def _row_norms(points: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, without an (n, d) temporary."""
    return np.sqrt(np.einsum("ij,ij->i", points, points))


def _rounding(reach: np.ndarray | float, terms: float, d: int, dtype: type):
    """``terms (eps r^2 + (d + 1) tiny (1 + r))`` at ``r = reach``, for the
    eps and smallest normal ``tiny`` of ``dtype``. At ``terms = 4 (d + 3)`` it
    bounds the error of ``||p||^2 - 2 p.t + ||t||^2`` (or ``||t||^2 - 2 p.t``)
    in ``dtype`` from float64 ``p``, ``t`` with ``||p|| + ||t|| <= r``: sums
    of d + 1 products in any order (Higham's gamma), plus a cast to float32
    (``(2u + u^2) 2 ||p|| ||t|| + u ||t||^2``, ``u = eps / 2``), err by under
    ``(d + 3) u r^2``; a value below the normal range, by tiny at most."""
    info = np.finfo(dtype)
    return terms * (float(info.eps) * reach**2 + (d + 1) * float(info.tiny) * (1.0 + reach))


def _folded(table: np.ndarray, rotation: np.ndarray | None):
    """The rows ``-2 w_j`` of a (k, d) array (``w_j = R t_j`` for ``R =
    rotation``, else ``t_j``), the ``||t_j||^2``, ``max(||t_j||, ||w_j||)``,
    which a point's norm ``||p||`` extends to its reach, and the terms of its
    ``_rounding``.

    ``||p R - t||^2 - ||p R||^2 = ||t||^2 - 2 p.(R t)`` in every column, so
    ``p`` is labelled without a rotated batch. Rounding ``R t_j`` (s columns
    in R) moves ``2 p.w_j`` by at most ``2 gamma_s ||p|| ||R||_F ||t_j|| <=
    s ||R||_F eps r^2 / 4``, hence ``s ||R||_F`` more terms."""
    table_sq = np.sum(table**2, axis=1)
    cols, widest = table, table_sq.max()
    if rotation is None:
        terms = 4.0 * (table.shape[1] + 3)
    else:
        cols = table @ rotation.T
        widest = max(widest, np.sum(cols**2, axis=1).max())
        terms = 4.0 * (rotation.shape[0] + 3) + rotation.shape[1] * float(np.linalg.norm(rotation))
    return -2.0 * cols, table_sq, np.sqrt(widest), terms


def _exact_labels(points: np.ndarray, table: np.ndarray, near: np.ndarray,
                  rotation: np.ndarray | None) -> np.ndarray:
    """Per row of ``points``, the column with the smallest exact ``||p R -
    t_j||^2`` (``R`` the identity when ``rotation`` is None) among those its
    row of the bool ``near`` marks, lowest index on a tie. Every float64 is
    a multiple of 2^-1074, so scaled by 2^1074 all values are Python
    integers, and nothing rounds. Each marked table row is scaled once."""
    def scaled(values: np.ndarray) -> list[int]:
        return [a << (1075 - b.bit_length())
                for a, b in map(float.as_integer_ratio, values.tolist())]

    rot = None if rotation is None else [scaled(col) for col in rotation.T]
    shift = 0 if rot is None else 1074                 # p R is scaled by 2^2148
    rows = {j: [b << shift for b in scaled(table[j])] for j in np.flatnonzero(near.any(axis=0))}
    labels = np.empty(points.shape[0], dtype=np.int64)
    for i, point in enumerate(points):
        p = scaled(point)
        if rot is not None:
            p = [sum(a * b for a, b in zip(p, col)) for col in rot]
        cands = np.flatnonzero(near[i])
        dists = [sum((a - b) ** 2 for a, b in zip(p, rows[j])) for j in cands]
        labels[i] = cands[dists.index(min(dists))]
    return labels


def nearest(points: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each point's label, the exact argmin: the table row with the smallest
    exact squared distance, lowest index on a tie, so no other point of the
    call changes it. Also that row's float64 distance, clamped at 0.

    A float64 distance ``d_j`` is within ``E = _rounding(r, 4 (d + 3), d,
    float64)`` of the exact ``D_j``. A row keeps its argmin ``c`` if every
    other ``d_j > d_c + 2E``, as then ``D_j >= d_j - E > d_c + E >= D_c``;
    else ``_exact_labels`` settles it over the columns with ``d_j <= d_c +
    2E``, which hold every exact minimizer m: ``d_m <= D_m + E <= D_c + E``.
    """
    return _nearest(points, table, None)[:2]


def _nearest(points: np.ndarray, table: np.ndarray, rotation: np.ndarray | None
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """``nearest``, each row's runner-up: its smallest unclamped float64
    distance to a column other than its label (inf when k == 1), and the
    number of rows ``_exact_labels`` settled. With ``rotation``, the labels
    of ``points @ rotation`` (``_folded``)."""
    n, d = points.shape
    neg2_cols, table_sq, widest, terms = _folded(table, rotation)
    reach = _row_norms(points) + widest
    margin = 2.0 * _rounding(reach, terms, d, np.float64)
    idx = np.empty(n, dtype=np.int64)
    dist, second = np.empty(n), np.empty(n)
    settled, first_copy = 0, None
    edges = _chunk_edges(n, table.shape[0])
    for lo, hi in zip(edges, edges[1:]):
        block = _dist_block(points[lo:hi], neg2_cols, table_sq)
        j, best, runner_up = _best_two(block)
        open_ = np.flatnonzero(~(runner_up - best > margin[lo:hi]))   # none when k == 1
        if open_.size:
            if first_copy is None:           # rows with no lower identical row
                first_copy = np.zeros(table.shape[0], dtype=bool)
                first_copy[np.unique(table, axis=0, return_index=True)[1]] = True
            near = block[open_] <= (best[open_] + margin[lo + open_])[:, None]
            near &= first_copy
            exact = near.argmax(axis=1)
            tied = np.flatnonzero(np.count_nonzero(near, axis=1) > 1)
            if tied.size:
                exact[tied] = _exact_labels(points[lo + open_[tied]], table, near[tied], rotation)
            # a row moved off its float64 argmin has that column as runner-up
            runner_up[open_] = np.where(exact == j[open_], runner_up[open_], best[open_])
            j[open_] = exact
            settled += tied.size
        idx[lo:hi] = j
        dist[lo:hi] = np.maximum(block[np.arange(hi - lo), j], 0.0)
        second[lo:hi] = runner_up
    return idx, dist, second, settled


# The screen runs only while max ||p|| + max ||t|| stays below this: its
# square, 2^100, bounds every float32 value it makes, far inside float32
# range (~3.4e38 = 2^128), so no cast, product or sum overflows.
_SCREEN_MAX_REACH = 2.0**50

# The screen scores a table of at most this many rows as a (k, rows) block
# and scans it along its columns, a wider one as (rows, k) along its rows:
# numpy reduces an axis at a fixed cost per line, so each scan runs the
# fewer, longer lines. Per 2^18 float32 scores (product and scan, timeit on
# a 2-vCPU x86 host, OpenBLAS 0.3.31), k = 64 took 0.6 ms by column and
# 1.0 ms by row; k = 256, 0.5 and 0.4 ms; k = 4,096, 0.7 and 0.3 ms.
_SCREEN_COLUMN_MAX_K = 128


def _column_best_two(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_best_two(scores.T)`` for a (k, rows) block, scanned along its
    columns, where each row's minimum is unique; ``scores`` is overwritten.

    The label is the float32 dot of the column indices with the row's ``==
    best`` mask, exact where one entry equals the best; ``einsum`` casts the
    bool mask in buffered blocks, where ``@`` needed a float32 copy of it
    (1 MB more ``tracemalloc`` peak per 2^18 scores). Masking the label's
    entry leaves the runner-up; at a tie it leaves another entry equal to
    the best, so a tied row's runner-up is its best, and its label, clipped
    to k - 1, is meaningless."""
    k, rows = scores.shape
    best = scores.min(axis=0)
    labels = np.einsum("k,kr->r", np.arange(k, dtype=np.float32), scores == best).astype(np.int64)
    np.minimum(labels, k - 1, out=labels)
    scores[labels, np.arange(rows)] = np.inf
    return labels, best, scores.min(axis=0)


class _Screen:
    """The float32 screen of one table (under a (d, s) ``rotation``, by
    ``_folded``'s columns). ``scores`` labels a chunk of float64 rows ``p``,
    at most ``_CHUNK_ENTRIES // k`` of them; ``bounds`` turns each row's
    scores into two float64 values ``U`` and ``L``, and ``L > U`` means its
    label ``c`` is the exact argmin.

    The chunk is cast to float32 into a buffer whose last column is 1 and
    scored by one product with the float32 columns ``(-2 w_j, ||t_j||^2)``:
    ``e_j = p.(-2 w_j) + ||t_j||^2`` is within ``E32 = _rounding(r, terms,
    d, float32)`` of the exact ``D_j - ||p R||^2``, and ``c`` is the argmin
    of ``e``. With ``q = ||p||^2`` in float64, the runner-up ``e_r = min_{j
    != c} e_j`` and ``s = (1 + 2^-28) E32``, ``U = q + e_c + s`` and ``L = q
    + e_r - s``. The float64 rounding of ``q`` (d squares) and of each sum
    (terms totalling below ``2 r^2 + 2 s``) is below ``(d + 3) eps r^2 + d
    tiny``, well inside ``E64 = _rounding(r, 4 (d + 3), d, float64)``. Every
    term of ``E32`` is at least 2^29 times its ``E64`` counterpart, so ``s >=
    E32 + E64``. So ``L > U`` gives ``e_r - e_c > 2 E32``, and then ``D_j -
    D_c >= (e_j - E32) - (e_c + E32) > 0`` for every ``j != c``. Without a
    rotation ``q + e_j`` is within ``E32 + E64`` of ``D_j``, so ``U >= D_c``
    and ``L <= D_j`` for every ``j != c``: ``BoundedNearest`` keeps them as
    its bounds.

    Rows are scored only when ``castable``: magnitudes that could leave
    float32 range are checked before any cast.
    """

    def __init__(self, table: np.ndarray, rotation: np.ndarray | None) -> None:
        neg2_cols, table_sq, self._widest, terms = _folded(table, rotation)
        self._slack_terms = terms * (1.0 + 2.0**-28)
        self._d = table.shape[1] if rotation is None else rotation.shape[0]
        self._by_column = table.shape[0] <= _SCREEN_COLUMN_MAX_K
        self._rows = np.empty((0, 0), dtype=np.float32)
        if not self._widest < _SCREEN_MAX_REACH:    # then nothing is castable
            return
        if self._by_column:
            self._columns = np.column_stack([neg2_cols, table_sq]).astype(np.float32)
        else:
            self._columns = np.vstack([neg2_cols.T, table_sq]).astype(np.float32, order="C")

    def castable(self, norm: float) -> bool:
        """Whether rows of norm at most ``norm`` may be scored; never on NaN."""
        return bool(norm + self._widest < _SCREEN_MAX_REACH)

    def scores(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row of a castable chunk: its label, best and runner-up score."""
        n, d = rows.shape
        if self._rows.shape[0] < n:                          # reused by every later chunk
            self._rows = np.empty((n, d + 1), dtype=np.float32)
            self._rows[:, d] = 1.0
        block = self._rows[:n]
        block[:, :d] = rows
        if self._by_column:
            return _column_best_two(self._columns @ block.T)
        return _best_two(block @ self._columns)

    def bounds(self, q: np.ndarray, best: np.ndarray, runner_up: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """``U`` and ``L`` of rows with squared norms ``q`` and these scores."""
        slack = _rounding(np.sqrt(q) + self._widest, self._slack_terms, self._d, np.float32)
        return q + best + slack, q + runner_up - slack   # inf - slack when k == 1


def nearest_labels(points: np.ndarray, table: np.ndarray,
                   rotation: np.ndarray | None = None) -> np.ndarray:
    """``nearest(points, table)[0]`` through ``_Screen``, one chunk of
    ``_chunk_edges`` rows at a time; the rows it leaves in doubt go to one
    ``_nearest`` call. With a (d, s) ``rotation``, the labels of ``points @
    rotation`` against the (k, s) ``table`` by ``_folded``'s columns; only
    ``quantizer.descend`` passes one. No float32 copy of the whole input is
    made; no more than ``_CHUNK_ENTRIES`` scores exist at once."""
    n = points.shape[0]
    screen = _Screen(table, rotation)
    q = np.einsum("ij,ij->i", points, points)
    labels = np.empty(n, dtype=np.int64)
    doubt = np.arange(n)
    if screen.castable(np.sqrt(q.max(initial=0.0))):
        best, runner_up = np.empty(n, dtype=np.float32), np.empty(n, dtype=np.float32)
        edges = _chunk_edges(n, table.shape[0])
        for lo, hi in zip(edges, edges[1:]):
            labels[lo:hi], best[lo:hi], runner_up[lo:hi] = screen.scores(points[lo:hi])
        upper, lower = screen.bounds(q, best, runner_up)
        doubt = np.flatnonzero(~(lower > upper))
    if doubt.size:
        rows = points if doubt.size == n else points[doubt]
        labels[doubt] = _nearest(rows, table, rotation)[0]
    return labels


class BoundedNearest:
    """The Lloyd assignment step: ``nearest(points, centroids)[0]``, the
    exact argmin, computing distances only for points whose label may change.

    Between calls on one point set it keeps Hamerly (2010) bounds per point,
    O(n) floats: an upper bound ``u`` on the distance to its centroid and a
    lower bound ``l`` on the distance to every other one. A call moves them
    by each centroid's shift, skips a point when ``l - u > sqrt(2E)``,
    otherwise tightens ``u`` to the distance to its own centroid, and sends
    the points still in doubt through ``_Screen``, whose sure rows take its
    ``u = sqrt(U)`` and ``l = sqrt(max(L, 0))``. The rows it leaves in doubt
    go to ``_nearest``.

    Each float64 distance ``d_j`` is within ``E = _rounding(max ||p|| + max
    ||t||, 4 (d + 3), d, float64)`` of the exact ``D_j``. From ``_nearest``'s
    label c, ``d_c`` and runner-up ``min_{j != c} d_j``, ``u = sqrt(d_c +
    E)`` and ``l = sqrt(max(runner-up - E, 0))`` bound the exact distances,
    whichever column its exact settle chose. A skipped point's exact squared
    distances differ by ``l^2 - u^2 >= (l - u)^2 > 2E``, so its centroid
    stays the unique argmin; the bounds' own rounding is far below that.

    The bounds hold while the same ``points`` object comes back; another one
    (or ``restart``) starts over with every point. ``full_rows`` counts the
    points sent to the screen, ``tie_rows`` those ``_nearest``'s exact
    settle labelled.
    """

    def __init__(self) -> None:
        self.full_rows = self.tie_rows = 0
        self.restart()

    def restart(self) -> None:
        """Forget the bounds: the next call computes every row."""
        self._points: np.ndarray | None = None

    def __call__(self, points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        n, d = points.shape
        fresh = self._points is not points or self._centroids.shape != centroids.shape
        if fresh:
            self._points = points
            self._sq_norms = np.einsum("ij,ij->i", points, points)
            self._point_norm = float(np.sqrt(self._sq_norms.max(initial=0.0)))
            self._labels = np.zeros(n, dtype=np.int64)
            self._upper, self._lower = np.empty(n), np.empty(n)
            self._centroids = centroids.copy()
        else:  # a new label array each call: the caller keeps the last one
            self._labels = self._labels.copy()
        err = _rounding(self._point_norm + float(_row_norms(centroids).max(initial=0.0)),
                        4.0 * (d + 3), d, np.float64)
        doubt = (np.arange(n) if fresh
                 else self._doubtful(points, centroids, float(np.sqrt(2.0 * err))))
        self._settle(points, centroids, doubt, err)
        np.copyto(self._centroids, centroids)
        return self._labels

    def _doubtful(self, points: np.ndarray, centroids: np.ndarray, margin: float) -> np.ndarray:
        """Sorted indices of the points whose bounds, moved by the centroid
        shifts, leave their label open. A NaN bound counts as open."""
        labels, upper, lower = self._labels, self._upper, self._lower
        shift = _row_norms(centroids - self._centroids)
        upper += shift[labels]
        if shift.size > 1:  # the farthest any other centroid moved
            top = int(shift.argmax())
            first = shift[top]
            shift[top] = -np.inf
            lower -= np.where(labels == top, shift.max(), first)
        doubt = np.flatnonzero(~(lower - upper > margin))
        edges = _chunk_edges(doubt.size, points.shape[1])
        for lo, hi in zip(edges, edges[1:]):
            ids = doubt[lo:hi]
            upper[ids] = _row_norms(points[ids] - centroids[labels[ids]])
        return doubt[~(lower[doubt] - upper[doubt] > margin)]

    def _settle(self, points: np.ndarray, centroids: np.ndarray, doubt: np.ndarray,
                err: float) -> None:
        """Labels and fresh bounds for the points in ``doubt``: from the
        screen where it is sure, else from ``_nearest``."""
        screen, sure = _Screen(centroids, None), np.zeros(doubt.size, dtype=bool)
        if screen.castable(self._point_norm):
            edges = _chunk_edges(doubt.size, centroids.shape[0])
            for lo, hi in zip(edges, edges[1:]):
                ids = doubt[lo:hi]
                q = self._sq_norms[ids]
                self._labels[ids], best, runner_up = screen.scores(points[ids])
                upper, lower = screen.bounds(q, best, runner_up)
                self._upper[ids] = np.sqrt(upper)
                self._lower[ids] = np.sqrt(np.maximum(lower, 0.0))
                sure[lo:hi] = lower > upper
        rest = doubt[~sure]
        edges = _chunk_edges(rest.size, centroids.shape[0])
        for lo, hi in zip(edges, edges[1:]):
            ids = rest[lo:hi]
            self._labels[ids], dist, second, settled = _nearest(points[ids], centroids, None)
            self._upper[ids] = np.sqrt(dist + err)
            self._lower[ids] = np.sqrt(np.maximum(second - err, 0.0))
            self.tie_rows += settled
        self.full_rows += doubt.size


def kmeanspp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ initialization; duplicates chosen if k exceeds spread.

    Each point's ``d2`` is the least ``v = np.sum((p - c) ** 2)`` over the
    chosen centres ``c``, and each later pick is the inverse-CDF lookup that
    ``rng.choice(n, p=d2 / d2.sum())`` makes, with the same draw. A new
    centre's ``v`` is computed, in ``_chunk_edges`` row blocks, only for the
    rows its one product ``g = p.(-2c) + ||c||^2`` leaves open: a row is
    skipped when ``q + g - E >= d2`` (``q = ||p||^2``; a NaN or inf bound is
    open), as then ``v >= d2`` and ``np.minimum`` would keep ``d2``.

    With ``r = ||p|| + max ||p|| >= ||p|| + ||c||`` (each centre is one of
    the points), ``E = _rounding(r, 4 (d + 3), d, float64)`` and ``u = eps /
    2``: the exact ``D = ||p - c||^2`` is at most ``r^2``. The bound sums the
    terms of ``q``, ``g`` and ``-E``, each rounded at most ``d + 2`` times,
    so it exceeds ``D - E`` by at most ``gamma (r^2 + E)`` (``gamma = (d +
    2) u / (1 - (d + 2) u)``) plus ``3 d u tiny`` lost below the normal
    range. ``v`` rounds each of its ``d`` squares through a difference, a
    square and a sum, so ``v >= D - gamma r^2 - 2 d u tiny``. Hence ``v >=
    bound + (1 - gamma) E - 2 gamma r^2 - 5 d u tiny``, and ``E`` is at least
    ``8 (d + 3) u r^2 + 4 (d + 3) (d + 1) tiny``, over twice the rest.
    """
    n, d = points.shape
    q = np.einsum("ij,ij->i", points, points)
    norms = np.sqrt(q)
    q -= _rounding(norms + norms.max(), 4.0 * (d + 3), d, np.float64)     # q - E
    first = int(rng.integers(n))
    chosen, d2 = [first], _sq_row_sums(points, points[first])
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            chosen.append(int(rng.integers(n)))
        else:
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            chosen.append(int(cdf.searchsorted(rng.random(), side="right")))
        if i == k - 1:
            break
        c = points[chosen[-1]]
        bound = points @ (-2.0 * c)
        bound += q
        bound += c @ c
        open_ = np.flatnonzero(~((bound >= d2) & (bound < np.inf)))
        if open_.size == n:
            np.minimum(d2, _sq_row_sums(points, c), out=d2)
        elif open_.size:
            d2[open_] = np.minimum(d2[open_], _sq_row_sums(points, c, open_))
    return points[chosen]


def _update_means(points_t: np.ndarray, assign: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Cluster means of the assignment; empty clusters keep their old centroid.

    ``points_t`` is the point set transposed to contiguous columns, made
    once per fit. ``bincount`` adds each column's weights in point order,
    the same sequential sum as ``np.add.at``.
    """
    k = centroids.shape[0]
    sums = np.stack([np.bincount(assign, weights=col, minlength=k) for col in points_t], axis=1)
    counts = np.bincount(assign, minlength=k).astype(np.float64)
    out = centroids.copy()
    nonempty = counts > 0
    out[nonempty] = sums[nonempty] / counts[nonempty, None]
    return out


def _repair_empty(assign: np.ndarray, assigned_d: np.ndarray, k: int) -> np.ndarray:
    """Re-seed each empty cluster with the point farthest from its centroid.

    ``assigned_d`` holds each point's squared distance to its own centroid;
    both arrays are updated in place.
    """
    counts = np.bincount(assign, minlength=k)
    for j in np.flatnonzero(counts == 0):
        spare = counts[assign] > 1                    # never empty another cluster
        if not spare.any():
            break  # fewer distinct points than clusters; leave j empty
        donor = int(np.argmax(np.where(spare, assigned_d, -np.inf)))
        counts[assign[donor]] -= 1
        assign[donor] = j
        counts[j] = 1
        assigned_d[donor] = 0.0
    return assign


def lloyd(
    points: np.ndarray,
    centroids: np.ndarray,
    iters: int,
    assign: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The one Lloyd loop: yields each iteration's centroids and labels.

    ``assign(points, centroids)`` labels the points; the new centroids are
    the means of those labels (an empty cluster keeps its old centroid).
    Stops after ``iters`` iterations or once the labels repeat.
    """
    points_t = np.ascontiguousarray(points.T)
    labels = None
    for _ in range(max(1, iters)):
        new_labels = assign(points, centroids)
        centroids = _update_means(points_t, new_labels, centroids)
        yield centroids, new_labels
        if labels is not None and np.array_equal(new_labels, labels):
            return
        labels = new_labels


def _sse(points: np.ndarray, centroids: np.ndarray, labels: np.ndarray) -> float:
    diff = centroids[labels]
    np.subtract(points, diff, out=diff)
    diff *= diff
    return float(np.sum(diff))


def _seeded(points: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated points and their seeded k-means++ centroids."""
    points = _as_points(points)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return points, kmeanspp_seed(points, k, np.random.default_rng(seed))


def kmeans_fit(points: np.ndarray, k: int, iters: int = 25, seed: int = 0) -> KmeansResult:
    """Lloyd iterations from deterministic k-means++ seeding.

    Labels come from ``BoundedNearest``; an assignment that leaves a cluster
    empty is redone with ``nearest`` and re-seeds that cluster. The returned
    centroids are the means of the final assignment, so the total
    within-cluster squared error never exceeds the input energy and is
    non-increasing across iterations.
    """
    points, centroids = _seeded(points, k, seed)
    step = BoundedNearest()

    def assign(p: np.ndarray, c: np.ndarray) -> np.ndarray:
        labels = step(p, c)
        if np.bincount(labels, minlength=k).all():
            return labels
        step.restart()  # the repair moves points the bounds do not know of
        return _repair_empty(*nearest(p, c), k)

    sse_per_iter = []
    for centroids, labels in lloyd(points, centroids, iters, assign):
        sse_per_iter.append(_sse(points, centroids, labels))
    return KmeansResult(centroids, labels, sse_per_iter[-1], sse_per_iter)


def _balanced_assign(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Greedy-margin capacity assignment with cluster sizes in {floor, ceil}.

    Points are processed by descending margin (second-best distance minus
    best distance), each taking its nearest centroid that still has room,
    ties to the lowest index. At most ``n mod k`` clusters may grow to
    ceil(n/k); the rest stop at floor(n/k), which pins max-min cluster size
    to <= 1. Only the distance matrix is (n, k): it is scanned in
    ``_chunk_edges`` row blocks, and a point whose nearest centroid is full
    takes one masked argmin over the clusters with room.
    """
    n, k = points.shape[0], centroids.shape[0]
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    dists = _sq_dists(points, centroids)
    edges = _chunk_edges(n, k)
    nearest_c, best, runner_up = map(np.concatenate, zip(
        *(_best_two(dists[lo:hi]) for lo, hi in zip(edges, edges[1:]))))
    order = np.argsort(best - runner_up, kind="stable")

    floor, extra = divmod(n, k)  # extra: ceil-sized clusters still allowed
    cap = floor + (extra > 0)  # a cluster below cap has room
    counts = [0] * k
    full = np.zeros(k, dtype=bool)  # counts >= cap, for the masked argmin
    assign = nearest_c.tolist()
    for p in order.tolist():
        c = assign[p]
        if counts[c] >= cap:
            c = assign[p] = int(np.where(full, np.inf, dists[p]).argmin())
        counts[c] += 1
        if counts[c] == cap:
            full[c] = True
        if counts[c] > floor:
            extra -= 1
            if extra == 0:  # the ceil-sized slots are gone: every floor-sized cluster is full
                cap = floor
                full = np.array(counts) >= cap
    return np.array(assign, dtype=np.int64)


# pairwise-swap polish is quadratic in n; skip it for big fits
_SWAP_REFINE_MAX_POINTS = 1024

# exact two-cluster search is used when the balanced-partition count fits
_EXACT_TWO_MAX_PARTITIONS = 100_000


def _exact_balanced_two(points: np.ndarray) -> KmeansResult | None:
    """Exhaustive minimum-SSE balanced 2-partition for small inputs.

    Greedy balanced Lloyd sits in alternating fixed points on a sizable
    share of unstructured inputs, so tiny fits take the exact route. The
    per-partition cost uses sum identities, vectorized over the whole
    combination table.
    """
    from itertools import combinations
    from math import comb

    n = points.shape[0]
    big = (n + 1) // 2
    if n < 2 or comb(n, big) > _EXACT_TWO_MAX_PARTITIONS:
        return None
    combos = np.array(list(combinations(range(n), big)), dtype=np.int64)
    total_sum = points.sum(axis=0)
    total_sq = float(np.sum(points**2))
    left_sums = points[combos].sum(axis=1)                 # (m, d)
    right_sums = total_sum[None, :] - left_sums
    # SSE(C) = sum ||x||^2 - ||sum_C||^2/|C| summed over both sides
    cost = (
        total_sq
        - np.sum(left_sums**2, axis=1) / big
        - (np.sum(right_sums**2, axis=1) / (n - big) if n > big else 0.0)
    )
    best = int(np.argmin(cost))
    assign = np.ones(n, dtype=np.int64)
    assign[combos[best]] = 0
    centroids = np.stack([
        left_sums[best] / big,
        right_sums[best] / (n - big) if n > big else left_sums[best] / big,
    ])
    sse = float(cost[best])
    return KmeansResult(centroids, assign, sse, [sse])


def _swap_refine(points, assign, centroids, max_passes: int = 25):
    """Greedy disjoint cross-cluster swaps until none lowers the cost.

    Swapping two points never changes cluster sizes, so the balance
    invariant survives; centroids are re-averaged after every pass.
    """
    n = points.shape[0]
    points_t = np.ascontiguousarray(points.T)
    for _ in range(max_passes):
        dists = _sq_dists(points, centroids)
        own = dists[np.arange(n), assign]
        cross = dists[:, assign]          # cross[i, j] = d(i, cluster of j)
        delta = cross + cross.T - own[:, None] - own[None, :]
        delta[assign[:, None] == assign[None, :]] = 0.0
        ii, jj = np.nonzero(delta < -1e-12)
        if ii.size == 0:
            break
        upper = ii < jj
        ii, jj = ii[upper], jj[upper]
        order = np.argsort(delta[ii, jj], kind="stable")
        used = np.zeros(n, dtype=bool)
        for idx in order:
            a, b = int(ii[idx]), int(jj[idx])
            if used[a] or used[b]:
                continue
            assign[a], assign[b] = assign[b], assign[a]
            used[a] = used[b] = True
        centroids = _update_means(points_t, assign, centroids)
    return assign, centroids


def balanced_kmeans_fit(points: np.ndarray, k: int, iters: int = 25, seed: int = 0) -> KmeansResult:
    """Balanced Lloyd loop; keeps the lowest-SSE iterate since balanced
    assignment does not guarantee monotone SSE, then polishes small fits
    with cross-cluster swaps."""
    if k == 2:
        exact = _exact_balanced_two(_as_points(points))
        if exact is not None:
            return exact
    points, centroids = _seeded(points, k, seed)
    best: KmeansResult | None = None
    sse_per_iter: list[float] = []
    for centroids, labels in lloyd(points, centroids, iters, _balanced_assign):
        sse_per_iter.append(_sse(points, centroids, labels))
        if best is None or sse_per_iter[-1] < best.sse:
            best = KmeansResult(centroids, labels, sse_per_iter[-1])
    assert best is not None
    if points.shape[0] <= _SWAP_REFINE_MAX_POINTS and k > 1:
        assign, centroids = _swap_refine(points, best.assignments, best.centroids, max_passes=iters)
        sse = _sse(points, centroids, assign)
        if sse <= best.sse:
            best = KmeansResult(centroids, assign, sse)
        sse_per_iter.append(best.sse)
    best.sse_per_iter = sse_per_iter
    return best
