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


def _sq_row_sums(points: np.ndarray) -> np.ndarray:
    """``np.sum(points**2, axis=1)``, squared in ``_chunk_edges`` row blocks."""
    sums = np.empty(points.shape[0])
    edges = _chunk_edges(*points.shape)
    for lo, hi in zip(edges, edges[1:]):
        sums[lo:hi] = np.sum(points[lo:hi]**2, axis=1)
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


def _folded(points: np.ndarray, table: np.ndarray, rotation: np.ndarray | None):
    """The rows ``-2 w_j`` of a (k, d) array (``w_j = R t_j`` for ``R =
    rotation``, else ``t_j``), the ``||t_j||^2``, each point's reach ``||p||
    + max(||t_j||, ||w_j||)`` and the terms of its ``_rounding``.

    ``||p R - t||^2 - ||p R||^2 = ||t||^2 - 2 p.(R t)`` in every column, so
    ``p`` is labelled without a rotated batch. Rounding ``R t_j`` (s columns
    in R) moves ``2 p.w_j`` by at most ``2 gamma_s ||p|| ||R||_F ||t_j|| <=
    s ||R||_F eps r^2 / 4``, hence ``s ||R||_F`` more terms."""
    table_sq = np.sum(table**2, axis=1)
    terms = 4.0 * (points.shape[1] + 3)
    cols, widest = table, table_sq.max()
    if rotation is not None:
        cols = table @ rotation.T
        widest = max(widest, np.sum(cols**2, axis=1).max())
        terms += rotation.shape[1] * float(np.linalg.norm(rotation))
    return -2.0 * cols, table_sq, _row_norms(points) + np.sqrt(widest), terms


def _exact_labels(points: np.ndarray, table: np.ndarray, near: np.ndarray,
                  rotation: np.ndarray | None) -> np.ndarray:
    """Per row of ``points``, the column with the smallest exact ``||p R -
    t_j||^2`` (``R`` the identity when ``rotation`` is None) among those its
    row of the bool ``near`` marks, lowest index on a tie. Every float64 is
    a multiple of 2^-1074, so scaled by 2^1074 all values are Python
    integers, and nothing rounds."""
    def scaled(values: np.ndarray) -> list[int]:
        return [a << (1075 - b.bit_length())
                for a, b in map(float.as_integer_ratio, values.tolist())]

    rot = None if rotation is None else [scaled(col) for col in rotation.T]
    labels = np.empty(points.shape[0], dtype=np.int64)
    for i, point in enumerate(points):
        p, shift = scaled(point), 0
        if rot is not None:                            # p R, scaled by 2^2148
            p, shift = [sum(a * b for a, b in zip(p, col)) for col in rot], 1074
        cands = np.flatnonzero(near[i])
        dists = [sum((a - (b << shift)) ** 2 for a, b in zip(p, scaled(table[j]))) for j in cands]
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
    neg2_cols, table_sq, reach, terms = _folded(points, table, rotation)
    margin = 2.0 * _rounding(reach, terms, d, np.float64)
    idx = np.empty(n, dtype=np.int64)
    dist, second = np.empty(n), np.empty(n)
    settled = 0
    edges = _chunk_edges(n, table.shape[0])
    for lo, hi in zip(edges, edges[1:]):
        block = _dist_block(points[lo:hi], neg2_cols, table_sq)
        j, best, runner_up = _best_two(block)
        open_ = np.flatnonzero(~(runner_up - best > margin[lo:hi]))   # none when k == 1
        if open_.size:
            near = block[open_] <= (best[open_] + margin[lo + open_])[:, None]
            exact = _exact_labels(points[lo + open_], table, near, rotation)
            # a row moved off its float64 argmin has that column as runner-up
            runner_up[open_] = np.where(exact == j[open_], runner_up[open_], best[open_])
            j[open_] = exact
            settled += open_.size
        idx[lo:hi] = j
        dist[lo:hi] = np.maximum(block[np.arange(hi - lo), j], 0.0)
        second[lo:hi] = runner_up
    return idx, dist, second, settled


# The screen runs only while max ||p|| + max ||t|| stays below this: its
# square, 2^100, bounds every float32 value it makes, far inside float32
# range (~3.4e38 = 2^128), so no cast, product or sum overflows.
_SCREEN_MAX_REACH = 2.0**50


def nearest_labels(points: np.ndarray, table: np.ndarray,
                   rotation: np.ndarray | None = None) -> np.ndarray:
    """``nearest(points, table)[0]`` through a float32 screen. With a (d, s)
    ``rotation``, the labels of ``points @ rotation`` against the (k, s)
    ``table`` by ``_folded``'s columns; only ``quantizer.descend`` passes one.

    Each chunk of ``_chunk_edges`` rows is cast to float32 alone, into a
    buffer whose last column is 1, and scored by one product with the
    float32 columns ``(-2 w_j, ||t_j||^2)``: ``e_j = p.(-2 w_j) + ||t_j||^2``
    (``||p||^2`` is the same in every column), within ``E32 = _rounding(r,
    terms, d, float32)`` of ``D_j - ||p||^2``. A row takes the argmin ``c`` of
    its ``e`` when every other ``e_j > e_c + 2 E32``, as then ``D_j - D_c >=
    (e_j - E32) - (e_c + E32) > 0``; the call's other rows go to one
    ``_nearest`` call. The float64 rounding of ``||t||^2``, of the bounds and
    of the gap is orders of magnitude below the margin.

    Magnitudes that could leave float32 range (checked before any cast) go
    straight to ``_nearest``. No float32 copy of the whole input is made; no
    more than ``_CHUNK_ENTRIES`` scores exist at once.
    """
    n, d = points.shape
    neg2_cols, table_sq, reach, terms = _folded(points, table, rotation)
    if n == 0 or not reach.max() < _SCREEN_MAX_REACH:   # NaN goes to _nearest too
        return _nearest(points, table, rotation)[0]
    margin = 2.0 * _rounding(reach, terms, d, np.float32)
    columns = np.vstack([neg2_cols.T, table_sq]).astype(np.float32, order="C")
    edges = _chunk_edges(n, table.shape[0])
    rows = np.empty((max(np.diff(edges)), d + 1), dtype=np.float32)
    rows[:, d] = 1.0
    labels = np.empty(n, dtype=np.int64)
    doubt = []
    for lo, hi in zip(edges, edges[1:]):
        block = rows[:hi - lo]
        block[:, :d] = points[lo:hi]
        labels[lo:hi], best, runner_up = _best_two(block @ columns)
        gap = np.subtract(runner_up, best, dtype=np.float64)    # inf when k == 1
        doubt.append(lo + np.flatnonzero(~(gap > margin[lo:hi])))
    doubt = np.concatenate(doubt)
    if doubt.size:
        labels[doubt] = _nearest(points[doubt], table, rotation)[0]
    return labels


class BoundedNearest:
    """The Lloyd assignment step: ``nearest(points, centroids)[0]``, the
    exact argmin, computing distances only for points whose label may change.

    Between calls on one point set it keeps Hamerly (2010) bounds per point,
    O(n) floats: an upper bound ``u`` on the distance to its centroid and a
    lower bound ``l`` on the distance to every other one. A call moves them
    by each centroid's shift, skips a point when ``l - u > sqrt(2E)``,
    otherwise tightens ``u`` to the distance to its own centroid, and sends
    the points still in doubt to ``_nearest``.

    Each float64 distance ``d_j`` is within ``E = _rounding(max ||p|| + max
    ||t||, 4 (d + 3), d, float64)`` of the exact ``D_j``. From ``_nearest``'s
    label c, ``d_c`` and runner-up ``min_{j != c} d_j``, ``u = sqrt(d_c +
    E)`` and ``l = sqrt(max(runner-up - E, 0))`` bound the exact distances,
    whichever column its exact settle chose. A skipped point's exact squared
    distances differ by ``l^2 - u^2 >= (l - u)^2 > 2E``, so its centroid
    stays the unique argmin; the bounds' own rounding is far below that.

    The bounds hold while the same ``points`` object comes back; another one
    (or ``restart``) starts over with every point. ``full_rows`` counts the
    points sent to ``_nearest``, ``tie_rows`` those its exact settle labelled.
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
            self._point_norm = float(_row_norms(points).max(initial=0.0))
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
        """Labels and fresh bounds for the points in ``doubt``, from ``_nearest``."""
        edges = _chunk_edges(doubt.size, centroids.shape[0])
        for lo, hi in zip(edges, edges[1:]):
            ids = doubt[lo:hi]
            self._labels[ids], dist, second, settled = _nearest(points[ids], centroids, None)
            self._upper[ids] = np.sqrt(dist + err)
            self._lower[ids] = np.sqrt(np.maximum(second - err, 0.0))
            self.tie_rows += settled
        self.full_rows += doubt.size


def kmeanspp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ initialization; duplicates chosen if k exceeds spread.
    Each centroid's squared distances are formed in one reused (n, d) buffer."""
    n = points.shape[0]
    buf = np.empty_like(points)
    chosen, d2 = [int(rng.integers(n))], np.full(n, np.inf)
    for _ in range(1, k):
        np.subtract(points, points[chosen[-1]], out=buf)
        np.minimum(d2, np.sum(np.square(buf, out=buf), axis=1), out=d2)
        total = float(d2.sum())
        chosen.append(int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total)))
    return points[chosen].copy()


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
