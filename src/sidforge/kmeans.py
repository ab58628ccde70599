"""Deterministic Lloyd k-means and the size-balanced variant.

Both fits share seeded k-means++ initialization, the one Lloyd loop and
fixed iteration caps, so identical (points, k, iters, seed) inputs give
bit-identical results. Ties in every nearest-centroid decision go to the
lowest index.
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


def _dist_block(points: np.ndarray, neg2_table_t: np.ndarray, table_sq: np.ndarray) -> np.ndarray:
    """Unclamped ||p||^2 - 2 p.t + ||t||^2 for a block of rows, built in place.

    ``neg2_table_t`` is ``(-2 * table).T``. Scaling by -2 is exact, so the
    product rounds exactly as ``||p||^2 - (2p) @ table.T`` does.
    """
    d = points @ neg2_table_t
    d += np.sum(points**2, axis=1)[:, None]
    d += table_sq
    return d


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances clamped at 0, shape (n, k), all at once.

    Only for callers that need every column; ``nearest`` bounds memory.
    """
    d = _dist_block(points, (-2.0 * centroids).T, np.sum(centroids**2, axis=1))
    return np.maximum(d, 0.0, out=d)


def _chunk_edges(n: int, width: int) -> list[int]:
    """Edges of near-equal row chunks of at most ``_CHUNK_ENTRIES // width``
    rows (at least one): chunk ``c`` is rows ``edges[c]:edges[c + 1]``.

    Equal chunks leave no small remainder: BLAS may take another code path
    for a product of a few rows and round it differently, while large chunks
    round exactly as one product over all rows.
    """
    chunks = -(-n // max(1, _CHUNK_ENTRIES // width))
    return [c * n // chunks for c in range(chunks + 1)] if chunks else [0]


def _block_nearest(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest column per row of a distance block and its distance clamped at 0.

    Ties go to the lowest index: the argmin of the clamped distances is the
    first column at or below 0 when a row has a negative rounded distance,
    else the plain argmin.
    """
    j = d.argmin(axis=1)
    m = d[np.arange(d.shape[0]), j]
    neg = m < 0.0
    if neg.any():
        j[neg] = np.argmax(d[neg] <= 0.0, axis=1)
        m[neg] = 0.0
    return j, m


def nearest(points: np.ndarray, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest table row per point and its squared distance (clamped at 0).

    Rows go through in the chunks of ``_chunk_edges``, so no more than
    ``_CHUNK_ENTRIES`` distances exist at once; ties go to the lowest index.
    """
    n = points.shape[0]
    neg2_table_t = (-2.0 * table).T
    table_sq = np.sum(table**2, axis=1)
    edges = _chunk_edges(n, table.shape[0])
    idx = np.empty(n, dtype=np.int64)
    dist = np.empty(n)
    for lo, hi in zip(edges, edges[1:]):
        idx[lo:hi], dist[lo:hi] = _block_nearest(_dist_block(points[lo:hi], neg2_table_t, table_sq))
    return idx, dist


def _nearest_rows(points: np.ndarray, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``nearest(points, table)[0][rows]``, recomputing only the
    ``_chunk_edges`` chunks that hold those rows, each with the same call
    ``nearest`` makes for it.
    """
    edges = np.array(_chunk_edges(points.shape[0], table.shape[0]))
    chunks, chunk = np.unique(np.searchsorted(edges, rows, side="right") - 1, return_inverse=True)
    neg2_table_t = (-2.0 * table).T
    table_sq = np.sum(table**2, axis=1)
    labels = np.empty(rows.size, dtype=np.int64)
    for c, (lo, hi) in enumerate(zip(edges[chunks], edges[chunks + 1])):
        sel = chunk == c
        labels[sel] = _block_nearest(_dist_block(points[lo:hi], neg2_table_t, table_sq))[0][rows[sel] - lo]
    return labels


# Tables narrower than this take ``nearest`` directly: below the paper's
# narrowest hierarchy level the float32 pass saves less than it costs.
_SCREEN_MIN_WIDTH = 512
# The screen runs only while max ||p|| + max ||t|| stays below this: its
# square, 2^100, bounds every float32 value it makes, far inside float32
# range (~3.4e38 = 2^128), so no cast, product or sum overflows.
_SCREEN_MAX_REACH = 2.0**50


def nearest_labels(points: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``nearest(points, table)[0]`` bit for bit, through a float32 screen.

    For a table of at least ``_SCREEN_MIN_WIDTH`` rows, each chunk of
    ``_chunk_edges`` rows is cast to float32 alone, into a buffer whose last
    column is 1, and scored by one product with the float32 columns
    ``(-2 t_j, ||t_j||^2)``: ``e_j = p . (-2 t_j) + ||t_j||^2``, with
    ``||p||^2`` left out as it is the same in every column. A row takes the
    argmin ``c`` of its ``e`` when the second-smallest value exceeds ``e_c``
    by more than ``2 (E32 + E64)``; any other row is doubtful, and all
    doubtful rows of the call take their labels from ``_nearest_rows``
    together.

    With ``r = ||p|| + max ||t||``, ``E64 = 4 (d + 3) eps64 r^2`` is
    ``BoundedNearest``'s bound on the float64 kernel's rounding, and
    ``E32 = 4 (d + 3) eps32 r^2 + 4 (d + 3) tiny32 (1 + r)`` bounds
    ``|e_j - (D_j - ||p||^2)|``, ``D_j`` the true squared distance. With
    ``u = eps32 / 2``: rounding ``p``, ``t`` and the float64 ``||t||^2`` to
    float32 moves ``||t||^2 - 2 p.t`` by at most ``(2u + u^2) 2 ||p|| ||t||
    + u ||t||^2``, and the float32 product of d + 1 terms, in any summation
    order, adds at most ``(d + 1) u / (1 - (d + 1) u)`` times
    ``2 ||p|| ||t|| + ||t||^2``. That is under ``(d + 3) u r^2``, an eighth
    of the first term. The second term floors it for underflow: an input or
    a product below float32's normal range (``tiny32`` = 2^-126), flushed to
    zero or not, is off by up to tiny32 instead of relatively, and the other
    factor's norm scales that. The float64 kernel's own underflow is
    ~2^-1022 at most.

    Proof for an accepted row: every ``j != c`` has ``D_j - D_c >=
    (e_j - E32) - (e_c + E32) > 2 E64``, so its float64 distance exceeds
    ``D_c + E64 >= E64 >= 0``, and so that of column ``c``, which is at most
    ``D_c + E64``. So ``c`` is the unique float64 argmin and the only column
    that can round to 0 or below: ``nearest``'s clamping and lowest-index
    rules both pick it. Exactly tied columns are never accepted, since
    ``E32 > 0``. The float64 rounding of ``||t||^2``, of the bounds and of
    the gap is orders of magnitude below the margin.

    A narrower table, or magnitudes that could leave float32 range (checked
    before any cast), go straight to ``nearest``. No float32 copy of the
    whole input is made; no more than ``_CHUNK_ENTRIES`` scores exist at once.
    """
    n, d = points.shape
    k = table.shape[0]
    if k < _SCREEN_MIN_WIDTH or n == 0:
        return nearest(points, table)[0]
    table_sq = np.sum(table**2, axis=1)
    reach = _row_norms(points)
    reach += np.sqrt(table_sq.max())
    if not reach.max() < _SCREEN_MAX_REACH:          # NaN goes to nearest too
        return nearest(points, table)[0]
    margin = 8.0 * (d + 3) * float(np.finfo(np.float32).eps + np.finfo(np.float64).eps) * reach**2
    margin += 8.0 * (d + 3) * float(np.finfo(np.float32).tiny) * (1.0 + reach)
    columns = np.empty((d + 1, k), dtype=np.float32)
    columns[:d] = table.T
    columns[:d] *= -2.0
    columns[d] = table_sq
    edges = _chunk_edges(n, k)
    rows = np.empty((max(np.diff(edges)), d + 1), dtype=np.float32)
    rows[:, d] = 1.0
    labels = np.empty(n, dtype=np.int64)
    doubt = []
    for lo, hi in zip(edges, edges[1:]):
        block = rows[:hi - lo]
        block[:, :d] = points[lo:hi]
        e = block @ columns
        at = np.arange(hi - lo)
        j = e.argmin(axis=1)
        best = e[at, j]
        e[at, j] = np.inf
        gap = np.subtract(e.min(axis=1), best, dtype=np.float64)    # inf when k == 1
        labels[lo:hi] = j
        doubt.append(lo + np.flatnonzero(~(gap > margin[lo:hi])))
    doubt = np.concatenate(doubt)
    if doubt.size:
        labels[doubt] = _nearest_rows(points, table, doubt)
    return labels


def _dist_columns(points: np.ndarray, neg2_table: np.ndarray, table_sq: np.ndarray) -> np.ndarray:
    """The distances of ``_dist_block`` transposed: shape (k, rows), one
    column per point.

    Another product, so it may round differently from ``nearest``; only for
    decisions that allow for the rounding. A varying number of points goes
    in as the columns: as the rows of the product, multithreaded OpenBLAS
    touched more of its packing buffers for every new row count (6.4 MB
    over 300 random counts, 1.0 MB for one fixed count, 0.1 MB as columns).
    """
    d = neg2_table @ points.T
    d += np.sum(points**2, axis=1)
    d += table_sq[:, None]
    return d


def _row_norms(points: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, without an (n, d) temporary."""
    return np.sqrt(np.einsum("ij,ij->i", points, points))


class BoundedNearest:
    """The Lloyd assignment step: ``nearest(points, centroids)[0]`` bit for
    bit, computing distances only for points whose label may change.

    Between calls on one point set it keeps Hamerly (2010) bounds per point,
    O(n) floats: an upper bound ``u`` on the distance to its centroid and a
    lower bound ``l`` on the distance to every other one. A call moves them
    by each centroid's shift, skips a point when ``l - u > sqrt(2E)``,
    otherwise tightens ``u`` to the distance to its own centroid, and
    computes all k distances only for the points still in doubt.

    ``E = 4 (d + 3) eps (max ||p|| + max ||t||)^2`` bounds the kernel's
    rounding: ``||p||^2``, ``2 p.t`` and ``||t||^2`` are sums of d products,
    so for any summation order (Higham's gamma bound, plus two additions) a
    computed distance is within ``(d + 2) eps / 2 (||p|| + ||t||)^2`` of the
    true one, several times less than E. A skipped point's true distances
    differ by more than 2E, which no rounding within E reorders. A computed
    row is taken only when its second-smallest distance exceeds the smallest
    by more than 2E; any other is a near-tie, relabelled by ``_nearest_rows``
    exactly as ``nearest`` labels it. The rounding of the bounds themselves
    is orders of magnitude below the margin.

    The bounds hold while the same ``points`` object comes back; another one
    (or ``restart``) starts over with every point. ``full_rows`` counts the
    points whose k distances were computed, ``tie_rows`` the near-ties.
    """

    def __init__(self) -> None:
        self.full_rows = 0
        self.tie_rows = 0
        self.restart()

    def restart(self) -> None:
        """Forget the bounds: the next call computes every row."""
        self._points: np.ndarray | None = None

    def __call__(self, points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        n, d = points.shape
        table_sq = np.sum(centroids**2, axis=1)
        fresh = self._points is not points or self._centroids.shape != centroids.shape
        if fresh:
            self._points = points
            self._point_norm = float(_row_norms(points).max(initial=0.0))
            self._labels = np.zeros(n, dtype=np.int64)
            self._upper = np.empty(n)
            self._lower = np.empty(n)
            self._centroids = centroids.copy()
        else:  # a new label array each call: the caller keeps the last one
            self._labels = self._labels.copy()
        err = 4.0 * (d + 3) * np.finfo(np.float64).eps * (
            self._point_norm + float(np.sqrt(table_sq.max(initial=0.0)))) ** 2
        doubt = (np.arange(n) if fresh
                 else self._doubtful(points, centroids, float(np.sqrt(2.0 * err))))
        self._settle(points, centroids, doubt, table_sq, err)
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
                table_sq: np.ndarray, err: float) -> None:
        """Labels and fresh bounds for the points in ``doubt`` from all their
        distances; near-ties take their label from ``nearest`` itself."""
        labels, upper, lower = self._labels, self._upper, self._lower
        k = centroids.shape[0]
        neg2_table = -2.0 * centroids
        ties = []
        edges = _chunk_edges(doubt.size, k)
        for lo, hi in zip(edges, edges[1:]):
            ids = doubt[lo:hi]
            cols = _dist_columns(points[ids], neg2_table, table_sq)
            rows = np.arange(hi - lo)
            j = cols.argmin(axis=0)
            best = cols[j, rows]
            cols[j, rows] = np.inf
            second = cols.min(axis=0)                 # inf when k == 1
            labels[ids] = j
            upper[ids] = np.sqrt(np.maximum(best + err, 0.0))
            lower[ids] = np.sqrt(np.maximum(second - err, 0.0))
            ties.append(ids[~(second - best > 2.0 * err)])
        self.full_rows += doubt.size
        tie = np.concatenate(ties) if ties else doubt
        if tie.size == 0:
            return
        self.tie_rows += tie.size
        lower[tie] = 0.0                              # a near-tie stays in doubt
        labels[tie] = _nearest_rows(points, centroids, tie)


def kmeanspp_seed(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Seeded k-means++ initialization; duplicates chosen if k exceeds spread."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((points - points[idx]) ** 2, axis=1))
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
    to <= 1. Only the distance matrix is (n, k); a point whose nearest
    centroid is full takes one masked argmin over the clusters with room.
    """
    n, k = points.shape[0], centroids.shape[0]
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    dists = _sq_dists(points, centroids)
    rows = np.arange(n)
    nearest_c = dists.argmin(axis=1)
    best = dists[rows, nearest_c]
    dists[rows, nearest_c] = np.inf
    margin = dists.min(axis=1) - best
    dists[rows, nearest_c] = best
    order = np.argsort(-margin, kind="stable")

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
