import hashlib
import itertools
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sidforge import kmeans
from sidforge.kmeans import (
    BoundedNearest,
    _balanced_assign,
    _repair_empty,
    _sq_dists,
    _update_means,
    balanced_kmeans_fit,
    kmeans_fit,
    kmeanspp_seed,
    lloyd,
    nearest,
    nearest_labels,
)
from sidforge.quantizer import (
    OpqCodebook,
    RqCodebook,
    RqOpqCodebook,
    encode,
    encode_batch,
    fit_codebook,
    opq_fit,
)


def sse_of_partition(points, groups):
    """Independent SSE oracle: mean-centered cost of an explicit partition."""
    total = 0.0
    for grp in groups:
        if len(grp):
            block = points[list(grp)]
            total += float(np.sum((block - block.mean(axis=0)) ** 2))
    return total


def best_two_partition_sse(points):
    """Exhaustive optimum over every 2-way split (no balance constraint)."""
    n = len(points)
    best = np.inf
    for r in range(1, n):
        for left in itertools.combinations(range(n), r):
            right = tuple(i for i in range(n) if i not in left)
            best = min(best, sse_of_partition(points, [left, right]))
    return best


def best_balanced_two_partition_sse(points):
    """Exhaustive optimum over 2-way splits with sizes ceil/floor."""
    n = len(points)
    size = (n + 1) // 2
    best = np.inf
    for left in itertools.combinations(range(n), size):
        right = tuple(i for i in range(n) if i not in left)
        best = min(best, sse_of_partition(points, [left, right]))
    return best


def preference_walk_assign(points, centroids):
    """Reference balanced assignment: every point ranks every centroid with a
    stable argsort, then takes its first choice that still has room."""
    n, k = points.shape[0], centroids.shape[0]
    dists = _sq_dists(points, centroids)
    if k == 1:
        return np.zeros(n, dtype=np.int64)
    part = np.partition(dists, 1, axis=1)
    margin = part[:, 1] - part[:, 0]
    order = np.argsort(-margin, kind="stable")
    prefs = np.argsort(dists, axis=1, kind="stable")
    floor, extra = divmod(n, k)
    counts = np.zeros(k, dtype=np.int64)
    ceil_used = 0
    assign = np.full(n, -1, dtype=np.int64)
    for p in order:
        for c in prefs[p]:
            if counts[c] < floor or (counts[c] == floor and ceil_used < extra):
                if counts[c] == floor:
                    ceil_used += 1
                counts[c] += 1
                assign[p] = c
                break
    return assign


def one_shot_nearest(points, table):
    """Reference: the whole (n, k) distance matrix in one expression."""
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ table.T
        + np.sum(table**2, axis=1)[None, :]
    )
    d2 = np.maximum(d2, 0.0)
    idx = np.argmin(d2, axis=1)
    return idx, d2[np.arange(len(points)), idx]


def exact_argmin(points, table, rotation=None):
    """Oracle: per point the lowest index of the smallest exact squared
    distance to ``table``, in ``Fraction``s; with ``rotation``, the labels
    of the exact product ``points @ rotation``."""
    labels = []
    for p in points.tolist():
        p = [Fraction(x) for x in p]
        if rotation is not None:
            p = [sum(a * Fraction(r) for a, r in zip(p, col)) for col in rotation.T.tolist()]
        dists = [sum((a - Fraction(b)) ** 2 for a, b in zip(p, t)) for t in table.tolist()]
        labels.append(dists.index(min(dists)))
    return np.array(labels, dtype=np.int64)


class TestNearest:
    def test_ragged_chunks_match_one_shot_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(0)
        points, table = rng.normal(size=(1000, 16)), rng.normal(size=(37, 16))
        # at most 150 rows per chunk, and 1000 is not a multiple of 150
        monkeypatch.setattr(kmeans, "_CHUNK_ENTRIES", 37 * 150)
        idx, dist = nearest(points, table)
        ref_idx, ref_dist = one_shot_nearest(points, table)
        assert np.array_equal(idx, ref_idx)
        assert np.array_equal(dist, ref_dist)

    def test_one_row_chunks_when_k_exceeds_budget(self, monkeypatch):
        rng = np.random.default_rng(1)
        points, table = rng.normal(size=(53, 8)), rng.normal(size=(40, 8))
        monkeypatch.setattr(kmeans, "_CHUNK_ENTRIES", 16)
        idx, dist = nearest(points, table)
        ref_idx, ref_dist = one_shot_nearest(points, table)
        assert np.array_equal(idx, ref_idx)
        # a one-row product runs as matrix-vector, which may sum in another order
        np.testing.assert_allclose(dist, ref_dist, rtol=1e-12, atol=1e-12)

    def test_negative_rounded_distances_take_the_exact_argmin(self, monkeypatch):
        # far from the origin, ||p||^2 - 2p.t + ||t||^2 cancels badly and
        # rounds below zero for several centroids of the same point
        rng = np.random.default_rng(2)
        points = 1e6 + rng.normal(scale=1e-4, size=(400, 4))
        table = 1e6 + rng.normal(scale=1e-4, size=(50, 4))
        monkeypatch.setattr(kmeans, "_CHUNK_ENTRIES", 50 * 120)
        idx, dist = nearest(points, table)
        raw = np.sum(points**2, axis=1)[:, None] - 2.0 * points @ table.T + np.sum(table**2, axis=1)
        assert np.sum(raw < 0, axis=1).max() >= 2
        assert np.array_equal(idx, exact_argmin(points, table))
        assert np.array_equal(dist, np.maximum(raw[np.arange(400), idx], 0.0))

    def test_exact_ties_go_to_lowest_index_in_every_chunk(self, monkeypatch):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(5, 6))
        table = np.concatenate([base, base[::-1], base])   # every row appears 3 times
        points = base[rng.integers(5, size=301)]
        monkeypatch.setattr(kmeans, "_CHUNK_ENTRIES", 15 * 64)
        idx, dist = nearest(points, table)
        first = {tuple(row): i for i, row in reversed(list(enumerate(table)))}
        assert [first[tuple(p)] for p in points] == idx.tolist()
        assert idx[-1] == first[tuple(points[-1])]
        assert np.all(dist < 1e-12)

    def test_runner_up_excludes_the_returned_label(self, monkeypatch):
        # duplicated rows one ulp apart: the exact settle moves most rows off
        # their float64 argmin, and the runner-up is then that argmin's distance
        rng = np.random.default_rng(5)
        table = tied_table(rng, 40, 8, 10)[1]
        table = np.where(rng.random(table.shape) < 0.3, np.nextafter(table, np.inf), table)
        points = table[rng.integers(40, size=300)]
        calls = count_settled(monkeypatch)
        idx, dist, second, settled = kmeans._nearest(points, table, None)
        assert settled == sum(calls) > 0
        raw = kmeans._dist_block(points, -2.0 * table, np.sum(table**2, axis=1))
        assert np.count_nonzero(idx != raw.argmin(axis=1)) > 100
        others = np.where(np.arange(40) == idx[:, None], np.inf, raw)
        assert np.array_equal(second, others.min(axis=1))
        assert np.array_equal(dist, np.maximum(raw[np.arange(300), idx], 0.0))

    def test_empty_input(self):
        idx, dist = nearest(np.zeros((0, 3)), np.ones((4, 3)))
        assert idx.shape == (0,) and dist.shape == (0,)


def tied_table(rng, k, d, distinct):
    """A (k, d) table of ``distinct`` rows repeated in scattered order, and
    points on and near them: every point has several exactly tied centroids."""
    base = rng.normal(size=(distinct, d))
    table = base[rng.integers(distinct, size=k)]
    points = table[rng.integers(k, size=900)] + rng.normal(scale=1e-8, size=(900, d))
    return points, table


def count_settled(monkeypatch):
    """A list that grows by the row count of every exact settle."""
    rows, settle = [], kmeans._exact_labels
    monkeypatch.setattr(kmeans, "_exact_labels",
                        lambda p, *args: rows.append(p.shape[0]) or settle(p, *args))
    return rows


def assert_batch_invariant(points, codebook):
    """Every row's code is the same alone, in the whole batch and in every
    split of it."""
    batch = encode_batch(points, codebook)
    assert [encode(x, codebook) for x in points] == batch
    for pieces in (7, 301):
        split = np.array_split(points, pieces)
        assert [sid for part in split for sid in encode_batch(part, codebook)] == batch


def one_level_codebook(table, subspaces, rotation=None):
    d = table.shape[1]
    return RqOpqCodebook(RqCodebook([table], (table.shape[0],), False),
                         OpqCodebook(np.eye(d) if rotation is None else rotation, subspaces))


class TestBatchInvariance:
    """A label is the exact argmin, so no other row of a batch changes it."""

    @pytest.mark.parametrize("d, k", [(33, 597), (16, 512), (13, 517), (6, 511), (9, 37)])
    def test_tripled_level_tables(self, d, k):
        rng = np.random.default_rng(d * k)
        points, table = tied_table(rng, k, d, max(1, k // 3))
        assert_batch_invariant(points, one_level_codebook(table, [rng.normal(size=(4, d))]))

    @pytest.mark.parametrize("k", [40, 600])
    def test_near_tied_level_tables(self, k):
        # duplicated rows nudged by one ulp: only exact arithmetic orders them
        rng = np.random.default_rng(k)
        points, table = tied_table(rng, k, 8, k // 4)
        nudge = rng.random(table.shape) < 0.3
        table = np.where(nudge, np.nextafter(table, np.inf), table)
        points = table[rng.integers(k, size=900)]
        assert_batch_invariant(points, one_level_codebook(table, [rng.normal(size=(4, 8))]))

    @pytest.mark.parametrize("k, nudged", [(30, False), (600, True)], ids=["tripled", "ulp-apart"])
    def test_tied_opq_subspace_tables(self, k, nudged):
        # the rotated residual lands on subspace rows that repeat, exactly or
        # one ulp apart; a rotated batch rounds each row by its batch's shape
        rng = np.random.default_rng(k + nudged)
        rotation, _ = np.linalg.qr(rng.normal(size=(12, 12)))
        subspaces = [tied_table(rng, k, 6, max(1, k // 3))[1] for _ in range(2)]
        if nudged:
            subspaces = [np.where(rng.random(t.shape) < 0.3, np.nextafter(t, np.inf), t)
                         for t in subspaces]
        picks = [t[rng.integers(k, size=600)] for t in subspaces]
        points = np.concatenate(picks, axis=1) @ rotation.T
        assert_batch_invariant(points, one_level_codebook(np.zeros((1, 12)), subspaces, rotation))


def _screen_case(rng, n, k, d, kind):
    table = rng.normal(size=(k, d))
    if kind in ("duplicate", "near-duplicate"):
        table = table[rng.integers(max(1, k // 3), size=k)]
    if kind == "near-duplicate":
        table = table + rng.normal(scale=1e-7, size=(k, d))
    if kind == "random":
        points = rng.normal(size=(n, d))
    else:
        points = table[rng.integers(k, size=n)]
        if kind != "on-centroids":
            points = points + rng.normal(scale=1e-3, size=(n, d))
    if kind == "zeros":
        points[rng.random(n) < 0.5] = 0.0
    return points, table


class TestNearestLabels:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.sampled_from([0, 1, 2]) | st.integers(min_value=0, max_value=300),
        k=st.sampled_from([511, 512, 513]) | st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=1, max_value=9),
        kind=st.sampled_from(["random", "duplicate", "near-duplicate", "on-centroids", "zeros"]),
        exponent=st.integers(min_value=-30, max_value=20),
        entries=st.sampled_from([1 << 18, 37 * 23, 1]),
        sliced=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_equals_nearest(self, n, k, d, kind, exponent, entries, sliced, seed):
        # scales from 1e-30 to past the float32 guard (2^50 ~ 1.1e15); the
        # suite's warning filter turns any overflow RuntimeWarning into a failure
        rng = np.random.default_rng(seed)
        points, table = _screen_case(rng, n, k, d, kind)
        points, table = points * 10.0**exponent, table * 10.0**exponent
        if sliced:  # an OPQ subspace: a column slice of a wider array
            points = np.concatenate([rng.normal(size=(n, 2)), points], axis=1)[:, 2:]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kmeans, "_CHUNK_ENTRIES", entries)
            got = nearest_labels(points, table)
            assert np.array_equal(got, nearest(points, table)[0])

    def test_doubtful_rows_take_the_fallback(self, monkeypatch):
        # rows 500..509 repeat rows 0..9: a point nearest one of those has an
        # exact tie, every other a clear winner
        rng = np.random.default_rng(50)
        table = rng.normal(scale=10.0, size=(512, 8))
        table[500:510] = table[:10]
        points = table[rng.integers(500, size=900)] + rng.normal(scale=0.01, size=(900, 8))
        settled = count_settled(monkeypatch)
        labels = nearest_labels(points, table)
        assert sum(settled) == np.count_nonzero(labels < 10) > 0
        assert np.array_equal(labels, nearest(points, table)[0])

    def test_clear_rows_compute_no_float64_distances(self, monkeypatch):
        rng = np.random.default_rng(51)
        table = rng.normal(scale=10.0, size=(1024, 16))
        points = table[rng.integers(1024, size=2000)] + rng.normal(scale=0.1, size=(2000, 16))
        monkeypatch.setattr(kmeans, "_dist_block", None)       # any float64 block fails
        assert np.array_equal(nearest_labels(points, table),
                              one_shot_nearest(points, table)[0])

    @pytest.mark.parametrize("scale", [1e14, 1e16, 1e60, 1e100])
    def test_large_magnitudes_raise_no_overflow(self, scale):
        # 1e14 is screened; a float32 cast of the rest would overflow
        rng = np.random.default_rng(52)
        table = rng.normal(scale=scale, size=(512, 4))
        points = table[rng.integers(512, size=300)] * 0.999
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(nearest_labels(points, table), nearest(points, table)[0])

    def test_golden_fits_hold_with_every_table_screened(self):
        TestLloydFitGolden().test_warm_heavy_opq_fit_bytes()
        TestBalancedFitGolden().test_small_balanced_fit_codebook_bytes()


def _oracle_case(rng, n, k, d, kind):
    """Small points and tables with exact ties (``grid``: integers and
    midpoints), exact duplicates, duplicates one ulp apart, or none."""
    if kind == "grid":
        return rng.integers(-4, 5, size=(n, d)) / 2.0, rng.integers(-2, 3, size=(k, d)).astype(float)
    table = rng.normal(size=(k, d))
    if kind == "random":
        return rng.normal(size=(n, d)), table
    table = table[rng.integers(max(1, k // 2), size=k)]
    if kind == "ulps":
        table = np.where(rng.random(table.shape) < 0.3, np.nextafter(table, np.inf), table)
    return table[rng.integers(k, size=n)], table


class TestExactArgmin:
    """Every kernel returns the exact argmin, checked against ``Fraction``s,
    at scales from float64's subnormals to beyond the float32 screen."""

    cases = dict(
        n=st.integers(min_value=0, max_value=25),
        k=st.integers(min_value=1, max_value=12),
        d=st.integers(min_value=1, max_value=6),
        kind=st.sampled_from(["grid", "duplicate", "ulps", "random"]),
        exponent=st.sampled_from([-1070, -1000, -520, 0, 60, 300]) | st.integers(-60, 60),
        seed=st.integers(min_value=0, max_value=10_000),
    )

    @settings(max_examples=150, deadline=None)
    @given(**cases)
    def test_nearest_and_nearest_labels(self, n, k, d, kind, exponent, seed):
        case = _oracle_case(np.random.default_rng(seed), n, k, d, kind)
        points, table = (np.ldexp(a, exponent) for a in case)
        expected = exact_argmin(points, table)
        assert np.array_equal(nearest(points, table)[0], expected)
        assert np.array_equal(nearest_labels(points, table), expected)

    @settings(max_examples=150, deadline=None)
    @given(**cases, width=st.integers(min_value=1, max_value=6))
    def test_nearest_labels_with_a_rotation(self, n, k, d, kind, exponent, seed, width):
        # a (d, s) block of an orthonormal matrix; the rotated points land on
        # the table's ties, as the residuals of an OPQ fit would
        rng = np.random.default_rng(seed)
        s = min(width, d)
        rotation = np.linalg.qr(rng.normal(size=(d, d)))[0][:, d - s:]
        rotated, table = _oracle_case(rng, n, k, s, kind)
        points = np.ldexp(rotated @ rotation.T, exponent)
        table = np.ldexp(table, exponent)
        assert np.array_equal(nearest_labels(points, table, rotation),
                              exact_argmin(points, table, rotation))

    @settings(max_examples=100, deadline=None)
    @given(**cases)
    def test_bounded_nearest(self, n, k, d, kind, exponent, seed):
        rng = np.random.default_rng(seed)
        points, table = _oracle_case(rng, max(n, 1), k, d, kind)
        points, table = np.ldexp(points, exponent), np.ldexp(table, exponent)
        step = BoundedNearest()
        for moved in (table, table[::-1].copy(), table + np.ldexp(0.25, exponent)):
            assert np.array_equal(step(points, moved), exact_argmin(points, moved))


class TestUpdateMeans:
    def test_bincount_sums_equal_add_at_bit_for_bit(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(5000, 7)) * rng.uniform(1e-3, 1e3, size=(5000, 1))
        assign = rng.integers(0, 40, size=5000)
        assign[assign == 13] = 14                          # cluster 13 stays empty
        old = rng.normal(size=(40, 7))
        sums = np.zeros((40, 7))
        np.add.at(sums, assign, points)
        counts = np.bincount(assign, minlength=40).astype(np.float64)
        expected = old.copy()
        expected[counts > 0] = sums[counts > 0] / counts[counts > 0, None]
        out = _update_means(np.ascontiguousarray(points.T), assign, old)
        assert np.array_equal(out, expected)
        assert np.array_equal(out[13], old[13])


def fresh_array_seed(points, k, rng):
    """Reference k-means++: a fresh difference array per chosen centroid."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((points - points[chosen[0]]) ** 2, axis=1)
    for _ in range(1, k):
        total = float(d2.sum())
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
        chosen.append(idx)
        d2 = np.minimum(d2, np.sum((points - points[idx]) ** 2, axis=1))
    return points[chosen].copy()


class TestKmeansppSeed:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=300),
        d=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=1, max_value=40),
        distinct=st.integers(min_value=1, max_value=50),
        scale=st.sampled_from([1e-150, 1.0, 1e150]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_equals_fresh_array_seeding_bit_for_bit(self, n, d, k, distinct, scale, seed):
        # duplicate points, and often k above the number of distinct points
        rng = np.random.default_rng(seed)
        points = rng.normal(scale=scale, size=(distinct, d))[rng.integers(distinct, size=n)]
        got = kmeanspp_seed(points, k, np.random.default_rng(seed))
        expected = fresh_array_seed(points, k, np.random.default_rng(seed))
        assert got.tobytes() == expected.tobytes()


class TestLloyd:
    def test_warm_start_keeps_empty_centroid_and_cold_repairs_it(self):
        points = np.array([[0.0], [0.1], [10.0], [10.1]])
        start = np.array([[0.0], [10.0], [1e6]])
        *_, (warm, assign) = lloyd(points, start, 5, lambda p, c: nearest(p, c)[0])
        assert warm[2, 0] == 1e6
        assert np.bincount(assign, minlength=3)[2] == 0
        *_, (cold, assign) = lloyd(points, start, 5, lambda p, c: _repair_empty(*nearest(p, c), 3))
        assert np.all(np.bincount(assign, minlength=3) > 0)
        assert cold[2, 0] < 1e6


def reference_repair_empty(assign, assigned_d, k):
    """Reference donor search: the global argmax, then a scan in stable
    descending order when that point's cluster has no member to spare."""
    counts = np.bincount(assign, minlength=k)
    for j in np.flatnonzero(counts == 0):
        donor = int(np.argmax(assigned_d))
        if counts[assign[donor]] <= 1:
            order = np.argsort(-assigned_d, kind="stable")
            for cand in order:
                if counts[assign[cand]] > 1:
                    donor = int(cand)
                    break
            else:
                break
        counts[assign[donor]] -= 1
        assign[donor] = j
        counts[j] = 1
        assigned_d[donor] = 0.0
    return assign


def assert_same_repair(assign, assigned_d, k):
    assign, assigned_d = np.asarray(assign, dtype=np.int64), np.asarray(assigned_d, dtype=float)
    got_a, got_d = assign.copy(), assigned_d.copy()
    ref_a, ref_d = assign.copy(), assigned_d.copy()
    assert np.array_equal(_repair_empty(got_a, got_d, k), reference_repair_empty(ref_a, ref_d, k))
    assert np.array_equal(got_a, ref_a)
    assert np.array_equal(got_d, ref_d)
    return got_a


class TestRepairEmpty:
    def test_several_empty_clusters_take_the_farthest_points(self):
        got = assert_same_repair([0, 0, 0, 1, 1, 1], [0.1, 0.9, 0.2, 0.7, 0.3, 0.8], 5)
        assert got.tolist() == [0, 2, 0, 4, 1, 3]

    def test_singleton_cluster_keeps_its_point(self):
        # the farthest points sit alone in clusters 0 and 1
        got = assert_same_repair([0, 1, 2, 2, 2], [9.0, 8.0, 1.0, 3.0, 2.0], 5)
        assert got.tolist() == [0, 1, 2, 3, 4]

    def test_tied_distances_go_to_the_lowest_index(self):
        got = assert_same_repair([2, 0, 1, 1, 1, 0], [5.0, 5.0, 5.0, 5.0, 1.0, 5.0], 4)
        assert got.tolist() == [2, 3, 1, 1, 1, 0]
        assert_same_repair([0, 0, 0, 0], [0.0, 0.0, 0.0, 0.0], 3)

    def test_more_empty_clusters_than_spare_points(self):
        got = assert_same_repair([0, 0, 1], [1.0, 2.0, 3.0], 5)
        assert got.tolist() == [0, 2, 1]
        assert np.bincount(got, minlength=5).tolist() == [1, 1, 1, 0, 0]

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        k=st.integers(min_value=1, max_value=12),
        levels=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_matches_the_reference(self, n, k, levels, seed):
        # few distance levels make many ties; few used clusters make singletons
        rng = np.random.default_rng(seed)
        used = rng.integers(1, k + 1)
        assert_same_repair(rng.integers(used, size=n), rng.integers(levels, size=n) / 2.0, k)


def plain_step(points, centroids):
    return nearest(points, centroids)[0]


def reference_kmeans_fit(points, k, iters, seed):
    """kmeans_fit's Lloyd loop with every label from ``nearest``."""
    start = kmeanspp_seed(points, k, np.random.default_rng(seed))
    steps = list(lloyd(points, start, iters, lambda p, c: _repair_empty(*nearest(p, c), k)))
    sse = [float(np.sum((points - c[lab]) ** 2)) for c, lab in steps]
    return steps[-1][0], steps[-1][1], sse


def assert_same_lloyd(points, start, iters=25):
    """Every (centroids, labels) of the bounded step equals the plain step's,
    and so do the codes of the final centroids; returns the step and how
    many times it was called."""
    step = BoundedNearest()
    bounded = list(lloyd(points, start, iters, step))
    plain = list(lloyd(points, start, iters, plain_step))
    assert len(bounded) == len(plain)
    for (bc, bl), (pc, pl) in zip(bounded, plain):
        assert np.array_equal(bc, pc)
        assert np.array_equal(bl, pl)
    final = plain[-1][0]
    assert np.array_equal(step(points, final), nearest(points, final)[0])
    return step, len(plain) + 1


def assert_same_fit(points, k, iters=25, seed=0):
    res = kmeans_fit(points, k, iters=iters, seed=seed)
    centroids, labels, sse = reference_kmeans_fit(np.asarray(points, dtype=float), k, iters, seed)
    assert np.array_equal(res.centroids, centroids)
    assert np.array_equal(res.assignments, labels)
    assert res.sse_per_iter == sse


def _lloyd_cases():
    rng = np.random.default_rng(40)
    points = rng.normal(size=(600, 6))
    yield "random", points, points[rng.choice(600, 24, replace=False)] + 0.1
    centers = rng.normal(scale=8.0, size=(12, 5))
    clustered = centers[rng.integers(12, size=900)] + rng.normal(scale=0.5, size=(900, 5))
    yield "clustered", clustered, clustered[rng.choice(900, 30, replace=False)]
    # an OPQ subspace: a non-contiguous column slice of rotated residuals
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    rotated = rng.normal(size=(700, 8)) @ q
    block = rotated[:, 4:8]
    yield "opq-column-slice", block, np.ascontiguousarray(block[:16]) * 0.9
    base = rng.normal(size=(7, 3))
    dup = base[rng.integers(7, size=300)]
    yield "duplicate-points", dup, rng.normal(size=(10, 3))
    table = rng.normal(size=(5, 3))
    yield "duplicate-centroids", rng.normal(size=(250, 3)), table[[0, 1, 2, 0, 3, 4, 1, 2]]
    yield "k-above-distinct-points", dup, dup[:12]
    yield "n-below-k", rng.normal(size=(4, 3)), rng.normal(size=(7, 3))
    yield "k1", rng.normal(size=(50, 2)), np.zeros((1, 2))
    # far from the origin the expanded distance cancels: every row is a near-tie
    far = 1e3 + rng.normal(scale=1e-3, size=(300, 4))
    yield "cancellation", far, far[:8] + 1e-4


class TestBoundedNearest:
    @pytest.mark.parametrize("case", list(_lloyd_cases()), ids=lambda c: c[0])
    def test_warm_lloyd_equals_plain_nearest(self, case):
        _, points, start = case
        assert_same_lloyd(points, start)

    @pytest.mark.parametrize("case", list(_lloyd_cases()), ids=lambda c: c[0])
    @pytest.mark.parametrize("entries", [37 * 23, 1], ids=["ragged-chunks", "one-row-chunks"])
    def test_warm_lloyd_equals_plain_nearest_in_small_chunks(self, monkeypatch, case, entries):
        monkeypatch.setattr(kmeans, "_CHUNK_ENTRIES", entries)
        _, points, start = case
        assert_same_lloyd(points, start)

    @pytest.mark.parametrize("case", list(_lloyd_cases()), ids=lambda c: c[0])
    def test_cold_fit_equals_plain_nearest(self, case):
        _, points, start = case
        assert_same_fit(points, start.shape[0], seed=3)

    def test_cold_fit_with_empty_cluster_repair(self):
        # six points and five clusters on two sites: every iteration repairs
        points = np.array([[0.0], [0.0], [0.0], [5.0], [5.0], [5.0]])
        assert_same_fit(points, 5)

    def test_pruning_skips_most_rows_once_settled(self):
        rng = np.random.default_rng(41)
        centers = rng.normal(scale=10.0, size=(20, 4))
        points = centers[rng.integers(20, size=2000)] + rng.normal(size=(2000, 4))
        step, calls = assert_same_lloyd(points, points[:20].copy())
        assert calls > 3
        assert step.full_rows < 0.5 * 2000 * calls

    def test_new_point_set_restarts_the_bounds(self):
        rng = np.random.default_rng(42)
        a, b, table = rng.normal(size=(80, 3)), rng.normal(size=(80, 3)), rng.normal(size=(6, 3))
        step = BoundedNearest()
        assert np.array_equal(step(a, table), nearest(a, table)[0])
        assert np.array_equal(step(b, table), nearest(b, table)[0])
        assert step.full_rows == 160

    @pytest.mark.parametrize("d, k", [(33, 597), (4, 37)])
    def test_duplicate_centroids_take_near_ties_from_exact_rows(self, monkeypatch, d, k):
        rng = np.random.default_rng(d + k)
        points, table = tied_table(rng, k, d, max(1, k // 3))
        settled = count_settled(monkeypatch)
        step = BoundedNearest()
        labels = step(points, table)
        assert step.tie_rows == sum(settled) > 0
        assert np.array_equal(labels, nearest(points, table)[0])

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        k=st.integers(min_value=1, max_value=10),
        distinct=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_tied_grids_fall_back_to_the_exact_block(self, n, k, distinct, seed):
        # integer grids make exact ties; point 0 sits on two equal centroids,
        # so its first row is a near-tie and must come from nearest's block
        rng = np.random.default_rng(seed)
        points = rng.integers(-2, 3, size=(n, 2)).astype(float)
        grid = rng.integers(-2, 3, size=(distinct, 2)).astype(float)
        start = np.concatenate([points[:1], grid[rng.integers(distinct, size=k)], points[:1]])
        step, _ = assert_same_lloyd(points, start)
        assert step.tie_rows > 0
        assert_same_fit(points, k + 2, seed=seed)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        k=st.integers(min_value=1, max_value=8),
        distinct=st.integers(min_value=1, max_value=4),
        kind=st.sampled_from(["grid", "duplicate"]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_bounds_hold_after_every_call(self, n, k, distinct, kind, seed):
        # after each Lloyd step, upper^2 is at least a point's exact squared
        # distance to its own centroid and lower^2 at most the one to every
        # other centroid, in Fractions, up to the bounds' own rounding (a
        # tightened upper bound is a rounded sqrt): 2^-40 of their squares.
        # Points 1e-8 off duplicated rows make the float64 distances round
        # by more than the distances themselves
        rng = np.random.default_rng(seed)
        if kind == "grid":
            points = rng.integers(-2, 3, size=(n, 2)).astype(float)
            table = rng.integers(-2, 3, size=(distinct, 2)).astype(float)
        else:
            table = rng.normal(size=(distinct, 3))
            points = table[rng.integers(distinct, size=n)] + rng.normal(scale=1e-8, size=(n, 3))
        start = table[rng.integers(distinct, size=k)]
        step, slack = BoundedNearest(), Fraction(1, 2**40)

        def checked(p, c):
            labels = step(p, c)
            for i, (point, own) in enumerate(zip(p.tolist(), labels.tolist())):
                exact = [sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(point, row))
                         for row in c.tolist()]
                assert Fraction(step._upper[i]) ** 2 * (1 + slack) >= exact.pop(own)
                if exact:  # the other centroids
                    assert Fraction(step._lower[i]) ** 2 * (1 - slack) <= min(exact)
            return labels

        list(lloyd(points, start, 25, checked))


def _balanced_cases():
    rng = np.random.default_rng(12)
    for n, k, d in [(1, 3, 2), (5, 9, 3), (40, 8, 4), (41, 8, 4), (97, 2, 3), (300, 16, 5),
                    (64, 64, 2), (500, 7, 8), (2, 2, 1)]:
        yield f"random-{n}x{k}", rng.normal(size=(n, d)), rng.normal(size=(k, d))
    base = rng.normal(size=(6, 3))
    yield "duplicate-points", base[rng.integers(6, size=90)], rng.normal(size=(8, 3))
    table = rng.normal(size=(4, 3))
    yield "duplicate-centroids", rng.normal(size=(70, 3)), table[[0, 1, 0, 2, 3, 1, 3, 2, 0]]
    yield "points-on-centroids", table[rng.integers(4, size=33)], table[[0, 1, 2, 3, 0, 1]]
    centers = rng.normal(scale=10.0, size=(5, 4))
    clustered = centers[rng.integers(5, size=400)] + rng.normal(scale=0.3, size=(400, 4))
    yield "clustered", clustered, clustered[rng.choice(400, size=12, replace=False)]
    yield "clustered-k2", clustered, centers[:2]
    # n * k > _CHUNK_ENTRIES, so the scan spans several row blocks
    grid = rng.integers(-3, 4, size=(40, 2)).astype(float)
    yield "tied-grid-blocks", grid[rng.integers(40, size=3000)], grid[rng.integers(40, size=128)]


class TestBalancedAssign:
    @pytest.mark.parametrize("case", list(_balanced_cases()), ids=lambda c: c[0])
    def test_equals_preference_walk(self, case):
        _, points, centroids = case
        expected = preference_walk_assign(points, centroids)
        assert _balanced_assign(points, centroids).tolist() == expected.tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        k=st.integers(min_value=1, max_value=12),
        distinct=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_equals_preference_walk_on_tied_grids(self, n, k, distinct, seed):
        # integer grids make many exact distance ties between centroids
        rng = np.random.default_rng(seed)
        points = rng.integers(-2, 3, size=(n, 2)).astype(float)
        grid = rng.integers(-2, 3, size=(distinct, 2)).astype(float)
        centroids = grid[rng.integers(distinct, size=k)]
        expected = preference_walk_assign(points, centroids)
        assert _balanced_assign(points, centroids).tolist() == expected.tolist()

    def test_peak_memory_below_one_point_one_matrices(self):
        rng = np.random.default_rng(34)
        points, centroids = rng.normal(size=(20_000, 32)), rng.normal(size=(512, 32))
        tracemalloc.start()
        try:
            _balanced_assign(points, centroids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 20000 x 512 matrix is 78.1 MiB; an argmin over the whole of it
        # copied it, for a peak of 2.0 matrices
        assert peak < 1.1 * 20_000 * 512 * 8


# sha256 of the small balanced fit below, recorded from the preference-walk
# assignment; it hashes float64 bytes, so a BLAS that rounds products
# differently changes it
GOLDEN_BALANCED_FIT = "573d19628f4920f1f5a9accd89dde65f4a5b05ef2c7dde0cc3d4a4748b9afbac"


class TestBalancedFitGolden:
    def test_small_balanced_fit_codebook_bytes(self):
        """Tables, rotation and fit SIDs of one small balanced fit, pinned so a
        refactor of the Lloyd loop or the balanced assignment shows any drift."""
        rng = np.random.default_rng(21)
        centers = rng.normal(scale=4.0, size=(12, 6))
        points = centers[rng.integers(12, size=360)] + rng.normal(size=(360, 6))
        cb = fit_codebook(points, (8, 6, 5), balanced_last=True, opq_subspaces=2, opq_codes=4,
                          iters=12, opq_outer_iters=3, seed=5)
        h = hashlib.sha256()
        for table in [*cb.rq.levels, cb.opq.rotation, *cb.opq.subspaces]:
            h.update(np.ascontiguousarray(table, dtype="<f8").tobytes())
        h.update("\n".join(s.render() for s in cb.fit_sids).encode())
        assert h.hexdigest() == GOLDEN_BALANCED_FIT


# sha256 of a warm-heavy OPQ fit (twelve warm Lloyd runs of 4 to 24
# iterations) and of an 18-iteration kmeans_fit, recorded with every label
# from nearest; they hash float64 bytes, so a BLAS that rounds products
# differently changes them
GOLDEN_OPQ_FIT = "a8c8ed33acdf6c2cf7f521d529901d1ff0eb05efe3f9aef5b6b94e1d6aebad11"
GOLDEN_KMEANS_FIT = "e9554b349680877a20dfaa769c8af9902e53805ca4d28a9d30064a142da0f770"


def _f8_sha256(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


class TestLloydFitGolden:
    def test_warm_heavy_opq_fit_bytes(self):
        rng = np.random.default_rng(31)
        centers = rng.normal(scale=3.0, size=(40, 8))
        residuals = centers[rng.integers(40, size=3000)] + rng.normal(size=(3000, 8))
        opq, stats = opq_fit(residuals, subspaces=2, codes_per_subspace=32, outer_iters=6,
                             seed=4, kmeans_iters=25)
        digest = _f8_sha256(opq.rotation, *opq.subspaces,
                            stats["mean_sq_error_per_outer_iter"])
        assert digest == GOLDEN_OPQ_FIT

    def test_multi_iteration_kmeans_fit_bytes(self):
        rng = np.random.default_rng(32)
        centers = rng.normal(scale=2.0, size=(30, 6))
        points = centers[rng.integers(30, size=4000)] + rng.normal(size=(4000, 6))
        res = kmeans_fit(points, 48, iters=25, seed=3)
        assert len(res.sse_per_iter) == 18
        digest = _f8_sha256(res.centroids, res.assignments.astype(np.float64), res.sse_per_iter)
        assert digest == GOLDEN_KMEANS_FIT


class TestKmeansFit:
    def test_k1_is_mean(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        res = kmeans_fit(pts, 1, seed=0)
        assert res.centroids.shape == (1, 1)
        assert res.centroids[0, 0] == pytest.approx(5.5)

    def test_k2_matches_exhaustive_partition_optimum(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        res = kmeans_fit(pts, 2, seed=0)
        assert sorted(res.centroids.ravel().tolist()) == [0.5, 10.5]
        assert res.sse == pytest.approx(best_two_partition_sse(pts))

    def test_identical_points_degenerate(self):
        pts = np.full((6, 3), 2.5)
        res = kmeans_fit(pts, 3, seed=1)
        assert np.allclose(res.centroids, 2.5)
        assert res.sse == 0.0

    def test_sse_non_increasing_across_iterations(self):
        rng = np.random.default_rng(5)
        for seed in range(5):
            pts = rng.normal(size=(60, 4))
            res = kmeans_fit(pts, 6, iters=25, seed=seed)
            diffs = np.diff(res.sse_per_iter)
            assert np.all(diffs <= 1e-9), res.sse_per_iter

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(40, 3))
        a = kmeans_fit(pts, 5, seed=9)
        b = kmeans_fit(pts, 5, seed=9)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            kmeans_fit(np.zeros((0, 2)), 2)

    def test_peak_memory_bounded_by_chunks(self):
        points = np.random.default_rng(33).normal(size=(20_000, 32))
        tracemalloc.start()
        try:
            kmeans_fit(points, 256, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the fit before the Lloyd bounds peaked at 15.02 MiB here: three
        # (n, d) temporaries in the SSE; one full 20000 x 256 distance matrix
        # alone would be 39 MiB
        assert peak < 15 * 2**20

    @pytest.mark.parametrize("fit", [kmeans_fit, balanced_kmeans_fit])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected_naming_first_row(self, fit, bad):
        points = np.random.default_rng(6).normal(size=(30, 3))
        points[7, 1] = bad
        points[12, 0] = bad
        for k in (2, 3):
            with pytest.raises(ValueError, match="point row 7 holds a non-finite value"):
                fit(points, k)

    @pytest.mark.parametrize("fit, n, k", [(kmeans_fit, 40, 4), (balanced_kmeans_fit, 40, 3),
                                           (balanced_kmeans_fit, 8, 2)])
    def test_one_dimensional_points_are_one_column(self, fit, n, k):
        x = np.random.default_rng(7).normal(size=n)
        flat, column = fit(x, k, seed=2), fit(x[:, None], k, seed=2)
        assert np.array_equal(flat.centroids, column.centroids)
        assert np.array_equal(flat.assignments, column.assignments)
        assert flat.sse_per_iter == column.sse_per_iter

    def test_k_exceeding_points_keeps_running(self):
        pts = np.array([[0.0], [1.0]])
        res = kmeans_fit(pts, 4, seed=0)
        assert res.centroids.shape == (4, 1)
        assert res.sse == pytest.approx(0.0)


class TestBalancedKmeansFit:
    def test_even_split_matches_balanced_oracle(self):
        pts = np.array([[0.0], [1.0], [10.0], [11.0]])
        res = balanced_kmeans_fit(pts, 2, seed=0)
        assert sorted(res.cluster_sizes().tolist()) == [2, 2]
        assert sorted(res.centroids.ravel().tolist()) == [0.5, 10.5]
        assert res.sse == pytest.approx(best_balanced_two_partition_sse(pts))

    def test_one_point_per_cluster(self):
        pts = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 5.0]])
        res = balanced_kmeans_fit(pts, 3, seed=4)
        assert sorted(res.cluster_sizes().tolist()) == [1, 1, 1]
        assert res.sse == pytest.approx(0.0)
        recovered = {tuple(c) for c in res.centroids}
        assert recovered == {tuple(p) for p in pts}

    def test_outlier_forces_mixed_cluster(self):
        pts = np.array([[0.0], [0.0], [0.0], [100.0]])
        res = balanced_kmeans_fit(pts, 2, seed=0)
        sizes = sorted(res.cluster_sizes().tolist())
        assert sizes == [2, 2]
        assert res.sse == pytest.approx(best_balanced_two_partition_sse(pts))
        # the outlier's cluster must also contain one zero
        outlier_cluster = res.assignments[3]
        assert int(np.sum(res.assignments == outlier_cluster)) == 2

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            balanced_kmeans_fit(np.zeros((0, 2)), 2)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        k=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_balance_invariant(self, n, k, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3))
        res = balanced_kmeans_fit(pts, k, iters=10, seed=seed)
        sizes = res.cluster_sizes()
        if n >= k:
            assert sizes.max() - sizes.min() <= 1
        else:
            assert sizes.max() <= 1

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(30, 2))
        a = balanced_kmeans_fit(pts, 4, seed=7)
        b = balanced_kmeans_fit(pts, 4, seed=7)
        assert np.array_equal(a.centroids, b.centroids)
        assert np.array_equal(a.assignments, b.assignments)

    def test_near_optimal_on_tiny_instances(self):
        rng = np.random.default_rng(11)
        for trial in range(50):
            n = int(rng.integers(4, 13))
            pts = rng.normal(size=(n, 2))
            res = balanced_kmeans_fit(pts, 2, seed=trial)
            opt = best_balanced_two_partition_sse(pts)
            assert res.sse <= opt * 1.05 + 1e-9, (trial, res.sse, opt)
