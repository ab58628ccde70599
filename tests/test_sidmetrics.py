import re
from collections import Counter

import numpy as np
import pytest

from sidforge.quantizer import encode_batch, fit_codebook
from sidforge.sidmetrics import DriftStep, cur, drift_report, icr
from sidforge.sids import Sid, SidCatalog, SidScheme

SCHEME3 = SidScheme((4, 4, 4))


def catalog_of(sids, scheme=SCHEME3):
    return SidCatalog({f"i{n}": sid for n, sid in enumerate(sids)}, scheme)


def brute_cur(catalog, prefix_len):
    seen = {tuple(sid.rq[:prefix_len]) for sid in catalog.entries.values()}
    denom = 1
    for w in catalog.scheme.rq_sizes[:prefix_len]:
        denom *= w
    return len(seen) / denom


def brute_icr(catalog, use_opq):
    keys = [sid.digits if use_opq else sid.rq for sid in catalog.entries.values()]
    counts = Counter(keys)
    return sum(1 for k in keys if counts[k] == 1) / len(keys)


class TestCur:
    def test_level1_direct_count(self):
        cat = catalog_of([Sid((1, 0, 0)), Sid((1, 1, 0)), Sid((2, 0, 0))])
        assert cur(cat, 1) == pytest.approx(2 / 4)

    def test_all_identical_total(self):
        cat = catalog_of([Sid((1, 2, 3))] * 5)
        assert cur(cat, 3) == pytest.approx(1 / (4 * 4 * 4))

    def test_matches_recount_oracle_on_random_catalogs(self):
        rng = np.random.default_rng(0)
        scheme = SidScheme((5, 3, 4), (2, 2))
        for _ in range(10):
            sids = [
                Sid(tuple(int(rng.integers(w)) for w in scheme.rq_sizes),
                    tuple(int(rng.integers(w)) for w in scheme.opq_sizes))
                for _ in range(rng.integers(1, 60))
            ]
            cat = SidCatalog({f"i{n}": s for n, s in enumerate(sids)}, scheme)
            for p in (1, 2, 3):
                assert cur(cat, p) == pytest.approx(brute_cur(cat, p))

    def test_prefix_len_bounds(self):
        cat = catalog_of([Sid((0, 0, 0))])
        with pytest.raises(ValueError):
            cur(cat, 0)
        with pytest.raises(ValueError):
            cur(cat, 4)

    def test_distinct_prefix_count_non_decreasing_in_prefix_len(self):
        rng = np.random.default_rng(1)
        sids = [Sid(tuple(int(rng.integers(4)) for _ in range(3))) for _ in range(40)]
        cat = catalog_of(sids)
        counts = [
            len({sid.rq[:p] for sid in cat.entries.values()}) for p in (1, 2, 3)
        ]
        assert counts[0] <= counts[1] <= counts[2]


class TestIcr:
    def test_hand_collision_case(self):
        cat = catalog_of([Sid((1, 1, 1)), Sid((1, 1, 1)), Sid((2, 1, 1))])
        assert icr(cat, use_opq=False) == pytest.approx(1 / 3)

    def test_all_distinct(self):
        cat = catalog_of([Sid((0, 0, 0)), Sid((1, 0, 0)), Sid((2, 2, 2))])
        assert icr(cat, use_opq=False) == 1.0

    def test_all_identical(self):
        cat = catalog_of([Sid((1, 1, 1))] * 4)
        assert icr(cat, use_opq=False) == 0.0

    def test_opq_digits_never_lower_icr(self):
        rng = np.random.default_rng(2)
        scheme = SidScheme((3, 3), (2,))
        for _ in range(20):
            sids = [
                Sid((int(rng.integers(3)), int(rng.integers(3))), (int(rng.integers(2)),))
                for _ in range(rng.integers(2, 40))
            ]
            cat = SidCatalog({f"i{n}": s for n, s in enumerate(sids)}, scheme)
            assert icr(cat, use_opq=True) >= icr(cat, use_opq=False)
            assert icr(cat, True) == pytest.approx(brute_icr(cat, True))
            assert icr(cat, False) == pytest.approx(brute_icr(cat, False))


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(3)
    centers = rng.normal(0, 10, size=(6, 4))
    vecs = np.repeat(centers, 8, axis=0) + rng.normal(0, 0.3, size=(48, 4))
    cb = fit_codebook(vecs, (4, 3), balanced_last=True, opq_subspaces=2, opq_codes=2, seed=0)
    baseline = SidCatalog(
        {f"b{n}": s for n, s in enumerate(encode_batch(vecs, cb))}, cb.scheme
    )
    return cb, baseline, vecs


class TestDriftReport:
    def test_duplicate_batch_fully_occupied(self, fitted):
        cb, baseline, vecs = fitted
        steps = drift_report(cb, baseline, [vecs[:10]])
        assert steps[0].occupied_ratio == 1.0

    def test_icr_matches_from_scratch_recount(self, fitted):
        cb, baseline, vecs = fitted
        rng = np.random.default_rng(4)
        batches = [rng.normal(0, 10, size=(12, 4)) for _ in range(3)]
        steps = drift_report(cb, baseline, batches)
        cumulative = dict(baseline.entries)
        for b, (batch, step) in enumerate(zip(batches, steps)):
            for n, sid in enumerate(encode_batch(batch, cb)):
                cumulative[f"n{b}_{n}"] = sid
            fresh = SidCatalog(cumulative, cb.scheme)
            assert step.icr == pytest.approx(icr(fresh, use_opq=True))
            assert step.cumulative_size == len(cumulative)

    @pytest.mark.parametrize("use_opq", [True, False])
    def test_steps_equal_per_sid_counting(self, fitted, use_opq):
        cb, baseline, vecs = fitted
        rng = np.random.default_rng(5)
        batches = [vecs[rng.integers(48, size=9)], rng.normal(0, 10, size=(15, 4)), vecs[:3]]
        key = (lambda sid: sid.digits) if use_opq else (lambda sid: sid.rq)
        counts = Counter(key(sid) for sid in baseline.entries.values())
        total, expected = len(baseline), []
        for b, batch in enumerate(batches):
            keys = [key(sid) for sid in encode_batch(batch, cb)]
            hits = sum(k in counts for k in keys)
            counts.update(keys)
            total += len(keys)
            unique = sum(c for c in counts.values() if c == 1)
            expected.append(DriftStep(b, len(keys), total, unique / total, hits / len(keys)))
        assert drift_report(cb, baseline, batches, use_opq=use_opq) == expected

    def test_bad_batch_named(self, fitted):
        cb, baseline, vecs = fitted
        bad = vecs[:4].copy()
        bad[2, 1] = np.nan
        with pytest.raises(ValueError, match=r"batch 1 row 2 holds a non-finite value"):
            drift_report(cb, baseline, [vecs[:4], bad])

    def test_empty_batch_rejected(self, fitted):
        cb, baseline, _ = fitted
        with pytest.raises(ValueError):
            drift_report(cb, baseline, [np.zeros((0, 4))])
        with pytest.raises(ValueError):
            drift_report(cb, baseline, [])

    def test_baseline_of_another_scheme_rejected(self, fitted):
        cb, baseline, vecs = fitted
        hierarchy_only = SidCatalog({i: Sid(s.rq) for i, s in baseline.entries.items()},
                                    SidScheme(cb.scheme.rq_sizes))
        with pytest.raises(ValueError, match=re.escape(
                f"baseline {hierarchy_only.scheme} is not the codebook's {cb.scheme}")):
            drift_report(cb, hierarchy_only, [vecs[:10]])

    def test_dimension_mismatch_rejected(self, fitted):
        cb, baseline, _ = fitted
        with pytest.raises(ValueError, match="dim"):
            drift_report(cb, baseline, [np.zeros((3, 7))])


class TestCurGrowthMonotone:
    def test_cur_non_decreasing_as_catalog_grows(self, fitted):
        cb, _, _ = fitted
        rng = np.random.default_rng(7)
        sids = encode_batch(rng.normal(0, 10, size=(60, 4)), cb)
        prev = 0.0
        for size in (5, 15, 30, 60):
            cat = SidCatalog({f"i{n}": s for n, s in enumerate(sids[:size])}, cb.scheme)
            value = cur(cat, 2)
            assert value >= prev
            prev = value
