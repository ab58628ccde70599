import math

import numpy as np
import pytest

from sidforge.identity import (
    BehaviorSequence,
    ClickStat,
    GLOBAL_FALLBACK,
    LongSeqAggregate,
    UserSid,
    aggregate_long,
    assemble_prompt,
    build_user_sid,
    decay_weights,
    default_sequence,
    parse_prompt,
)
from sidforge.quantizer import fit_codebook, lookup_centroids
from sidforge.sids import Sid, SidScheme

SCHEME = SidScheme((32, 32, 32), (32, 32))


def sid(*digits):
    return Sid(tuple(digits[:3]), tuple(digits[3:]))


class TestDecayWeights:
    def test_single_position(self):
        assert decay_weights(1).tolist() == [1.0]

    def test_two_position_hand_values(self):
        # frozen from a 40-digit mpmath evaluation of
        # exp(sqrt(i)) / (exp(sqrt(1)) + exp(sqrt(2)))
        lam = decay_weights(2)
        assert lam[0] == pytest.approx(0.3979022195895451, abs=1e-12)
        assert lam[1] == pytest.approx(0.6020977804104549, abs=1e-12)

    def test_positive_sum_one_increasing(self):
        for m in (1, 2, 5, 17, 50):
            lam = decay_weights(m)
            assert np.all(lam > 0)
            assert lam.sum() == pytest.approx(1.0)
            assert np.all(np.diff(lam) > 0)

    def test_caller_cannot_change_a_later_user_sid(self):
        short = BehaviorSequence((sid(10, 10, 10, 10, 10), sid(20, 20, 20, 20, 20)))
        long = BehaviorSequence((sid(1, 2, 3, 4, 5),), "long_click")
        before = build_user_sid(short, long, SCHEME)
        lam = decay_weights(2)
        with pytest.raises(ValueError, match="read-only"):
            lam[:] = [1.0, 0.0]
        assert build_user_sid(short, long, SCHEME) == before


class TestBuildUserSid:
    def test_single_item_sequences_pass_through(self):
        s = sid(3, 5, 7, 9, 11)
        user = build_user_sid(
            BehaviorSequence((s,), "short_click"),
            BehaviorSequence((s,), "long_click"),
            SCHEME,
        )
        assert user.short_part == s.digits
        assert user.long_part == s.digits

    def test_two_item_weighted_ceiling(self):
        # weighted digit = 10 * 0.39790... + 20 * 0.60209... = 16.0209647...
        older, recent = sid(10, 10, 10, 10, 10), sid(20, 20, 20, 20, 20)
        user = build_user_sid(
            BehaviorSequence((older, recent), "short_click"),
            BehaviorSequence((recent,), "long_click"),
            SCHEME,
        )
        assert user.short_part == (17, 17, 17, 17, 17)

    def test_shared_sid_is_exact(self):
        s = sid(4, 4, 4, 4, 4)
        user = build_user_sid(
            BehaviorSequence((s,) * 7, "short_click"),
            BehaviorSequence((s,) * 3, "long_click"),
            SCHEME,
        )
        assert user.short_part == s.digits
        assert user.long_part == s.digits

    def test_ceiling_clamped_to_vocabulary(self):
        top = sid(31, 31, 31, 31, 31)
        user = build_user_sid(
            BehaviorSequence((top, top), "short_click"),
            BehaviorSequence((top,), "long_click"),
            SCHEME,
        )
        assert user.short_part == top.digits

    def test_digit_within_contributing_range_plus_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            items = tuple(
                sid(*(int(rng.integers(32)) for _ in range(5)))
                for _ in range(int(rng.integers(1, 8)))
            )
            user = build_user_sid(
                BehaviorSequence(items, "short_click"),
                BehaviorSequence(items, "long_click"),
                SCHEME,
            )
            digit_matrix = np.array([s.digits for s in items])
            lo = digit_matrix.min(axis=0)
            hi = digit_matrix.max(axis=0)
            for pos, d in enumerate(user.short_part):
                assert lo[pos] <= d <= min(hi[pos] + 1, 31)

    def test_empty_sequence_rejected(self):
        s = sid(1, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="nonempty"):
            build_user_sid(
                BehaviorSequence((), "short_click"),
                BehaviorSequence((s,), "long_click"),
                SCHEME,
            )

    def test_kind_length_bound_enforced(self):
        s = sid(1, 1, 1, 1, 1)
        with pytest.raises(ValueError, match="exceeds"):
            BehaviorSequence((s,) * 501, "short_click")
        assert len(BehaviorSequence((s,) * 501, "long_click")) == 501

    def test_truncates_to_most_recent_fifty(self):
        old = sid(0, 0, 0, 0, 0)
        new = sid(9, 9, 9, 9, 9)
        items = (old,) * 30 + (new,) * 50
        user = build_user_sid(
            BehaviorSequence(items, "short_click"),
            BehaviorSequence((new,), "long_click"),
            SCHEME,
        )
        assert user.short_part == new.digits


class TestDefaultSequence:
    STATS = {
        "shoes": [
            ClickStat("a", sid(1, 1, 1, 1, 1), 50),
            ClickStat("b", sid(2, 2, 2, 2, 2), 90),
            ClickStat("c", sid(3, 3, 3, 3, 3), 90),
        ],
        GLOBAL_FALLBACK: [ClickStat("z", sid(7, 7, 7, 7, 7), 1)],
    }

    def test_ranked_by_page_views(self):
        seq = default_sequence("shoes", self.STATS)
        # pv 90 ties broken by item id: b before c, then a
        assert [s.digits[0] for s in seq.items] == [2, 3, 1]

    def test_unseen_query_uses_fallback(self):
        seq = default_sequence("hats", self.STATS)
        assert [s.digits[0] for s in seq.items] == [7]

    def test_no_stats_no_fallback_rejected(self):
        with pytest.raises(ValueError, match="no click stats"):
            default_sequence("hats", {"shoes": self.STATS["shoes"]})


@pytest.fixture(scope="module")
def cb():
    rng = np.random.default_rng(1)
    return fit_codebook(rng.normal(size=(40, 4)), (4, 3, 2), balanced_last=False,
                        opq_subspaces=2, opq_codes=2, seed=0)


class TestAggregateLong:
    def seq(self, cb, kind, *rq_codes):
        return BehaviorSequence(tuple(Sid(rq, (0, 0)) for rq in rq_codes), kind)

    def test_single_item_equals_its_centroids(self, cb):
        agg = aggregate_long(
            self.seq(cb, "long_click", (1, 2, 1)),
            self.seq(cb, "long_order"),
            self.seq(cb, "long_rsu"),
            cb,
        )
        cents = lookup_centroids(Sid((1, 2, 1), (0, 0)), cb)
        for level in range(3):
            assert np.allclose(agg.click[level], cents[level])
            assert np.allclose(agg.order[level], 0.0)

    def test_repetition_doubles(self, cb):
        once = aggregate_long(self.seq(cb, "long_click", (0, 1, 0)),
                              self.seq(cb, "long_order"), self.seq(cb, "long_rsu"), cb)
        twice = aggregate_long(self.seq(cb, "long_click", (0, 1, 0), (0, 1, 0)),
                               self.seq(cb, "long_order"), self.seq(cb, "long_rsu"), cb)
        for level in range(3):
            assert np.allclose(twice.click[level], 2 * once.click[level])

    def test_matches_direct_loop_oracle(self, cb):
        rng = np.random.default_rng(2)
        codes = [(int(rng.integers(4)), int(rng.integers(3)), int(rng.integers(2)))
                 for _ in range(10)]
        agg = aggregate_long(self.seq(cb, "long_click", *codes),
                             self.seq(cb, "long_order"), self.seq(cb, "long_rsu"), cb)
        for level in range(3):
            expected = np.zeros(4)
            for rq in codes:
                expected += cb.rq.levels[level][rq[level]]
            assert np.allclose(agg.click[level], expected)

    def test_additive_under_concatenation(self, cb):
        a = [(1, 0, 1), (2, 2, 0)]
        b = [(3, 1, 1)]
        agg_a = aggregate_long(self.seq(cb, "long_click", *a),
                               self.seq(cb, "long_order"), self.seq(cb, "long_rsu"), cb)
        agg_b = aggregate_long(self.seq(cb, "long_click", *b),
                               self.seq(cb, "long_order"), self.seq(cb, "long_rsu"), cb)
        agg_ab = aggregate_long(self.seq(cb, "long_click", *(a + b)),
                                self.seq(cb, "long_order"), self.seq(cb, "long_rsu"), cb)
        for level in range(3):
            assert np.allclose(agg_ab.click[level], agg_a.click[level] + agg_b.click[level])

    def test_nine_rows_named_by_source_and_level(self, cb):
        agg = aggregate_long(self.seq(cb, "long_click", (0, 0, 0)),
                             self.seq(cb, "long_order"), self.seq(cb, "long_rsu"), cb)
        names = [name for name, _ in agg.as_rows()]
        assert names == ["click.L1", "click.L2", "click.L3",
                         "order.L1", "order.L2", "order.L3",
                         "rsu.L1", "rsu.L2", "rsu.L3"]

    def test_out_of_range_sid_rejected(self, cb):
        with pytest.raises(ValueError, match="outside"):
            aggregate_long(
                BehaviorSequence((Sid((99, 0, 0), (0, 0)),), "long_click"),
                self.seq(cb, "long_order"), self.seq(cb, "long_rsu"), cb,
            )


class TestPromptAssembly:
    USER = UserSid((1, 2, 3, 4, 5), (6, 7, 8, 9, 10))
    QSID = Sid((11, 12, 13), (14, 15))

    def test_round_trip_full(self):
        recent = (Sid((1, 1, 1), (1, 1)), Sid((2, 2, 2), (2, 2)))
        clicks = (Sid((3, 3, 3), (3, 3)),)
        tokens = assemble_prompt(self.USER, "red shoes", self.QSID, recent, clicks)
        parsed = parse_prompt(tokens, SCHEME)
        assert parsed.user == self.USER
        assert parsed.query_text == "red shoes"
        assert parsed.query_sid == self.QSID
        assert parsed.recent_queries == recent
        assert parsed.short_clicks == clicks

    def test_empty_histories_collapse_separators(self):
        tokens = assemble_prompt(self.USER, "red shoes", self.QSID)
        assert tokens.count("[SEP]") == 2
        assert "q>" not in tokens and "i>" not in tokens
        parsed = parse_prompt(tokens, SCHEME)
        assert parsed.recent_queries == ()
        assert parsed.short_clicks == ()

    def test_single_history_round_trips(self):
        clicks = (Sid((3, 3, 3), (3, 3)),)
        tokens = assemble_prompt(self.USER, "q", self.QSID, short_clicks=clicks)
        parsed = parse_prompt(tokens, SCHEME)
        assert parsed.recent_queries == ()
        assert parsed.short_clicks == clicks

    def test_byte_identical_across_runs(self):
        a = assemble_prompt(self.USER, "red shoes", self.QSID)
        b = assemble_prompt(self.USER, "red shoes", self.QSID)
        assert " ".join(a) == " ".join(b)

    def test_reserved_token_in_query_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            assemble_prompt(self.USER, "red [SEP] shoes", self.QSID)
