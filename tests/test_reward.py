import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sidforge.reward import (
    BASE_WEIGHTS,
    BuildStats,
    DpoConfig,
    InteractionRecord,
    PreferenceList,
    RerankRecord,
    build_preference_lists,
    calibrated_rates,
    listwise_dpo_loss,
    preference_delta,
    read_interactions,
    read_preference_lists,
    reward_score,
    rscore,
    write_preference_lists,
)


def plain_rates_oracle(pos, clk, order, base):
    """Independent arithmetic in an arbitrary log base."""
    lp = math.log(pos + 10, base)
    lc = math.log(clk + 10, base)
    lo = math.log(order + 10, base)
    return lc / (lp + lc + lo), lo / lc


class TestCalibratedRates:
    def test_zero_counts(self):
        ctr, cvr = calibrated_rates(InteractionRecord("q", "i", 3))
        assert ctr == pytest.approx(1 / 3, abs=1e-12)
        assert cvr == pytest.approx(1.0, abs=1e-12)

    def test_ninety_ninety_zero(self):
        ctr, cvr = calibrated_rates(InteractionRecord("q", "i", 3, 90, 90, 0))
        assert ctr == pytest.approx(0.4, abs=1e-12)
        assert cvr == pytest.approx(0.5, abs=1e-12)

    def test_base_invariance(self):
        rec = InteractionRecord("q", "i", 2, 123, 45, 6)
        ctr, cvr = calibrated_rates(rec)
        for base in (10.0, 2.0, math.e):
            octr, ocvr = plain_rates_oracle(123, 45, 6, base)
            assert ctr == pytest.approx(octr, abs=1e-12)
            assert cvr == pytest.approx(ocvr, abs=1e-12)

    def test_random_records_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            pos, clk, order = (int(rng.integers(0, 10_000)) for _ in range(3))
            rec = InteractionRecord("q", "i", 1, pos, clk, order)
            ctr, cvr = calibrated_rates(rec)
            octr, ocvr = plain_rates_oracle(pos, clk, order, 10.0)
            assert abs(ctr - octr) < 1e-12
            assert abs(cvr - ocvr) < 1e-12

    def test_ranges_and_monotonicity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            pos, clk, order = (int(rng.integers(0, 1000)) for _ in range(3))
            ctr, cvr = calibrated_rates(InteractionRecord("q", "i", 1, pos, clk, order))
            assert 0 < ctr <= 1
            assert cvr > 0
            if order <= clk:
                assert cvr <= 1
            up_ctr, _ = calibrated_rates(InteractionRecord("q", "i", 1, pos, clk + 1, order))
            assert up_ctr > ctr
            _, up_cvr = calibrated_rates(InteractionRecord("q", "i", 1, pos, clk, order + 1))
            assert up_cvr > cvr


class TestRewardScore:
    def test_level6_zero_weight(self):
        assert reward_score(InteractionRecord("q", "i", 6, 500, 400, 300)) == 0.0

    def test_zero_count_level3_is_half(self):
        assert reward_score(InteractionRecord("q", "i", 3)) == pytest.approx(0.5, abs=1e-12)

    def test_ninety_ninety_zero_level3(self):
        r = reward_score(InteractionRecord("q", "i", 3, 90, 90, 0))
        assert r == pytest.approx(2 * 0.2 / 0.9, abs=1e-12)

    def test_monotone_in_level_weight(self):
        rec = lambda lvl: InteractionRecord("q", "i", lvl, 50, 20, 5)
        scores = [reward_score(rec(lvl)) for lvl in range(1, 7)]
        assert scores == sorted(scores, reverse=True)
        assert scores[5] == 0.0
        assert all(s > 0 for s in scores[:5])

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            InteractionRecord("q", "i", 7)


class TestPreferenceDelta:
    def test_half_gap(self):
        assert preference_delta(1.0, 0.5) == pytest.approx(2.0)

    def test_equal_rewards_clamp(self):
        assert preference_delta(0.7, 0.7) == pytest.approx(1000.0)

    def test_two_gap(self):
        assert preference_delta(2.0, 0.0) == pytest.approx(0.5)

    def test_ordering_violation_rejected(self):
        with pytest.raises(ValueError, match="ordering"):
            preference_delta(0.1, 0.2)

    def test_smaller_gap_larger_weight(self):
        assert preference_delta(1.0, 0.9) > preference_delta(1.0, 0.1)


class TestRscore:
    def test_direct_arithmetic(self):
        assert rscore(0.1, 0.2, 0.3, 0.4) == pytest.approx(4.6, abs=1e-12)

    def test_relevance_amplified_tenfold(self):
        base = rscore(0.5, 0.5, 0.5, 0.0)
        assert rscore(0.5, 0.5, 0.5, 0.5) == pytest.approx(base + 5.0)

    def test_all_zero(self):
        assert rscore(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            rscore(float("nan"), 0, 0, 0)


class TestListwiseDpoLoss:
    def test_policy_equals_reference_single_loser(self):
        cfg = DpoConfig(beta=0.1, alpha=0.0, delta_margin=0.1)
        loss = listwise_dpo_loss(-1.0, -1.0, [-2.0], [-2.0], [1.0], cfg)
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_two_losers_inactive_hinge(self):
        cfg = DpoConfig(beta=0.1, alpha=0.0, delta_margin=0.5)
        loss = listwise_dpo_loss(0.0, 0.0, [0.0, 0.0], [0.0, 0.0], [1.0, 2.0], cfg)
        # both hinge terms zero: aggregate = log(2), sigma(log 2) = 2/3
        assert loss == pytest.approx(-math.log(2 / 3), abs=1e-12)

    def test_alpha_term_is_linear_nll(self):
        cfg0 = DpoConfig(beta=0.1, alpha=0.25, delta_margin=0.1)
        at_zero = listwise_dpo_loss(0.0, 0.0, [0.0], [0.0], [1.0], cfg0)
        assert at_zero == pytest.approx(math.log(2), abs=1e-12)
        shifted = listwise_dpo_loss(-1.0, -1.0, [0.0], [0.0], [1.0], cfg0)
        # policy/ref gap unchanged, so only the alpha term moves: +0.25
        assert shifted == pytest.approx(math.log(2) + 0.25, abs=1e-12)

    def test_loser_permutation_invariance(self):
        cfg = DpoConfig(beta=0.2, alpha=0.05, delta_margin=0.05)
        pl = [-1.0, -3.0, -2.2]
        rl = [-1.5, -2.0, -2.5]
        dw = [0.5, 2.0, 1.25]
        a = listwise_dpo_loss(-0.5, -1.0, pl, rl, dw, cfg)
        perm = [2, 0, 1]
        b = listwise_dpo_loss(-0.5, -1.0, [pl[i] for i in perm],
                              [rl[i] for i in perm], [dw[i] for i in perm], cfg)
        assert a == pytest.approx(b, abs=1e-12)

    def test_winner_advantage_monotonicity_by_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-5
        violations = 0
        for _ in range(100):
            cfg = DpoConfig(
                beta=float(rng.uniform(0.05, 1.0)),
                alpha=float(rng.uniform(0.01, 0.5)),
                delta_margin=float(rng.uniform(0.0, 0.3)),
            )
            n = int(rng.integers(1, 5))
            pw = float(rng.uniform(-3, 0))
            refw = float(rng.uniform(-3, 0))
            pl = rng.uniform(-4, 0, size=n).tolist()
            rl = rng.uniform(-4, 0, size=n).tolist()
            dw = rng.uniform(0.2, 3.0, size=n).tolist()
            up = listwise_dpo_loss(pw + h, refw, pl, rl, dw, cfg)
            down = listwise_dpo_loss(pw - h, refw, pl, rl, dw, cfg)
            if (up - down) / (2 * h) >= 0:
                violations += 1
        assert violations == 0

    def test_non_finite_rejected(self):
        cfg = DpoConfig()
        with pytest.raises(ValueError):
            listwise_dpo_loss(float("inf"), 0.0, [0.0], [0.0], [1.0], cfg)

    def test_empty_losers_rejected(self):
        with pytest.raises(ValueError):
            listwise_dpo_loss(0.0, 0.0, [], [], [], DpoConfig())

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=6),
        beta=st.floats(min_value=0.01, max_value=2.0),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        delta=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_permutation_invariance_property(self, seed, n, beta, alpha, delta):
        rng = np.random.default_rng(seed)
        cfg = DpoConfig(beta=beta, alpha=alpha, delta_margin=delta)
        pw, refw = float(rng.uniform(-4, 0)), float(rng.uniform(-4, 0))
        pl = rng.uniform(-5, 0, size=n).tolist()
        rl = rng.uniform(-5, 0, size=n).tolist()
        dw = rng.uniform(0.1, 4.0, size=n).tolist()
        perm = rng.permutation(n).tolist()
        a = listwise_dpo_loss(pw, refw, pl, rl, dw, cfg)
        b = listwise_dpo_loss(pw, refw, [pl[i] for i in perm],
                              [rl[i] for i in perm], [dw[i] for i in perm], cfg)
        assert a == pytest.approx(b, abs=1e-12)

    @given(
        pos=st.integers(min_value=0, max_value=10**6),
        clk=st.integers(min_value=0, max_value=10**6),
        order=st.integers(min_value=0, max_value=10**6),
        level=st.integers(min_value=1, max_value=6),
    )
    def test_reward_score_bounds_property(self, pos, clk, order, level):
        rec = InteractionRecord("q", "i", level, pos, clk, order)
        r = reward_score(rec)
        assert r >= 0.0
        assert (r == 0.0) == (level == 6)


class TestBuildPreferenceLists:
    def test_promotion_with_two_demotions(self):
        # w jumps 5 -> 1; a and c demote; b and d hold position
        rr = RerankRecord("q1", ("a", "b", "c", "d", "w"), ("w", "b", "a", "d", "c"))
        lists, stats = build_preference_lists([], [rr])
        assert stats.lists_built == 1
        (pl,) = lists
        assert pl.winner == "w"
        assert sorted(pl.losers) == ["a", "c"]
        assert len(pl.delta_weights) == 2

    def test_purchase_vs_unshown_pair(self):
        recs = [
            InteractionRecord("q2", "bought", 1, 100, 60, 30),
            InteractionRecord("q2", "unseen", 5, 0, 0, 0),
        ]
        lists, stats = build_preference_lists(recs)
        assert stats.lists_built == 1
        (pl,) = lists
        assert pl.winner == "bought"
        assert pl.losers == ["unseen"]
        r_w = reward_score(recs[0])
        r_l = reward_score(recs[1])
        assert pl.delta_weights[0] == pytest.approx(preference_delta(r_w, r_l))

    def test_no_changes_no_clicks_no_lists(self):
        rr = RerankRecord("q3", ("a", "b"), ("a", "b"))
        recs = [InteractionRecord("q3", "a", 4, 10, 0, 0)]
        lists, stats = build_preference_lists(recs, [rr])
        assert lists == []

    def test_clicked_item_preferred_over_promotion(self):
        rr = RerankRecord("q4", ("a", "b", "c"), ("b", "c", "a"))
        recs = [InteractionRecord("q4", "c", 3, 50, 40, 0)]
        lists, _ = build_preference_lists(recs, [rr])
        phase_a = [pl for pl in lists if pl.losers == ["a"]]
        assert phase_a and phase_a[0].winner == "c"

    def test_sid_rendering_when_lookup_given(self):
        from sidforge.sids import Sid

        recs = [
            InteractionRecord("q5", "x", 1, 10, 5, 2),
            InteractionRecord("q5", "y", 6, 10, 0, 0),
        ]
        sids = {"x": Sid((1, 2, 3), (4, 5)), "y": Sid((9, 8, 7), (6, 5))}
        lists, _ = build_preference_lists(recs, sids=sids)
        assert lists[0].winner == "1,2,3,4,5"
        assert lists[0].losers == ["9,8,7,6,5"]

    def test_bad_pairs_and_loserless_lists_in_both_phases(self):
        """Pins lists and all three counters on inputs where each phase drops
        a bad pair, keeps a list with its remaining losers and skips a list
        whose every loser was a bad pair."""
        recs = [
            # rerank queries: y and u outrank the promoted winner (bad pairs)
            InteractionRecord("qa", "y", 1, 0, 0, 0),
            InteractionRecord("qb", "u", 2, 0, 0, 0),
            InteractionRecord("qd", "c", 3, 50, 40, 0),
            # interaction-only queries
            InteractionRecord("q1", "bought", 1, 100, 60, 30),
            InteractionRecord("q1", "unseen", 5, 0, 0, 0),
            InteractionRecord("q1", "exposed", 4, 20, 0, 0),
            InteractionRecord("q2", "clicky", 3, 0, 10**9, 0),
            InteractionRecord("q2", "shown", 4, 0, 0, 0),
            InteractionRecord("q2", "other", 6, 0, 0, 0),
            InteractionRecord("q3", "clicky", 3, 0, 10**9, 0),
            InteractionRecord("q3", "shown", 4, 0, 0, 0),
            InteractionRecord("q4", "shown", 4, 0, 0, 0),
        ]
        by_id = {(r.query_id, r.item_id): r for r in recs}
        assert reward_score(by_id["q2", "clicky"]) < reward_score(by_id["q2", "shown"])
        reranks = [
            RerankRecord("qa", ("y", "z", "w"), ("w", "y", "z")),   # y bad, z kept
            RerankRecord("qb", ("u", "v"), ("v", "u")),             # u bad: no loser left
            RerankRecord("qc", ("a", "b"), ("a", "b")),             # nothing moved
            RerankRecord("qd", ("a", "b", "c"), ("b", "c", "a")),   # clicked c wins
        ]
        lists, stats = build_preference_lists(recs, reranks)

        def r(query, item):
            rec = by_id.get((query, item), InteractionRecord(query, item, 4))
            return reward_score(rec)

        def pl(query, winner, losers):
            return PreferenceList(query, winner, losers, [
                preference_delta(r(query, winner), r(query, i)) for i in losers])

        assert lists == [
            pl("qa", "w", ["z"]),
            pl("qd", "c", ["a"]),
            pl("q1", "bought", ["exposed", "unseen"]),
            pl("q2", "clicky", ["other"]),
        ]
        # bad pairs: qa/y, qb/u, q2/shown, q3/shown; no loser: qb, qc, q3, and
        # the interaction-only pass over qa, qb, qd (positives only) and q4
        assert stats == BuildStats(lists_built=4, skipped_no_loser=7, skipped_bad_pair=4)

    def test_round_trip_file(self, tmp_path):
        lists = [PreferenceList("ctx", "w", ["l1", "l2"], [0.5, 2.0])]
        path = tmp_path / "lists.jsonl"
        write_preference_lists(lists, path)
        loaded = read_preference_lists(path)
        assert loaded == lists


class TestInteractionIngest:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "inter.tsv"
        path.write_text("q1\ti1\t3\t100\t40\t5\nq2\ti2\t1\t7\t6\t5\n")
        recs = read_interactions(path)
        assert recs[0] == InteractionRecord("q1", "i1", 3, 100, 40, 5)
        assert recs[1].level == 1

    def test_field_count_enforced(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("q1\ti1\t3\n")
        with pytest.raises(ValueError, match="6 fields"):
            read_interactions(path)
