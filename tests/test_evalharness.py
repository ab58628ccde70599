import numpy as np
import pytest

from sidforge.evalharness import (
    EvalCase,
    EvalReport,
    SyntheticSpec,
    hitrate_at_k,
    mrr_at_k,
    rank_items,
    run_eval,
    synth_catalog,
    synth_stream,
)
from sidforge.generator import UniformScorer, beam_search, build_trie, cooccurrence_fit
from sidforge.identity import UserSid, assemble_prompt
from sidforge.quantizer import encode_batch, fit_codebook
from sidforge.sidmetrics import cur, icr
from sidforge.sids import SidCatalog, SidScheme

import synth_oracle


class OracleScorer:
    """Peeks at the per-context truth SID (0 on its digit, -1e9 elsewhere); an upper bound."""

    def __init__(self, truth_sids):
        self.truth_sids = dict(truth_sids)

    def score_step(self, context, prefixes, vocab):
        sid = self.truth_sids.get(context if not isinstance(context, list) else tuple(context))
        rows = np.zeros((len(prefixes), vocab))
        if sid is not None:
            pos = prefixes.shape[1]
            truth = sid.digits[pos] if pos < len(sid.digits) else -1
            rows[:, np.arange(vocab) != truth] = -1e9
        return rows


def case(truth, candidates):
    return EvalCase("ctx", frozenset(truth), tuple(candidates))


def brute_hitrate(cases, k):
    hits = 0
    for c in cases:
        if set(c.candidates[:k]) & c.truth:
            hits += 1
    return hits / len(cases)


def brute_mrr(cases, k):
    total = 0.0
    for c in cases:
        for rank, cand in enumerate(c.candidates, 1):
            if rank > k:
                break
            if cand in c.truth:
                total += 1.0 / rank
                break
    return total / len(cases)


class TestMetrics:
    def test_truth_at_rank_one(self):
        assert hitrate_at_k([case({"a"}, ["a", "b"])], 1) == 1.0
        assert mrr_at_k([case({"a"}, ["a", "b"])], 1) == 1.0

    def test_truth_outside_topk_contributes_zero(self):
        cases = [case({"z"}, ["a", "b", "z"])]
        assert hitrate_at_k(cases, 2) == 0.0
        assert mrr_at_k(cases, 2) == 0.0
        assert mrr_at_k(cases, 3) == pytest.approx(1 / 3)

    def test_first_hit_semantics(self):
        cases = [case({"b", "c"}, ["a", "b", "c"])]
        assert mrr_at_k(cases, 3) == pytest.approx(0.5)

    def test_hand_counted_mixed_set(self):
        cases = [
            case({"t"}, ["t", "x"]),      # hit@1
            case({"t"}, ["x", "t"]),      # hit@2
            case({"t"}, ["x", "y"]),      # miss
            case({"t"}, []),              # miss, no candidates
        ]
        assert hitrate_at_k(cases, 2) == pytest.approx(2 / 4)
        assert mrr_at_k(cases, 2) == pytest.approx((1.0 + 0.5) / 4)

    def test_matches_brute_oracle_on_random_cases(self):
        rng = np.random.default_rng(0)
        cases = []
        for _ in range(200):
            items = [f"i{n}" for n in range(20)]
            rng.shuffle(items)
            truth = set(rng.choice(items, size=rng.integers(1, 4), replace=False))
            cases.append(case(truth, items[: rng.integers(0, 20)]))
        for k in (1, 3, 10, 25):
            assert hitrate_at_k(cases, k) == pytest.approx(brute_hitrate(cases, k))
            assert mrr_at_k(cases, k) == pytest.approx(brute_mrr(cases, k))

    def test_monotone_in_k_and_mrr_below_hr(self):
        rng = np.random.default_rng(1)
        cases = []
        for _ in range(50):
            items = [f"i{n}" for n in range(15)]
            rng.shuffle(items)
            cases.append(case({items[rng.integers(15)]}, items))
        prev_hr, prev_mrr = 0.0, 0.0
        for k in (1, 2, 5, 10, 15):
            hr, mrr = hitrate_at_k(cases, k), mrr_at_k(cases, k)
            assert hr >= prev_hr and mrr >= prev_mrr
            assert mrr <= hr <= 1.0
            prev_hr, prev_mrr = hr, mrr

    def test_empty_cases_rejected(self):
        with pytest.raises(ValueError):
            hitrate_at_k([], 1)
        with pytest.raises(ValueError):
            mrr_at_k([], 1)

    def test_duplicate_candidates_rejected(self):
        with pytest.raises(ValueError, match="dedup"):
            case({"a"}, ["a", "a"])


class TestSynthCatalog:
    def test_fixed_seed_bit_identical(self):
        spec = SyntheticSpec(clusters=4, items_per_cluster=6, dim=5, sessions=10, seed=9)
        a, b = synth_catalog(spec), synth_catalog(spec)
        assert np.array_equal(a.items.matrix, b.items.matrix)
        assert np.array_equal(a.queries.matrix, b.queries.matrix)
        assert a.sessions == b.sessions

    def test_zero_noise_items_equal_centers(self):
        spec = SyntheticSpec(clusters=3, items_per_cluster=4, dim=4,
                             noise_scale=0.0, keyword_noise=0.0, seed=2)
        bundle = synth_catalog(spec)
        mat = bundle.items.matrix
        for c in range(3):
            block = mat[c * 4:(c + 1) * 4]
            assert np.allclose(block, block[0])

    def test_zero_noise_level1_encodes_perfectly(self):
        spec = SyntheticSpec(clusters=4, items_per_cluster=5, dim=6,
                             noise_scale=0.0, keyword_noise=0.0, seed=3)
        bundle = synth_catalog(spec)
        cb = fit_codebook(bundle.items, (4,), balanced_last=False,
                          opq_subspaces=2, opq_codes=2, seed=0)
        sids = encode_batch(bundle.items.matrix, cb)
        first = {}
        for item_id, sid in zip(bundle.items.ids, sids):
            cluster = bundle.categories[item_id]
            first.setdefault(cluster, sid.rq[0])
            assert sid.rq[0] == first[cluster]
        assert len(set(first.values())) == 4

    def test_two_separated_clusters_pure_level1(self):
        spec = SyntheticSpec(clusters=2, items_per_cluster=10, dim=4,
                             noise_scale=0.05, center_scale=50.0, seed=4)
        bundle = synth_catalog(spec)
        cb = fit_codebook(bundle.items, (2,), balanced_last=False,
                          opq_subspaces=2, opq_codes=2, seed=0)
        sids = encode_batch(bundle.items.matrix, cb)
        codes_by_cluster = {}
        for item_id, sid in zip(bundle.items.ids, sids):
            codes_by_cluster.setdefault(bundle.categories[item_id], set()).add(sid.rq[0])
        assert all(len(codes) == 1 for codes in codes_by_cluster.values())

    def test_session_clicks_stay_in_query_cluster(self):
        spec = SyntheticSpec(clusters=5, items_per_cluster=8, dim=4, sessions=50, seed=5)
        bundle = synth_catalog(spec)
        assert len(bundle.sessions) == 50
        for sess in bundle.sessions:
            cluster = sess.query_id.removeprefix("query")
            for item in sess.short_clicks + (sess.clicked_item,):
                assert item.startswith(f"item{cluster}_")

    @pytest.mark.parametrize("seed", [0, 7, 29])
    @pytest.mark.parametrize("spec", [
        dict(clusters=5, items_per_cluster=9, dim=4, sessions=400),
        dict(clusters=3, items_per_cluster=1, dim=2, sessions=200),
        dict(clusters=4, items_per_cluster=6, dim=3, sessions=300, max_session_clicks=0),
        dict(clusters=6, items_per_cluster=11, dim=4, sessions=300,
             collapsed_frac=0.3, collapse_points=2),
        dict(clusters=100, items_per_cluster=50, dim=4, sessions=20_000),
    ], ids=["plain", "one-item", "no-clicks", "collapse", "20k"])
    def test_sessions_equal_the_choice_oracle(self, spec, seed):
        """Each session's picks are the ones ``rng.choice(..., p=pop)`` makes."""
        spec = SyntheticSpec(**spec, seed=seed)
        assert synth_catalog(spec).sessions == synth_oracle.sessions(spec)

    def test_stream_draws_the_catalogs_sessions_after_its_bundle(self):
        spec = SyntheticSpec(clusters=4, items_per_cluster=7, dim=3, sessions=60, seed=12)
        whole = synth_catalog(spec)
        bundle, sessions = synth_stream(spec)
        assert bundle.sessions == []
        assert np.array_equal(bundle.items.matrix, whole.items.matrix)
        assert np.array_equal(bundle.queries.matrix, whole.queries.matrix)
        assert list(sessions) == whole.sessions


@pytest.fixture(scope="module")
def bundle_and_cb():
    spec = SyntheticSpec(clusters=6, items_per_cluster=8, dim=6,
                         noise_scale=0.3, sessions=0, seed=6)
    bundle = synth_catalog(spec)
    cb = fit_codebook(bundle.items, (6, 4), balanced_last=True,
                      opq_subspaces=2, opq_codes=4, seed=1)
    return bundle, cb


class _CountingScorer:
    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def score_step(self, context, prefixes, vocab):
        self.calls += 1
        return self.inner.score_step(context, prefixes, vocab)


def _repeated_context_cases(bundle_and_cb):
    """Each query as a Sid context three times and as a freshly built
    prompt token list twice, with truths in and out of its cluster."""
    bundle, cb = bundle_and_cb
    item_sids = dict(zip(bundle.items.ids, encode_batch(bundle.items.matrix, cb)))
    q_sids = dict(zip(bundle.queries.ids, encode_batch(bundle.queries.matrix, cb)))
    scorer = cooccurrence_fit(
        [(q_sids[q_id], item_sids[f"item{c}_{i}"])
         for q_id, c in bundle.query_cluster.items() for i in range(3)], cb.scheme)
    user = UserSid((0, 1, 2, 3, 0), (1, 1, 1, 1, 1))
    cases = []
    for q_id, c in sorted(bundle.query_cluster.items()):
        for j in range(3):
            cases.append(EvalCase(q_sids[q_id], frozenset({f"item{(c + j) % 6}_{j}"})))
        for j in range(2):
            prompt = assemble_prompt(user, "red shoes", q_sids[q_id])
            cases.append(EvalCase(prompt, frozenset({f"item{c}_{j + 4}"})))
    return bundle, cb, scorer, cases


class TestRunEval:
    def test_oracle_scorer_perfect_hit_at_one(self, bundle_and_cb):
        bundle, cb = bundle_and_cb
        sids = encode_batch(bundle.items.matrix, cb)
        by_id = dict(zip(bundle.items.ids, sids))
        q_sids = encode_batch(bundle.queries.matrix, cb)
        cases, truth_map = [], {}
        for q_id, q_sid in zip(bundle.queries.ids, q_sids):
            target = f"item{bundle.query_cluster[q_id]}_0"
            cases.append(EvalCase(q_sid, frozenset({target})))
            truth_map[q_sid] = by_id[target]
        report = run_eval(cb, OracleScorer(truth_map), cases, [1, 5], bundle.items, beam=8)
        assert report.hitrate[1] == 1.0
        assert report.mrr[1] == 1.0

    def test_report_matches_component_metrics(self, bundle_and_cb):
        bundle, cb = bundle_and_cb
        q_sids = encode_batch(bundle.queries.matrix, cb)
        cases = [
            EvalCase(q_sid, frozenset({f"item{bundle.query_cluster[q_id]}_1"}))
            for q_id, q_sid in zip(bundle.queries.ids, q_sids)
        ]
        report = run_eval(cb, UniformScorer(), cases, [3, 10], bundle.items, beam=16)
        sids = encode_batch(bundle.items.matrix, cb)
        sid_cat = SidCatalog(dict(zip(bundle.items.ids, sids)), cb.scheme)
        assert report.catalog_icr_rq == pytest.approx(icr(sid_cat, use_opq=False))
        assert report.catalog_icr_full == pytest.approx(icr(sid_cat, use_opq=True))
        assert report.catalog_cur_per_level == [cur(sid_cat, 1), cur(sid_cat, 2)]
        assert 0.0 <= report.mrr[3] <= report.hitrate[3] <= report.hitrate[10] <= 1.0

    def test_deterministic_report(self, bundle_and_cb):
        bundle, cb = bundle_and_cb
        q_sids = encode_batch(bundle.queries.matrix, cb)
        cases = [EvalCase(q_sids[0], frozenset({"item0_0"}))]
        r1 = run_eval(cb, UniformScorer(), cases, [5], bundle.items, beam=8)
        r2 = run_eval(cb, UniformScorer(), cases, [5], bundle.items, beam=8)
        assert r1.render() == r2.render()

    def test_sid_catalog_of_another_scheme_rejected(self):
        """CUR counts under the catalog's scheme, so it must be the codebook's:
        a wider (8, 3, 2) catalog would be counted against the wrong capacities."""
        rng = np.random.default_rng(0)
        cb = fit_codebook(rng.normal(size=(40, 4)), (4, 3, 2), balanced_last=False,
                          opq_subspaces=2, opq_codes=2, seed=0)
        wide = SidScheme((8, 3, 2), (2, 2))
        sid_catalog = SidCatalog({"a": wide.parse("7,2,1,1,0"), "b": wide.parse("0,0,0,0,0")},
                                 wide)
        with pytest.raises(ValueError) as info:
            run_eval(cb, UniformScorer(), [EvalCase(cb.fit_sids[0], frozenset({"a"}))], [1],
                     None, sid_catalog=sid_catalog)
        assert repr(wide) in str(info.value) and repr(cb.scheme) in str(info.value)

    def test_empty_cases_rejected(self, bundle_and_cb):
        bundle, cb = bundle_and_cb
        with pytest.raises(ValueError):
            run_eval(cb, UniformScorer(), [], [1], bundle.items)

    def test_repeated_contexts_match_per_case_reference(self, bundle_and_cb):
        bundle, cb, scorer, cases = _repeated_context_cases(bundle_and_cb)
        report = run_eval(cb, scorer, cases, [1, 3, 10], bundle.items, beam=8)

        sid_cat = SidCatalog(dict(zip(bundle.items.ids, encode_batch(bundle.items.matrix, cb))),
                             cb.scheme)
        trie = build_trie(sid_cat)
        filled = [EvalCase(c.context, c.truth,
                           tuple(rank_items(beam_search(c.context, scorer, 8, trie=trie), trie)))
                  for c in cases]
        assert report.hitrate == {k: hitrate_at_k(filled, k) for k in (1, 3, 10)}
        assert report.mrr == {k: mrr_at_k(filled, k) for k in (1, 3, 10)}
        assert report.n_cases == len(cases)
        assert 0.0 < report.hitrate[10] < 1.0

    def test_run_eval_builds_no_cases(self, bundle_and_cb, monkeypatch):
        """Cases are scored from ``(truth, ranked)`` pairs, none rebuilt; the
        report bytes are those of the rebuilt, re-validated cases."""
        bundle, cb, scorer, cases = _repeated_context_cases(bundle_and_cb)
        sid_cat = SidCatalog(dict(zip(bundle.items.ids, encode_batch(bundle.items.matrix, cb))),
                             cb.scheme)
        trie = build_trie(sid_cat)
        filled = [EvalCase(c.context, c.truth,
                           tuple(rank_items(beam_search(c.context, scorer, 8, trie=trie), trie)))
                  for c in cases]
        built = []
        post_init = EvalCase.__post_init__
        monkeypatch.setattr(EvalCase, "__post_init__",
                            lambda case: (built.append(case), post_init(case))[1])
        report = run_eval(cb, scorer, cases, [1, 3, 10], bundle.items, beam=8)
        assert built == []
        expected = EvalReport([1, 3, 10], {k: hitrate_at_k(filled, k) for k in (1, 3, 10)},
                              {k: mrr_at_k(filled, k) for k in (1, 3, 10)},
                              [cur(sid_cat, p) for p in (1, 2)], icr(sid_cat, use_opq=False),
                              icr(sid_cat, use_opq=True), len(cases))
        assert report.render() == expected.render()

    def test_one_search_per_distinct_context(self, bundle_and_cb):
        bundle, cb, scorer, cases = _repeated_context_cases(bundle_and_cb)
        counting = _CountingScorer(scorer)
        run_eval(cb, counting, cases, [5], bundle.items, beam=8)
        distinct = {tuple(c.context) if isinstance(c.context, list) else c.context
                    for c in cases}
        assert len(distinct) < len(cases)
        assert counting.calls == len(distinct) * cb.scheme.length

    def test_uniform_scorer_hitrate_near_k_over_n(self):
        # uniform scores return one fixed tie-break ranking, so with truth
        # drawn uniformly HR@K concentrates around K / |catalog|
        spec = SyntheticSpec(clusters=32, items_per_cluster=16, dim=8,
                             noise_scale=1.0, seed=7)
        bundle = synth_catalog(spec)
        cb = fit_codebook(bundle.items, (16, 8), balanced_last=False,
                          opq_subspaces=2, opq_codes=8, seed=2)
        rng = np.random.default_rng(8)
        q_sids = encode_batch(bundle.queries.matrix, cb)
        cases = []
        for _ in range(400):
            q = q_sids[int(rng.integers(len(q_sids)))]
            truth = bundle.items.ids[int(rng.integers(len(bundle.items)))]
            cases.append(EvalCase(q, frozenset({truth})))
        report = run_eval(cb, UniformScorer(), cases, [10], bundle.items, beam=16)
        expected = 10 / len(bundle.items)
        # four binomial standard deviations around the analytic expectation
        sd = (expected * (1 - expected) / len(cases)) ** 0.5
        assert abs(report.hitrate[10] - expected) <= 4 * sd + 1e-9
