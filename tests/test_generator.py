import itertools
import math

import numpy as np
import pytest

from digit_scores import digit_score
from sidforge.generator import (
    CooccurrenceScorer,
    UniformScorer,
    beam_search,
    build_trie,
    cooccurrence_fit,
    rerank_with_rscore,
)
from sidforge.reward import rscore
from sidforge.sids import Sid, SidCatalog, SidScheme

SCHEME = SidScheme((3, 3), (2,))


def sid(*digits):
    return Sid(tuple(digits[:2]), tuple(digits[2:]))


def catalog_of(entries):
    return SidCatalog(entries, SCHEME)


def exhaustive_ranking(trie, scorer, context):
    """Score every full trie path independently of the beam machinery."""
    scored = []

    def walk(node, prefix, acc):
        if len(prefix) == trie.scheme.length:
            scored.append((prefix, acc))
            return
        for digit in sorted(node.children):
            walk(node.children[digit], prefix + (digit,),
                 acc + digit_score(scorer, context, prefix, digit, SCHEME))

    walk(trie.root, (), 0.0)
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored


class TestTrie:
    def test_shared_prefix(self):
        trie = build_trie(catalog_of({"a": sid(1, 2, 0), "b": sid(1, 2, 1)}))
        assert sorted(trie.root.children) == [1]
        assert sorted(trie.root.children[1].children[2].children) == [0, 1]

    def test_empty_catalog(self):
        trie = build_trie(catalog_of({}))
        assert trie.root.children == {}
        assert trie.size == 0

    def test_duplicate_sids_share_path(self):
        trie = build_trie(catalog_of({"a": sid(1, 1, 1), "b": sid(1, 1, 1)}))
        assert trie.items_at((1, 1, 1)) == ["a", "b"]
        assert trie.size == 2

    def test_catalog_entries_are_read_only(self):
        source = {"a": sid(1, 1, 1)}
        cat = catalog_of(source)
        with pytest.raises(TypeError):
            cat.entries["b"] = sid(1, 2, 0)
        source["b"] = sid(1, 2, 0)
        assert dict(cat.entries) == {"a": sid(1, 1, 1)}

    def test_layout_from_shuffled_catalog_is_sorted(self):
        rng = np.random.default_rng(5)
        ids = [f"i{n:02d}" for n in rng.permutation(40)]
        entries = {i: sid(*(int(rng.integers(w)) for w in SCHEME.sizes)) for i in ids}
        trie = build_trie(catalog_of(entries))
        found, stack = [], [((), trie.root)]
        while stack:
            prefix, node = stack.pop()
            assert list(node.children) == sorted(node.children)
            assert node.item_ids == sorted(node.item_ids)
            found += [(prefix, item_id) for item_id in node.item_ids]
            stack += [(prefix + (d,), child) for d, child in node.children.items()]
        assert sorted(found) == sorted((s.digits, i) for i, s in entries.items())
        assert trie.size == len(entries)


class TestBeamSearch:
    @pytest.fixture()
    def trie(self):
        rng = np.random.default_rng(0)
        entries = {}
        for n in range(14):
            entries[f"i{n}"] = Sid(
                (int(rng.integers(3)), int(rng.integers(3))), (int(rng.integers(2)),)
            )
        return build_trie(catalog_of(entries))

    @pytest.fixture()
    def scorer(self, trie):
        rng = np.random.default_rng(1)
        pairs = []
        sids = [Sid(p[:2], p[2:]) for p, _ in self._paths(trie)]
        for _ in range(40):
            q = Sid((int(rng.integers(3)), 0), (0,))
            pairs.append((q, sids[int(rng.integers(len(sids)))]))
        return cooccurrence_fit(pairs, SCHEME)

    @staticmethod
    def _paths(trie):
        out = []

        def walk(node, prefix):
            if len(prefix) == trie.scheme.length:
                out.append((prefix, node.item_ids))
                return
            for d in sorted(node.children):
                walk(node.children[d], prefix + (d,))

        walk(trie.root, ())
        return out

    def test_saturated_beam_equals_exhaustive_enumeration(self, trie, scorer):
        context = sid(1, 0, 0)
        hits = beam_search(context, scorer, trie.size + 5, trie=trie)
        oracle = exhaustive_ranking(trie, scorer, context)
        assert len(hits) == len(oracle)
        for hit, (digits, score) in zip(hits, oracle):
            assert hit.sid.digits == digits
            assert hit.score == pytest.approx(score, abs=1e-12)

    def test_top1_matches_exhaustive_argmax(self, trie, scorer):
        context = sid(2, 0, 0)
        top = beam_search(context, scorer, trie.size, trie=trie)[0]
        oracle = exhaustive_ranking(trie, scorer, context)[0]
        assert top.sid.digits == oracle[0]

    def test_uniform_scorer_yields_tie_break_order(self, trie):
        hits = beam_search(sid(0, 0, 0), UniformScorer(), trie.size, trie=trie)
        digit_tuples = [h.sid.digits for h in hits]
        assert digit_tuples == sorted(digit_tuples)
        assert len(digit_tuples) == len({p for p, _ in self._paths(trie)})

    def test_beam_one_is_greedy_digit_argmax(self, scorer):
        context = sid(1, 0, 0)
        hits = beam_search(context, scorer, 1, scheme=SCHEME, constrained=False)
        assert len(hits) == 1
        prefix = ()
        for step in range(SCHEME.length):
            scores = [digit_score(scorer, context, prefix, d, SCHEME)
                      for d in range(SCHEME.sizes[step])]
            prefix = prefix + (int(np.argmax(scores)),)
        assert hits[0].sid.digits == prefix

    def test_any_beam_subset_of_saturated_result(self, trie, scorer):
        context = sid(0, 0, 0)
        full = {h.sid for h in beam_search(context, scorer, trie.size + 1, trie=trie)}
        for b in (1, 2, 3, 5, 8):
            small = {h.sid for h in beam_search(context, scorer, b, trie=trie)}
            assert small <= full

    def test_constrained_output_within_catalog(self, trie, scorer):
        paths = {p for p, _ in self._paths(trie)}
        hits = beam_search(sid(1, 0, 0), scorer, 4, trie=trie)
        for h in hits:
            assert h.sid.digits in paths
            assert h.in_catalog is True

    def test_unconstrained_flags_non_catalog_sids(self, trie):
        hits = beam_search(sid(0, 0, 0), UniformScorer(), 18, trie=trie,
                           constrained=False)
        assert len(hits) == 18
        paths = {p for p, _ in self._paths(trie)}
        for h in hits:
            assert h.in_catalog == (h.sid.digits in paths)
        assert any(not h.in_catalog for h in hits)

    @pytest.mark.parametrize("width_extra", [0, 5])
    def test_unconstrained_saturated_beam_equals_exhaustive_code_space(
            self, trie, scorer, width_extra):
        space = list(itertools.product(*(range(n) for n in SCHEME.sizes)))
        paths = {p for p, _ in self._paths(trie)}
        context = sid(1, 0, 0)
        for s in (scorer, UniformScorer()):
            oracle = sorted(
                ((digits, sum(digit_score(s, context, digits[:pos], d, SCHEME)
                              for pos, d in enumerate(digits)))
                 for digits in space),
                key=lambda t: (-t[1], t[0]))
            hits = beam_search(context, s, len(space) + width_extra, trie=trie,
                               constrained=False)
            assert [h.sid.digits for h in hits] == [digits for digits, _ in oracle]
            for hit, (digits, score) in zip(hits, oracle):
                assert hit.score == pytest.approx(score, abs=1e-12)
                assert hit.in_catalog == (digits in paths)

    def test_ties_break_by_digits_on_a_wide_code_space(self):
        class ParityScorer:  # two score levels per step: many ties
            def score_step(self, context, prefixes, vocab):
                return np.tile(-(np.arange(vocab) % 2.0), (len(prefixes), 1))

        scheme = SidScheme((16, 8), (4,))
        space = itertools.product(*(range(n) for n in scheme.sizes))
        oracle = sorted(space, key=lambda digits: (sum(d % 2 for d in digits), digits))
        hits = beam_search(Sid((0, 0), (0,)), ParityScorer(), 100, scheme=scheme,
                           constrained=False)
        assert [h.sid.digits for h in hits] == oracle[:100]
        assert [-h.score for h in hits] == [sum(d % 2 for d in o) for o in oracle[:100]]

    @pytest.mark.parametrize("constrained", [True, False])
    @pytest.mark.parametrize("block", [
        lambda b, v: np.full((b, v), np.nan),
        lambda b, v: np.where(np.arange(v) == v - 1, np.inf, 0.0) * np.ones((b, 1)),
        lambda b, v: np.where(np.arange(v) == 0, -np.inf, 0.0) * np.ones((b, 1)),
        lambda b, v: np.zeros((b, v + 1)),
        lambda b, v: np.zeros(v),
        lambda b, v: np.zeros((b + 1, v)),
    ])
    def test_bad_step_block_rejected(self, trie, constrained, block):
        class BlockScorer:
            def score_step(self, context, prefixes, vocab):
                return block(len(prefixes), vocab)

        with pytest.raises(ValueError, match="finite scores of shape"):
            beam_search(sid(0, 0, 0), BlockScorer(), 4, trie=trie, constrained=constrained)

    def test_empty_trie_constrained_empty_result(self):
        trie = build_trie(catalog_of({}))
        assert beam_search(sid(0, 0, 0), UniformScorer(), 4, trie=trie) == []

    def test_invalid_beam_rejected(self, trie):
        with pytest.raises(ValueError):
            beam_search(sid(0, 0, 0), UniformScorer(), 0, trie=trie)


class TestCooccurrenceScorer:
    def test_single_record_argmax(self):
        q, i = sid(1, 0, 0), sid(2, 1, 1)
        scorer = cooccurrence_fit([(q, i)], SCHEME)
        for pos, digit in enumerate(i.digits):
            prefix = i.digits[:pos]
            scores = [digit_score(scorer, q, prefix, d, SCHEME) for d in range(SCHEME.sizes[pos])]
            assert int(np.argmax(scores)) == digit

    def test_unseen_query_uniform(self):
        scorer = cooccurrence_fit([(sid(1, 0, 0), sid(2, 1, 1))], SCHEME)
        unseen = sid(0, 0, 0)
        scores = [digit_score(scorer, unseen, (), d, SCHEME) for d in range(3)]
        assert scores[0] == pytest.approx(scores[1]) == pytest.approx(scores[2])
        assert scores[0] == pytest.approx(math.log(1 / 3))

    def test_more_frequent_item_scores_higher(self):
        q = sid(1, 0, 0)
        a, b = sid(0, 1, 0), sid(2, 2, 1)
        scorer = cooccurrence_fit([(q, a), (q, a), (q, b)], SCHEME)
        assert digit_score(scorer, q, (), 0, SCHEME) > digit_score(scorer, q, (), 2, SCHEME)

    def test_add_one_smoothing_counts(self):
        q = sid(1, 0, 0)
        scorer = cooccurrence_fit([(q, sid(0, 0, 0))], SCHEME)
        # position 0 under q1=1: counts {0: 1}, vocab 3
        assert digit_score(scorer, q, (), 0, SCHEME) == pytest.approx(math.log(2 / 4))
        assert digit_score(scorer, q, (), 1, SCHEME) == pytest.approx(math.log(1 / 4))

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        pairs = [
            (sid(int(rng.integers(3)), 0, 0),
             sid(int(rng.integers(3)), int(rng.integers(3)), int(rng.integers(2))))
            for _ in range(30)
        ]
        scorer = cooccurrence_fit(pairs, SCHEME)
        path = tmp_path / "scorer.json"
        scorer.save(path)
        loaded = CooccurrenceScorer.load(path)
        assert loaded.counts == scorer.counts
        assert loaded.scheme == scorer.scheme
        loaded.save(tmp_path / "again.json")
        assert (tmp_path / "scorer.json").read_bytes() == (tmp_path / "again.json").read_bytes()

    def test_zero_records_rejected(self):
        with pytest.raises(ValueError):
            cooccurrence_fit([], SCHEME)

    def test_step_rows_equal_per_digit_formula_bit_for_bit(self):
        rng = np.random.default_rng(5)
        pairs = [(sid(int(rng.integers(3)), 0, 0),
                  sid(*(int(rng.integers(n)) for n in SCHEME.sizes))) for _ in range(40)]
        scorer = cooccurrence_fit(pairs, SCHEME)
        for q1, pos in itertools.product(range(3), range(SCHEME.length)):
            vocab = SCHEME.sizes[pos]
            prefixes = list(itertools.product(*(range(n) for n in SCHEME.sizes[:pos])))
            rows = scorer.score_step(sid(q1, 0, 0), np.array(prefixes, dtype=np.int64)
                                     .reshape(len(prefixes), pos), vocab)
            for row, prefix in zip(rows.tolist(), prefixes):
                slot = scorer.counts.get((pos, q1, prefix[-1] if prefix else -1), {})
                total = sum(slot.values())
                assert row == [math.log((slot.get(d, 0) + 1) / (total + vocab))
                               for d in range(vocab)]

    def test_wide_block_with_repeated_slots_equals_per_beam_formula(self):
        """A step scores each distinct previous digit once and hands that row
        to every beam sharing it; each beam still gets its own formula's bits."""
        scheme = SidScheme((8, 16), (32,))
        rng = np.random.default_rng(6)
        scorer = cooccurrence_fit(np.column_stack(
            [rng.integers(n, size=300) for n in (8, *scheme.sizes)]), scheme)
        for pos, q1 in itertools.product(range(scheme.length), (2, 5)):
            vocab = scheme.sizes[pos]
            prefixes = np.column_stack([rng.integers(n, size=600) for n in scheme.sizes[:pos]]
                                       or [np.zeros((600, 0), dtype=np.int64)])
            rows = scorer.score_step([q1], prefixes, vocab)
            assert rows.shape == (600, vocab)
            for row, prefix in zip(rows.tolist(), prefixes.tolist()):
                slot = scorer.counts.get((pos, q1, prefix[-1] if prefix else -1), {})
                total = sum(slot.values())
                assert row == [math.log((slot.get(d, 0) + 1) / (total + vocab))
                               for d in range(vocab)]

    def test_query_digit_outside_scheme_rejected(self):
        with pytest.raises(ValueError, match="query digit 3"):
            cooccurrence_fit([(sid(3, 0, 0), sid(0, 0, 0))], SCHEME)

    def test_step_outside_scheme_rejected(self):
        scorer = cooccurrence_fit([(sid(1, 0, 0), sid(0, 0, 0))], SCHEME)
        with pytest.raises(ValueError, match="position 0 of 4 codes"):
            scorer.score_step(sid(1, 0, 0), np.zeros((1, 0), dtype=np.int64), 4)
        with pytest.raises(ValueError, match="position 3"):
            scorer.score_step(sid(1, 0, 0), np.zeros((1, 3), dtype=np.int64), 2)

    def test_token_list_context_is_walked_once_per_search(self, monkeypatch):
        from sidforge import identity
        from sidforge.identity import UserSid, assemble_prompt

        walks, prompt_fields = [], identity.prompt_fields
        monkeypatch.setattr(identity, "prompt_fields",
                            lambda tokens, scheme: walks.append(1) or prompt_fields(tokens, scheme))
        scorer = cooccurrence_fit([(sid(1, 0, 0), sid(2, 1, 1)), (sid(2, 0, 0), sid(0, 2, 0))],
                                  SCHEME)
        user = UserSid((0, 0, 0, 0, 0), (1, 1, 1, 0, 0))
        for query in (sid(1, 0, 0), sid(2, 0, 0)):  # a new prompt is walked again
            walks.clear()
            tokens = assemble_prompt(user, "red shoes", query)
            hits = beam_search(tokens, scorer, beam=4, scheme=SCHEME, constrained=False)
            assert len(walks) == 1
            expected = beam_search(query, scorer, beam=4, scheme=SCHEME, constrained=False)
            assert hits.digits.tolist() == expected.digits.tolist()
            assert hits.scores.tolist() == expected.scores.tolist()

    def test_list_context_changed_between_calls(self):
        scorer = cooccurrence_fit([(sid(1, 0, 0), sid(0, 0, 0))], SCHEME)
        context = [1]
        assert digit_score(scorer, context, (), 0, SCHEME) == pytest.approx(math.log(2 / 4))
        context[0] = 2  # an unseen query digit: uniform over 3 codes
        assert digit_score(scorer, context, (), 0, SCHEME) == pytest.approx(math.log(1 / 3))
        fresh = cooccurrence_fit([(sid(1, 0, 0), sid(0, 0, 0))], SCHEME)
        assert (digit_score(scorer, context, (), 0, SCHEME)
                == digit_score(fresh, [2], (), 0, SCHEME))


class TestRerankWithRscore:
    def test_relevance_dominates(self):
        scores = {"a": (0.9, 0.9, 0.9, 0.0), "b": (0.1, 0.1, 0.1, 0.5)}
        ranked = rerank_with_rscore(["a", "b"], scores)
        assert [c for c, _ in ranked] == ["b", "a"]

    def test_equal_scores_keep_input_order(self):
        scores = {"x": (0.2, 0.2, 0.2, 0.1), "y": (0.2, 0.2, 0.2, 0.1)}
        ranked = rerank_with_rscore(["x", "y"], scores)
        assert [c for c, _ in ranked] == ["x", "y"]
        ranked2 = rerank_with_rscore(["y", "x"], scores)
        assert [c for c, _ in ranked2] == ["y", "x"]

    def test_missing_scores_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            rerank_with_rscore(["a"], {})

    def test_matches_scalar_sort_oracle(self):
        rng = np.random.default_rng(4)
        cands = [f"c{n}" for n in range(1000)]
        comp = {c: tuple(rng.uniform(0, 1, size=4)) for c in cands}
        ranked = rerank_with_rscore(cands, comp)
        oracle = sorted(
            ((c, rscore(*comp[c])) for c in cands), key=lambda t: -t[1]
        )
        assert [c for c, _ in ranked] == [c for c, _ in oracle]
        for (_, a), (_, b) in zip(ranked, oracle):
            assert a == pytest.approx(b, abs=1e-12)
