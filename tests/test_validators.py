"""Each constructor and entry-point check refuses its bad input with its own
message: one case per check that no pipeline test reaches."""

import re

import numpy as np
import pytest

from sidforge.curriculum import TaskRecord
from sidforge.embedding import Catalog, KeywordSet, PairRecord, cosine
from sidforge.evalharness import EvalCase, SyntheticSpec, hitrate_at_k, mrr_at_k, run_eval
from sidforge.generator import CooccurrenceScorer, UniformScorer, beam_search
from sidforge.identity import SEQUENCE_KINDS, BehaviorSequence, decay_weights
from sidforge.kmeans import kmeans_fit
from sidforge.quantizer import OpqCodebook, RqCodebook, RqOpqCodebook, fit_codebook
from sidforge.reward import (
    DpoConfig,
    InteractionRecord,
    PreferenceList,
    RerankRecord,
    build_preference_lists,
    listwise_dpo_loss,
    preference_delta,
    reward_score,
    rscore,
)
from sidforge.sidmetrics import icr
from sidforge.sids import Sid, SidCatalog, SidScheme

SCHEME = SidScheme((2, 2), (2,))
CASE = EvalCase("c", ["i1"], ["i1"])
ROWS = np.random.default_rng(0).normal(size=(8, 2))


def _rq(dim):
    return RqCodebook([np.zeros((2, dim))], (2,), False)


CASES = {
    # reward.py
    "negative_count": (lambda: InteractionRecord("q", "i", 1, cnt_clk=-1),
                       "cnt_clk must be non-negative"),
    "zero_beta": (lambda: DpoConfig(beta=0.0), "beta must be positive"),
    "negative_alpha": (lambda: DpoConfig(alpha=-0.1),
                       "alpha and delta_margin must be non-negative"),
    "negative_margin": (lambda: DpoConfig(delta_margin=-0.1),
                        "alpha and delta_margin must be non-negative"),
    "no_loser": (lambda: PreferenceList("c", "w", [], []),
                 "preference list needs at least one loser"),
    "delta_count": (lambda: PreferenceList("c", "w", ["l"], []),
                    "one delta weight per loser required"),
    "winner_is_loser": (lambda: PreferenceList("c", "w", ["l", "w"], [1.0, 1.0]),
                        "winner 'w' also appears as a loser"),
    "zero_delta": (lambda: PreferenceList("c", "w", ["l"], [0.0]),
                   "delta weights must be positive and finite, got 0.0"),
    "infinite_delta": (lambda: PreferenceList("c", "w", ["l"], [float("inf")]),
                       "delta weights must be positive and finite, got inf"),
    "five_base_weights": (lambda: reward_score(InteractionRecord("q", "i", 1), (1.0,) * 5),
                          "base_weights must have six entries"),
    "zero_epsilon": (lambda: preference_delta(1.0, 0.5, epsilon=0.0), "epsilon must be positive"),
    "three_lambdas": (lambda: rscore(0.1, 0.1, 0.1, 0.1, (1.0, 1.0, 1.0)),
                      "lambdas must have four entries"),
    "loser_lengths": (lambda: listwise_dpo_loss(0.0, 0.0, [0.0], [0.0, 0.0], [1.0], DpoConfig()),
                      "loser log-prob and delta lists must share one length"),
    "duplicate_rerank": (lambda: RerankRecord("q", ("a", "a"), ("a", "a")),
                         "duplicate items in rerank record"),
    "item_without_sid": (lambda: build_preference_lists(
        [InteractionRecord("q", "w", 1), InteractionRecord("q", "l", 5)], sids={}),
                         "no SID for item 'w'"),
    # quantizer.py
    "level_count": (lambda: RqCodebook([np.zeros((2, 2))], (2, 2), False),
                    "level table count does not match level_sizes"),
    "level_shape": (lambda: RqCodebook([np.zeros((2, 2)), np.zeros((3, 2))], (2, 2), False),
                    "level table has shape (3, 2), expected (2, 2)"),
    "rotation_not_orthonormal": (lambda: OpqCodebook(np.ones((2, 2)), [np.zeros((2, 2))]),
                                 "rotation not orthonormal (max deviation 2.00e+00)"),
    "subspace_dims": (lambda: OpqCodebook(np.eye(2), [np.zeros((2, 1))]),
                      "subspace dims do not sum to d"),
    "rq_opq_dims": (lambda: RqOpqCodebook(_rq(2), OpqCodebook(np.eye(3), [np.zeros((2, 3))])),
                    "rq dim 2 != opq dim 3"),
    "no_levels": (lambda: fit_codebook(ROWS, level_sizes=()), "need at least one level"),
    # evalharness.py
    "empty_truth": (lambda: EvalCase("c", []), "ground truth must be nonempty"),
    "hitrate_k0": (lambda: hitrate_at_k([CASE], 0), "k must be >= 1, got 0"),
    "mrr_k0": (lambda: mrr_at_k([CASE], 0), "k must be >= 1, got 0"),
    "negative_spec_field": (lambda: SyntheticSpec(clusters=-1),
                            "clusters must be an integer >= 0, got -1"),
    "bool_spec_field": (lambda: SyntheticSpec(noise_scale=True),
                        "noise_scale must be a real number >= 0, got True"),
    "zero_clusters": (lambda: SyntheticSpec(clusters=0),
                      "cluster count, items per cluster, dim, keywords must be positive"),
    "collapsed_frac_above_one": (lambda: SyntheticSpec(collapsed_frac=1.5),
                                 "collapsed_frac must be in [0, 1]"),
    "collapse_without_points": (lambda: SyntheticSpec(collapsed_frac=0.5),
                                "collapsed_frac needs collapse_points >= 1"),
    "run_eval_k0": (lambda: run_eval(None, UniformScorer(), [CASE], [0, 1], None),
                    "all k must be >= 1"),
    # embedding.py
    "attribute_tag": (lambda: KeywordSet("o", (), ("flavour",)), "unknown attribute tag 'flavour'"),
    "cosine_range": (lambda: PairRecord("a", "b", "q2i", 1.5), "cosine 1.5 outside [-1, 1]"),
    "catalog_ids": (lambda: Catalog(["a"], np.zeros((2, 2))), "id count does not match row count"),
    "zero_norm": (lambda: cosine(np.zeros(2), np.ones(2)), "cosine undefined for zero-norm vector"),
    # generator.py
    "constrained_without_trie": (lambda: beam_search("c", UniformScorer()),
                                 "constrained search requires a trie"),
    "unconstrained_without_scheme": (lambda: beam_search("c", UniformScorer(), constrained=False),
                                     "unconstrained search requires a scheme or a trie"),
    "context_digit": (lambda: CooccurrenceScorer(SCHEME).score_step(
        (), np.zeros((1, 0), dtype=np.int64), 2), "cannot extract a query digit from context ()"),
    # identity.py
    "sequence_kind": (lambda: BehaviorSequence((), kind="short"),
                      f"kind must be one of {SEQUENCE_KINDS}, got 'short'"),
    "no_decay_positions": (lambda: decay_weights(0), "need at least one position"),
    # kmeans.py
    "k0": (lambda: kmeans_fit(ROWS, 0), "k must be >= 1, got 0"),
    # curriculum.py
    "empty_input_tokens": (lambda: TaskRecord(1, "text_to_sid", (), ("1,0,1",)),
                           "input and target token sequences must be nonempty"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_check_refuses_with_its_message(name):
    make, message = CASES[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_icr_of_an_empty_catalog_is_zero():
    assert icr(SidCatalog({}, SCHEME)) == 0.0
    assert icr(SidCatalog({"i1": Sid((0, 1), (1,))}, SCHEME)) == 1.0
