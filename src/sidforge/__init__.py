"""Semantic-ID tokenization and generation toolkit.

Offline core for generative retrieval experiments: keyword-enhanced
embedding composition, hierarchical residual + product-code tokenization,
behavior-sequence user identity, adaptive reward signals, staged training
datasets, trie-constrained beam generation, and a retrieval eval harness.
"""

__version__ = "0.1.0"

from .embedding import (
    Catalog,
    Embedding,
    KeywordSet,
    PairRecord,
    compose_enhanced,
    cosine_filter,
    enhance_catalog,
    match_keywords,
)
from .sids import Sid, SidCatalog, SidScheme
from .kmeans import balanced_kmeans_fit, kmeans_fit
from .quantizer import (
    OpqCodebook,
    RqCodebook,
    RqOpqCodebook,
    encode,
    encode_batch,
    fit_codebook,
    load_codebook,
    lookup_centroids,
    opq_fit,
    rq_fit,
    save_codebook,
)
from .sidmetrics import cur, drift_report, icr
from .identity import (
    BehaviorSequence,
    UserSid,
    aggregate_long,
    assemble_prompt,
    build_user_sid,
    default_sequence,
    parse_prompt,
)
from .reward import (
    DpoConfig,
    InteractionRecord,
    PreferenceList,
    build_preference_lists,
    calibrated_rates,
    listwise_dpo_loss,
    preference_delta,
    reward_score,
    rscore,
)
from .curriculum import (
    Session,
    TaskRecord,
    build_stage1,
    build_stage2,
    build_stage3,
    sliding_window,
)
from .generator import (
    BeamHit,
    BeamHits,
    CooccurrenceScorer,
    SidTrie,
    UniformScorer,
    beam_search,
    build_trie,
    cooccurrence_fit,
    rerank_with_rscore,
)
from .evalharness import (
    EvalCase,
    SyntheticSpec,
    hitrate_at_k,
    mrr_at_k,
    run_eval,
    synth_catalog,
)
