"""Adaptive reward signals, preference deltas, and the list-wise hybrid loss.

Interaction counts are smoothed by +10 inside logarithms so every rate is
finite and positive even for zero-count records; natural log throughout
(the calibrated rates are ratios of logs and therefore base-invariant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._records import id_list, read_records, write_records
from .sids import Sid

# Base reward weight per behavior level: purchase-in-search,
# same-category purchase elsewhere, click, exposed-unclicked,
# unshown-same-category, random-other-category.
BASE_WEIGHTS = (2.0, 1.5, 1.0, 0.5, 0.2, 0.0)

POSITIVE_LEVELS = (1, 2, 3)
NEGATIVE_LEVELS = (4, 5, 6)

DEFAULT_EPSILON = 1e-3


@dataclass(frozen=True)
class InteractionRecord:
    query_id: str
    item_id: str
    level: int
    cnt_pos: int = 0
    cnt_clk: int = 0
    cnt_order: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.level <= 6:
            raise ValueError(f"behavior level must be in [1, 6], got {self.level}")
        for name in ("cnt_pos", "cnt_clk", "cnt_order"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(frozen=True)
class DpoConfig:
    beta: float = 0.1
    alpha: float = 0.0
    delta_margin: float = 0.0

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.alpha < 0 or self.delta_margin < 0:
            raise ValueError("alpha and delta_margin must be non-negative")


@dataclass
class PreferenceList:
    context: str
    winner: str
    losers: list[str]
    delta_weights: list[float]

    def __post_init__(self) -> None:
        if not self.losers:
            raise ValueError("preference list needs at least one loser")
        if len(self.losers) != len(self.delta_weights):
            raise ValueError("one delta weight per loser required")
        if self.winner in self.losers:
            raise ValueError(f"winner {self.winner!r} also appears as a loser")
        for w in self.delta_weights:
            if not (w > 0 and math.isfinite(w)):
                raise ValueError(f"delta weights must be positive and finite, got {w}")


def calibrated_rates(rec: InteractionRecord) -> tuple[float, float]:
    """Smoothed click-through and conversion rates (Cnt+10 inside logs)."""
    log_pos = math.log(rec.cnt_pos + 10)
    log_clk = math.log(rec.cnt_clk + 10)
    log_order = math.log(rec.cnt_order + 10)
    cnt_t = log_pos + log_clk + log_order
    return log_clk / cnt_t, log_order / log_clk


def reward_score(rec: InteractionRecord, base_weights: Sequence[float] = BASE_WEIGHTS) -> float:
    """Level weight times the harmonic mean of the calibrated rates."""
    if len(base_weights) != 6:
        raise ValueError("base_weights must have six entries")
    ctr, cvr = calibrated_rates(rec)
    lam = base_weights[rec.level - 1]
    return 2.0 * lam * (ctr * cvr) / (ctr + cvr)


def preference_delta(r_pos: float, r_neg: float, epsilon: float = DEFAULT_EPSILON) -> float:
    """Inverse reward gap; small gaps clamp to 1/epsilon so weights stay bounded."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if r_pos < r_neg:
        raise ValueError(f"pair ordering violated: r_pos {r_pos} < r_neg {r_neg}")
    return 1.0 / max(r_pos - r_neg, epsilon)


def rscore(ctr: float, cvr: float, ctcvr: float, s_rel: float,
           lambdas: Sequence[float] = (1.0, 1.0, 1.0, 1.0)) -> float:
    """Fused preference score; relevance enters with a 10x amplified weight."""
    if len(lambdas) != 4:
        raise ValueError("lambdas must have four entries")
    for v in (ctr, cvr, ctcvr, s_rel, *lambdas):
        if not math.isfinite(v):
            raise ValueError("rscore inputs must be finite")
    return lambdas[0] * ctr + lambdas[1] * cvr + lambdas[2] * ctcvr + 10.0 * lambdas[3] * s_rel


def _log_sigmoid(x: float) -> float:
    return -float(np.logaddexp(0.0, -x))


def listwise_dpo_loss(
    policy_logp_w: float,
    ref_logp_w: float,
    policy_logp_l: Sequence[float],
    ref_logp_l: Sequence[float],
    deltas: Sequence[float],
    cfg: DpoConfig,
) -> float:
    """One-winner many-loser hinge loss over implicit rewards.

    Implicit reward of a candidate is beta times its policy-vs-reference
    log-probability gap. Per loser, the hinged winner margin is scaled by
    its delta weight, the scaled margins are log-sum-exp aggregated, and
    the loss is ``-(log sigmoid(aggregate) + alpha * policy_logp_w)``:
    larger winner advantage strictly lowers it once any hinge is active,
    and the alpha term keeps the winner's likelihood in play.
    """
    if not policy_logp_l:
        raise ValueError("need at least one loser")
    if not (len(policy_logp_l) == len(ref_logp_l) == len(deltas)):
        raise ValueError("loser log-prob and delta lists must share one length")
    values = [policy_logp_w, ref_logp_w, *policy_logp_l, *ref_logp_l, *deltas]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("log probabilities and deltas must be finite")

    r_w = cfg.beta * (policy_logp_w - ref_logp_w)
    scaled = []
    for p_l, r_l, dw in zip(policy_logp_l, ref_logp_l, deltas):
        r_hat_l = cfg.beta * (p_l - r_l)
        scaled.append(dw * max(0.0, r_w - r_hat_l - cfg.delta_margin))
    aggregate = float(np.logaddexp.reduce(scaled)) if len(scaled) > 1 else float(scaled[0])
    return -(_log_sigmoid(aggregate) + cfg.alpha * policy_logp_w)


@dataclass(frozen=True)
class RerankRecord:
    """Model-scored reordering of one query's candidate list."""

    query_id: str
    before: tuple[str, ...]
    after: tuple[str, ...]

    def __post_init__(self) -> None:
        if sorted(self.before) != sorted(self.after):
            raise ValueError("before and after must rank the same items")
        if len(set(self.before)) != len(self.before):
            raise ValueError("duplicate items in rerank record")


@dataclass
class BuildStats:
    lists_built: int = 0
    skipped_no_loser: int = 0
    skipped_bad_pair: int = 0


def build_preference_lists(
    interactions: Iterable[InteractionRecord],
    reranks: Iterable[RerankRecord] = (),
    base_weights: Sequence[float] = BASE_WEIGHTS,
    epsilon: float = DEFAULT_EPSILON,
    sids: Mapping[str, Sid] | None = None,
) -> tuple[list[PreferenceList], BuildStats]:
    """Construct winner-vs-losers training lists from two signal sources.

    Phase A (reranks): per query, the winner is the clicked item if any,
    else the most-promoted one; losers are the demoted items. Phase B
    (interactions alone): the best-reward record from behavior levels 1-3
    wins against all level 4-6 records. Delta weights come from
    :func:`preference_delta`; pairs whose reward ordering is violated are
    dropped and counted, as are candidate lists left without losers.
    """
    by_query: dict[str, dict[str, InteractionRecord]] = {}
    for rec in interactions:
        by_query.setdefault(rec.query_id, {})[rec.item_id] = rec

    def render(item_id: str) -> str:
        if sids is None:
            return item_id
        if item_id not in sids:
            raise ValueError(f"no SID for item {item_id!r}")
        return sids[item_id].render()

    def score(query_id: str, item_id: str) -> float:
        rec = by_query.get(query_id, {}).get(item_id)
        if rec is None:
            # no interaction record: treat as exposed-but-unclicked, else the
            # zero-count smoothing would rank unknowns above real clicks
            rec = InteractionRecord(query_id, item_id, level=4)
        return reward_score(rec, base_weights)

    stats = BuildStats()
    lists: list[PreferenceList] = []

    def add_list(context: str, winner: str, r_w: float,
                 scored_losers: Iterable[tuple[str, float]]) -> None:
        """Append one winner's list: bad pairs are dropped and counted, and a
        list left without losers is skipped and counted."""
        losers, deltas = [], []
        for item, r_l in scored_losers:
            if r_w < r_l:
                stats.skipped_bad_pair += 1
                continue
            losers.append(item)
            deltas.append(preference_delta(r_w, r_l, epsilon))
        if not losers:
            stats.skipped_no_loser += 1
            return
        lists.append(PreferenceList(context, render(winner), [render(i) for i in losers], deltas))
        stats.lists_built += 1

    for rr in reranks:
        pos_before = {item: i for i, item in enumerate(rr.before)}
        pos_after = {item: i for i, item in enumerate(rr.after)}
        promoted = [i for i in rr.after if pos_after[i] < pos_before[i]]
        demoted = [i for i in rr.after if pos_after[i] > pos_before[i]]
        clicked = [
            i for i in rr.after
            if (rec := by_query.get(rr.query_id, {}).get(i)) is not None
            and rec.level in POSITIVE_LEVELS and rec.cnt_clk > 0
        ]
        pool = clicked or promoted
        if not pool or not demoted:
            stats.skipped_no_loser += 1
            continue
        winner = min(pool, key=lambda i: (-score(rr.query_id, i), pos_after[i], i))
        add_list(rr.query_id, winner, score(rr.query_id, winner),
                 ((i, score(rr.query_id, i)) for i in demoted if i != winner))

    for query_id in sorted(by_query):
        recs = by_query[query_id]
        positives = [r for r in recs.values() if r.level in POSITIVE_LEVELS]
        negatives = [r for r in recs.values() if r.level in NEGATIVE_LEVELS]
        if not positives or not negatives:
            if positives or negatives:
                stats.skipped_no_loser += 1
            continue
        winner_rec = min(positives,
                         key=lambda r: (-reward_score(r, base_weights), r.level, r.item_id))
        add_list(query_id, winner_rec.item_id, reward_score(winner_rec, base_weights),
                 ((r.item_id, reward_score(r, base_weights))
                  for r in sorted(negatives, key=lambda r: (r.level, r.item_id))))

    return lists, stats


def read_interactions(path: str | Path) -> list[InteractionRecord]:
    """Tab-separated ``query item level cnt_pos cnt_clk cnt_order`` lines."""
    return read_records(path, lambda query, item, *counts:
                        InteractionRecord(query, item, *(int(c) for c in counts)), fields=6)


def write_preference_lists(lists: Iterable[PreferenceList], path: str | Path) -> None:
    write_records(path, ({"context": pl.context, "winner": pl.winner, "losers": pl.losers,
                          "deltas": pl.delta_weights} for pl in lists), jsonl=True)


def read_preference_lists(path: str | Path) -> list[PreferenceList]:
    return read_records(path, lambda obj: PreferenceList(
        obj["context"], obj["winner"], id_list(obj["losers"]), [float(d) for d in obj["deltas"]],
    ), jsonl=True)
