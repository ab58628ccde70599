"""Retrieval metrics plus a synthetic benchmark generator.

``synth_catalog`` builds seeded Gaussian-cluster catalogs whose cluster id
doubles as the category and whose per-cluster keyword vectors sit near the
cluster center, so keyword enhancement measurably tightens clusters.
``run_eval`` drives the full encode / generate / score pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .embedding import Catalog, Embedding, KeywordSet
from .generator import Scorer, SidTrie, beam_search, build_trie
from .quantizer import RqOpqCodebook, encode_batch
from .sidmetrics import cur, icr
from .sids import SidCatalog


@dataclass(frozen=True)
class EvalCase:
    """One retrieval judgement: a context, ground truth, ranked candidates."""

    context: object
    truth: frozenset[str]
    candidates: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "truth", frozenset(self.truth))
        object.__setattr__(self, "candidates", tuple(self.candidates))
        if not self.truth:
            raise ValueError("ground truth must be nonempty")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("candidates must be deduplicated")


def hitrate_at_k(cases: Sequence[EvalCase], k: int) -> float:
    """Fraction of cases whose top-k candidates intersect the truth."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not cases:
        raise ValueError("empty case set")
    hits = sum(1 for c in cases if any(cand in c.truth for cand in c.candidates[:k]))
    return hits / len(cases)


def mrr_at_k(cases: Sequence[EvalCase], k: int) -> float:
    """Mean reciprocal rank of the first truth hit within the top k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not cases:
        raise ValueError("empty case set")
    total = 0.0
    for c in cases:
        for rank, cand in enumerate(c.candidates[:k], 1):
            if cand in c.truth:
                total += 1.0 / rank
                break
    return total / len(cases)


@dataclass(frozen=True)
class SyntheticSpec:
    clusters: int = 16
    items_per_cluster: int = 32
    dim: int = 16
    noise_scale: float = 0.5
    center_scale: float = 10.0
    keyword_noise: float = 0.05
    keywords_per_item: int = 2
    # boilerplate collapse: this share of items sits on one of
    # `collapse_points` shared locations instead of its cluster center,
    # modelling attribute-stuffed listings whose embeddings look alike
    collapsed_frac: float = 0.0
    collapse_points: int = 0
    collapse_noise: float = 0.05
    sessions: int = 0
    max_session_clicks: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.clusters, self.items_per_cluster, self.dim, self.keywords_per_item) < 1:
            raise ValueError("cluster count, items per cluster, dim, keywords must be positive")
        if self.noise_scale < 0 or self.keyword_noise < 0 or self.sessions < 0:
            raise ValueError("scales and session count must be non-negative")
        if not 0.0 <= self.collapsed_frac <= 1.0:
            raise ValueError("collapsed_frac must be in [0, 1]")
        if self.collapsed_frac > 0.0 and self.collapse_points < 1:
            raise ValueError("collapsed_frac needs collapse_points >= 1")


@dataclass(frozen=True)
class SynthSession:
    session_id: str
    query_id: str
    clicked_item: str
    short_clicks: tuple[str, ...] = ()


@dataclass
class SynthBundle:
    items: Catalog
    categories: dict[str, str]
    keywords: dict[str, KeywordSet]
    queries: Catalog
    query_cluster: dict[str, int]
    sessions: list[SynthSession] = field(default_factory=list)


def synth_catalog(spec: SyntheticSpec) -> SynthBundle:
    """Seeded clustered catalog with categories, keywords, and sessions.

    Items are cluster center plus Gaussian noise; each cluster gets a few
    keyword vectors hugging its center; one query per cluster sits near the
    center as well. Sessions click within the query's cluster with a
    popularity skew toward low item indices.
    """
    rng = np.random.default_rng(spec.seed)
    centers = rng.normal(0.0, spec.center_scale, size=(spec.clusters, spec.dim))
    collapse_locs = (
        rng.normal(0.0, spec.center_scale, size=(spec.collapse_points, spec.dim))
        if spec.collapse_points else None
    )

    # one draw for a block of rows takes the same stream as a draw per row
    n_kw = spec.clusters * spec.keywords_per_item
    kw_rows = np.repeat(centers, spec.keywords_per_item, axis=0) + rng.normal(
        0.0, spec.keyword_noise, size=(n_kw, spec.dim))
    cluster_kw = [
        tuple(Embedding(f"kw{c}_{j}", kw_rows[c * spec.keywords_per_item + j])
              for j in range(spec.keywords_per_item))
        for c in range(spec.clusters)
    ]
    n_items = spec.clusters * spec.items_per_cluster
    if collapse_locs is None:
        matrix = np.repeat(centers, spec.items_per_cluster, axis=0) + rng.normal(
            0.0, spec.noise_scale, size=(n_items, spec.dim))
    else:
        # each row's rng.random() call interleaves with its noise draw
        rows = []
        for c in range(spec.clusters):
            for _ in range(spec.items_per_cluster):
                if rng.random() < spec.collapsed_frac:
                    loc = collapse_locs[int(rng.integers(spec.collapse_points))]
                    rows.append(loc + rng.normal(0.0, spec.collapse_noise, size=spec.dim))
                else:
                    rows.append(centers[c] + rng.normal(0.0, spec.noise_scale, size=spec.dim))
        matrix = np.stack(rows)
    ids = [f"item{c}_{i}" for c in range(spec.clusters) for i in range(spec.items_per_cluster)]
    categories = {item_id: f"cat{i // spec.items_per_cluster}" for i, item_id in enumerate(ids)}
    keywords = {
        item_id: KeywordSet(item_id, cluster_kw[i // spec.items_per_cluster])
        for i, item_id in enumerate(ids)
    }
    items = Catalog(ids, matrix)

    q_ids = [f"query{c}" for c in range(spec.clusters)]
    query_cluster = {q_id: c for c, q_id in enumerate(q_ids)}
    queries = Catalog(q_ids, centers + rng.normal(0.0, spec.noise_scale * 0.5,
                                                  size=(spec.clusters, spec.dim)))

    sessions: list[SynthSession] = []
    if spec.sessions:
        # popularity ~ 1/(rank+1) within each cluster
        pop = 1.0 / (np.arange(spec.items_per_cluster) + 1.0)
        pop = pop / pop.sum()
        for s in range(spec.sessions):
            c = int(rng.integers(spec.clusters))
            n_clicks = int(rng.integers(0, spec.max_session_clicks + 1))
            picks = rng.choice(spec.items_per_cluster, size=n_clicks + 1, p=pop)
            click_ids = tuple(f"item{c}_{int(p)}" for p in picks)
            sessions.append(SynthSession(
                session_id=f"sess{s}",
                query_id=f"query{c}",
                clicked_item=click_ids[-1],
                short_clicks=click_ids[:-1],
            ))
    return SynthBundle(items, categories, keywords, queries, query_cluster, sessions)


@dataclass
class EvalReport:
    ks: list[int]
    hitrate: dict[int, float]
    mrr: dict[int, float]
    catalog_cur_per_level: list[float]
    catalog_icr_rq: float
    catalog_icr_full: float
    n_cases: int

    def rows(self) -> Iterator[tuple[str, ...]]:
        yield "k", "hitrate", "mrr"
        for k in self.ks:
            yield str(k), repr(self.hitrate[k]), repr(self.mrr[k])
        yield ("",)
        yield ("cur_per_level", *map(repr, self.catalog_cur_per_level))
        yield "icr_rq", repr(self.catalog_icr_rq)
        yield "icr_full", repr(self.catalog_icr_full)
        yield "cases", str(self.n_cases)

    def render(self) -> str:
        return "".join("\t".join(row) + "\n" for row in self.rows())


def rank_items(hits, trie: SidTrie) -> list[str]:
    """Flatten beam hits to item ids, deduplicated at their best rank."""
    seen: set[str] = set()
    ranked: list[str] = []
    for hit in hits:
        for item_id in trie.items_at(hit.sid.digits):
            if item_id not in seen:
                seen.add(item_id)
                ranked.append(item_id)
    return ranked


def run_eval(
    codebook: RqOpqCodebook,
    scorer: Scorer,
    cases: Sequence[EvalCase],
    ks: Sequence[int],
    item_catalog: Catalog,
    beam: int | None = None,
    sid_catalog: SidCatalog | None = None,
) -> EvalReport:
    """Encode the catalog, generate per context, and score HR/MRR per k.

    Cases with equal contexts share one beam search (a list context is
    keyed by its tuple), so contexts must be hashable and the scorer pure.
    Pass ``sid_catalog`` to rank against precomputed (e.g. fit-assignment)
    codes instead of greedy re-encoding the catalog.
    """
    if not cases:
        raise ValueError("empty case set")
    ks = sorted(set(int(k) for k in ks))
    if ks[0] < 1:
        raise ValueError("all k must be >= 1")
    if sid_catalog is None:
        sids = encode_batch(item_catalog.matrix, codebook)
        sid_catalog = SidCatalog(dict(zip(item_catalog.ids, sids)), codebook.scheme)
    trie = build_trie(sid_catalog)
    beam_width = beam if beam is not None else max(ks)

    ranked: dict[object, tuple[str, ...]] = {}
    filled: list[EvalCase] = []
    for case in cases:
        key = tuple(case.context) if isinstance(case.context, list) else case.context
        if key not in ranked:
            hits = beam_search(case.context, scorer, beam_width, trie=trie)
            ranked[key] = tuple(rank_items(hits, trie))
        filled.append(EvalCase(case.context, case.truth, ranked[key]))

    report = EvalReport(
        ks=list(ks),
        hitrate={k: hitrate_at_k(filled, k) for k in ks},
        mrr={k: mrr_at_k(filled, k) for k in ks},
        catalog_cur_per_level=[cur(sid_catalog, p) for p in range(1, len(codebook.rq.levels) + 1)],
        catalog_icr_rq=icr(sid_catalog, use_opq=False),
        catalog_icr_full=icr(sid_catalog, use_opq=True),
        n_cases=len(filled),
    )
    return report
