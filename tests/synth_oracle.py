"""Reference sessions: ``evalharness.synth_catalog``'s sessions as they were
drawn before picks became inverse-CDF lookups, with one
``rng.choice(items_per_cluster, size, p=pop)`` per session. The catalog's
draws are replayed, in ``synth_catalog``'s order, only to bring the stream to
where the sessions start. Tests compare the library's sessions with these, so
a numpy release that changes ``choice``'s arithmetic fails there."""

from __future__ import annotations

import numpy as np

from sidforge.evalharness import SynthSession, SyntheticSpec


def _after_catalog(spec: SyntheticSpec) -> np.random.Generator:
    rng = np.random.default_rng(spec.seed)
    rng.normal(0.0, spec.center_scale, size=(spec.clusters, spec.dim))
    if spec.collapse_points:
        rng.normal(0.0, spec.center_scale, size=(spec.collapse_points, spec.dim))
    rng.normal(0.0, spec.keyword_noise, size=(spec.clusters * spec.keywords_per_item, spec.dim))
    n_items = spec.clusters * spec.items_per_cluster
    if not spec.collapse_points:
        rng.normal(0.0, spec.noise_scale, size=(n_items, spec.dim))
    else:
        for _ in range(n_items):
            if rng.random() < spec.collapsed_frac:
                rng.integers(spec.collapse_points)
                rng.normal(0.0, spec.collapse_noise, size=spec.dim)
            else:
                rng.normal(0.0, spec.noise_scale, size=spec.dim)
    rng.normal(0.0, spec.noise_scale * 0.5, size=(spec.clusters, spec.dim))
    return rng


def sessions(spec: SyntheticSpec) -> list[SynthSession]:
    rng = _after_catalog(spec)
    out = []
    pop = 1.0 / (np.arange(spec.items_per_cluster) + 1.0)
    pop = pop / pop.sum()
    for s in range(spec.sessions):
        c = int(rng.integers(spec.clusters))
        n_clicks = int(rng.integers(0, spec.max_session_clicks + 1))
        picks = rng.choice(spec.items_per_cluster, size=n_clicks + 1, p=pop)
        click_ids = tuple(f"item{c}_{int(p)}" for p in picks)
        out.append(SynthSession(
            session_id=f"sess{s}",
            query_id=f"query{c}",
            clicked_item=click_ids[-1],
            short_clicks=click_ids[:-1],
        ))
    return out
