"""Codebook-utilization and coding-rate diagnostics over encoded catalogs.

``cur`` counts distinct hierarchy-code prefixes against the configured
capacity; ``icr`` is the fraction of items whose code tuple is shared
with no other item. ``drift_report`` replays catalog growth against a
frozen codebook.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import prod
from typing import Sequence

import numpy as np

from .embedding import float_rows
from .quantizer import RqOpqCodebook, descend
from .sids import SidCatalog


def cur(catalog: SidCatalog, prefix_len: int) -> float:
    """Distinct hierarchy prefixes of ``prefix_len`` over the prefix capacity."""
    n_levels = len(catalog.scheme.rq_sizes)
    if not 1 <= prefix_len <= n_levels:
        raise ValueError(f"prefix_len {prefix_len} outside [1, {n_levels}]")
    prefixes = {sid.rq[:prefix_len] for sid in catalog.entries.values()}
    return len(prefixes) / prod(catalog.scheme.rq_sizes[:prefix_len])


def icr(catalog: SidCatalog, use_opq: bool = True) -> float:
    """Fraction of items holding a code tuple shared with no other item."""
    if len(catalog) == 0:
        return 0.0
    counts = Counter(
        sid.digits if use_opq else sid.rq for sid in catalog.entries.values()
    )
    unique = sum(1 for sid in catalog.entries.values()
                 if counts[sid.digits if use_opq else sid.rq] == 1)
    return unique / len(catalog)


@dataclass(frozen=True)
class DriftStep:
    batch_index: int
    batch_size: int
    cumulative_size: int
    icr: float                 # cumulative ICR after appending the batch
    occupied_ratio: float      # fraction of the batch landing on already-taken codes


def drift_report(
    codebook: RqOpqCodebook,
    baseline: SidCatalog,
    batches: Sequence[np.ndarray],
    use_opq: bool = True,
) -> list[DriftStep]:
    """Encode each arriving batch against the frozen codebook and track
    cumulative ICR plus the share of batch items whose code was already
    occupied before the batch arrived; the baseline must have the codebook's scheme."""
    if not batches:
        raise ValueError("need at least one arriving batch")
    if baseline.scheme != codebook.scheme:
        raise ValueError(f"baseline {baseline.scheme} is not the codebook's {codebook.scheme}")

    n_rq = len(codebook.rq.levels)
    counts = Counter(sid.digits if use_opq else sid.rq for sid in baseline.entries.values())
    total = len(baseline)
    steps: list[DriftStep] = []
    for b, batch in enumerate(batches):
        codes, _ = descend(codebook.rq.levels, codebook.opq,
                           float_rows(batch, f"batch {b}", codebook.dim))
        keys = list(map(tuple, (codes if use_opq else codes[:, :n_rq]).tolist()))
        hits = sum(1 for k in keys if k in counts)      # codes taken before the batch
        counts.update(keys)
        total += len(keys)
        unique = sum(c for c in counts.values() if c == 1)
        steps.append(DriftStep(
            batch_index=b,
            batch_size=len(keys),
            cumulative_size=total,
            icr=unique / total,
            occupied_ratio=hits / len(keys),
        ))
    return steps
