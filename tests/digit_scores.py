"""Per-digit reads of a scorer's ``score_step`` block, for tests that check
beam search against an independent walk over single digits."""

import numpy as np


def digit_score(scorer, context, prefix, digit, scheme):
    """The log-score ``scorer`` gives ``digit`` after ``prefix`` under ``scheme``."""
    vocab = scheme.sizes[len(prefix)]
    return scorer.score_step(context, np.array([prefix], dtype=np.int64), vocab)[0, digit]
