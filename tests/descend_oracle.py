"""Reference encode path: ``quantizer.descend`` as it was before tables went
through the float32 screen, with every label from ``kmeans.nearest`` and the
OPQ digits from a rotated batch. Tests compare the library's codes and
residuals with these, bit for bit; the rotated batch rounds each row by the
batch's shape, so an OPQ digit may differ only at a near-tie."""

from __future__ import annotations

import numpy as np

from sidforge.kmeans import nearest


def descend(levels, opq, vectors):
    residual = np.array(vectors, dtype=np.float64)
    cols = []
    for table in levels:
        codes, _ = nearest(residual, table)
        residual -= table[codes]
        cols.append(codes)
    rotated = residual @ opq.rotation
    offset = 0
    for table in opq.subspaces:
        dsub = table.shape[1]
        cols.append(nearest(rotated[:, offset:offset + dsub], table)[0])
        offset += dsub
    return np.stack(cols, axis=1), residual
