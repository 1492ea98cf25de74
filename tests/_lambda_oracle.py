"""lambda(t, T) of a VolatilitySpec, point by point: a test oracle.

The library evaluates lambda on a grid with ``VolatilitySpec.matrix`` and
``on_grid``; this sums the separable terms at any broadcastable (t, T),
so tests can check those tensors and the fields built from them against
an independent evaluation.
"""

import numpy as np


def lambda_standard(vol, t, T):
    """lambda(t, T), broadcasting over array arguments."""
    t = np.asarray(t, dtype=float)
    T = np.asarray(T, dtype=float)
    total = np.zeros(np.broadcast_shapes(t.shape, T.shape))
    for a_fn, b_fn in vol.terms:
        total = total + np.asarray(a_fn(t)) * np.asarray(b_fn(T))
    return total if total.shape else float(total)
