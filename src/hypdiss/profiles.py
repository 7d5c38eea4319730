"""Polynomial smoothstep ramps shared by cut-offs, masks and monitor weights."""

from math import comb

import numpy as np


#: Continuous derivatives of every ramp at both ends.
ORDER = 7


def smoothstep(t):
    """C^ORDER monotone ramp on [0, 1] with flat ends.

    The generalized smoothstep polynomial S_N(t) of degree 2N+1 with N = ORDER
    has N continuous derivatives at both ends.  Values are clamped outside
    [0, 1].
    """
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    n = ORDER
    acc = np.zeros_like(t)
    for k in range(n + 1):
        acc += comb(n + k, k) * comb(2 * n + 1, n - k) * (-t) ** k
    return t ** (n + 1) * acc


def ramp_up(x, lo, hi):
    """0 for x <= lo, 1 for x >= hi, smooth monotone in between."""
    if np.isscalar(lo) and np.isscalar(hi) and hi <= lo:
        raise ValueError(f"ramp needs hi > lo, got [{lo}, {hi}]")
    return smoothstep((np.asarray(x, dtype=float) - lo) / (hi - lo))


def ramp_down(x, lo, hi):
    """1 for x <= lo, 0 for x >= hi, smooth monotone in between."""
    return 1.0 - ramp_up(x, lo, hi)
