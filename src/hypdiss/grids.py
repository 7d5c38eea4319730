"""Deterministic direction sets on the unit sphere and radial frequency grids.

All grids are fixed by their parameters (no randomness), so repeated runs
produce identical sampling points and quadrature weights.
"""

import numpy as np

from .errors import GridEmpty, InvalidParameter

#: Default number of equi-angular directions in d=2.
EQUIANGULAR_POINTS_2D = 64


def unit_directions(d, count=None):
    """Directions on S^{d-1} with quadrature weights summing to its measure.

    d=1 uses {-1,+1} with unit weights (counting measure on S^0); d=2 an
    equi-angular set (default 64 points); d=3 the 26-point degree-7 Lebedev
    rule (octahedron vertices, edge midpoints and cube corners).  Every set
    with an even number of points is exactly antipodal: the negation of each
    direction is in the set (see `antipodal_fold`).

    Returns (omegas, weights) with omegas of shape (m, d).
    """
    if d == 1:
        om = np.array([[1.0], [-1.0]])
        w = np.array([1.0, 1.0])
        return om, w
    if d == 2:
        m = EQUIANGULAR_POINTS_2D if count is None else int(count)
        if m < 2:
            raise InvalidParameter("need at least 2 directions in d=2")
        th = 2.0 * np.pi * np.arange(m) / m
        om = np.stack([np.cos(th), np.sin(th)], axis=1)
        if m % 2 == 0:
            # cos(th + pi) differs from -cos(th) in the last bits
            om[m // 2:] = -om[:m // 2]
        w = np.full(m, 2.0 * np.pi / m)
        return om, w
    if d == 3:
        return _lebedev26()
    raise InvalidParameter(f"unsupported space dimension d={d}")


def _lebedev26():
    pts = []
    wts = []
    # octahedron vertices, weight 1/21
    for i in range(3):
        for s in (1.0, -1.0):
            e = np.zeros(3)
            e[i] = s
            pts.append(e)
            wts.append(1.0 / 21.0)
    # edge midpoints (+-1, +-1, 0)/sqrt(2), weight 4/105
    for i in range(3):
        for j in range(i + 1, 3):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    e = np.zeros(3)
                    e[i] = si
                    e[j] = sj
                    pts.append(e / np.sqrt(2.0))
                    wts.append(4.0 / 105.0)
    # cube corners (+-1, +-1, +-1)/sqrt(3), weight 9/280
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                pts.append(np.array([sx, sy, sz]) / np.sqrt(3.0))
                wts.append(9.0 / 280.0)
    om = np.array(pts)
    w = 4.0 * np.pi * np.array(wts)
    return om, w


def radial_loggrid(lo=1e-3, hi=1e3, count=49):
    """Log-spaced frequency magnitudes in [lo, hi]."""
    if not (0 < lo < hi):
        raise InvalidParameter("need 0 < lo < hi")
    if int(count) < 1:
        raise GridEmpty(f"radial grid of {int(count)} points")
    return np.logspace(np.log10(lo), np.log10(hi), int(count))


def radial_quadrature(lo, hi, count, d):
    """Radial nodes and weights for integrals over the shell lo <= |xi| <= hi.

    Approximates int_lo^hi g(r) r^{d-1} dr by a trapezoidal rule in log r,
    i.e. int g(r) r^d dlog r.  Returns (r, w) with sum(w * f(r)) the
    quadrature of f against the radial measure r^{d-1} dr.
    """
    if int(count) < 2:
        raise InvalidParameter(f"radial quadrature needs at least 2 radii; got {int(count)}")
    r = radial_loggrid(lo, hi, count)
    t = np.log(r)
    wt = np.zeros_like(t)
    wt[1:-1] = 0.5 * (t[2:] - t[:-2])
    wt[0] = 0.5 * (t[1] - t[0])
    wt[-1] = 0.5 * (t[-1] - t[-2])
    return r, wt * r**d


def product_grid(omegas, dir_weights, r, r_weights):
    """Tensor grid xi = r_i * omega_j with combined quadrature weights.

    Returns (xi, w): xi of shape (len(r)*len(omegas), d), radial index major.
    sum(w * f(xi)) approximates the whole-space integral of f over the shell.
    """
    xi = (r[:, None, None] * omegas[None, :, :]).reshape(-1, omegas.shape[1])
    w = (r_weights[:, None] * dir_weights[None, :]).reshape(-1)
    return xi, w


def direction_major_grid(omegas, mags):
    """Frequencies xi = mags[k] * omegas[i] in row i * len(mags) + k.

    Returns (xi, direction_index, magnitude), each with len(omegas) *
    len(mags) rows; the order is that of a loop over directions with the
    magnitudes inside.
    """
    omegas = np.asarray(omegas, dtype=float)
    mags = np.asarray(mags, dtype=float)
    xi = (omegas[:, None, :] * mags[None, :, None]).reshape(-1, omegas.shape[1])
    return xi, np.repeat(np.arange(len(omegas)), len(mags)), np.tile(mags, len(omegas))


def antipodal_fold(points):
    """One point of each antipodal pair {p, -p} of a stack (Q, d).

    Returns (keep, src): points[keep] holds, in order, the first row of each
    pair and every row whose negation is absent, and row q equals
    points[keep][src[q]] or its negation.  Rows are matched on exact
    negation (0.0 and -0.0 compare equal).  A symbol with real coefficients
    satisfies M(-xi) = conj M(xi), so a computation on a frequency stack can
    run on points[keep] and be expanded with [src].
    """
    pts = np.asarray(points, dtype=float)
    first = {}
    keep, src = [], np.empty(len(pts), dtype=int)
    # adding or subtracting from +0.0 turns -0.0 into +0.0
    for q, (p, neg) in enumerate(zip(map(tuple, (pts + 0.0).tolist()),
                                     map(tuple, (0.0 - pts).tolist()))):
        j = first.get(neg, first.get(p))
        if j is None:
            j = first[p] = len(keep)
            keep.append(q)
        src[q] = j
    return np.array(keep, dtype=int), src


def antipodal_expand(values, points, keep, src, axis=0):
    """Expand values computed on points[keep] to every row of points.

    (keep, src) is the `antipodal_fold` of points, and values holds one
    entry per kept point along axis.  Row q takes entry src[q], conjugated
    where points[q] is the negation of the kept point: a quantity built from
    real coefficients satisfies f(-xi) = conj f(xi).
    """
    pts = np.asarray(points)
    out = np.take(values, src, axis=axis)
    flip = (slice(None),) * axis + (np.any(pts != pts[keep][src], axis=1),)
    out[flip] = np.conj(out[flip])
    return out


def check_unit(omega):
    """Validate that omega is a unit vector, or a stack (Q, d) of unit
    vectors, to 1e-12; returns it as a float array of shape (d,) or (Q, d)."""
    from .errors import NonUnitDirection

    om = np.asarray(omega, dtype=float)
    om = om.reshape(-1) if om.ndim < 2 else om
    norms = np.linalg.norm(np.atleast_2d(om), axis=1)
    bad = np.abs(norms - 1.0) > 1e-12
    if bad.any():
        raise NonUnitDirection(f"|omega| = {norms[np.argmax(bad)]!r} != 1")
    return om
