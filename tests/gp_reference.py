"""Reference Grassberger-Procaccia estimate the tests compare the library against.

It stores and sorts every pair distance (8 bytes per pair); the library keeps
only the squared distances its fit reads and must return the same bits.
"""

import numpy as np

from platelab.attractor_lab import _ls_slope


def gp_estimate(X, theiler, scale):
    """Slope of log C(r) over pairs more than `theiler` rows apart.

    Distances are built lag by lag into one array sorted in place;
    quantiles are read off it and each count is a binary search.
    """
    n = X.shape[0]
    lags = range(max(theiler, 0) + 1, n)
    dists = np.empty(sum(n - k for k in lags))
    start = 0
    for k in lags:
        diff = X[k:] - X[:-k]
        dists[start:start + n - k] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        start += n - k
    dists.sort()
    diameter = float(dists[-1]) if dists.size else 0.0
    if diameter < 1e-8 * scale:
        return 0.0
    pos = dists[np.searchsorted(dists, 0.0, side="right"):]
    if pos.size < 100:
        return 0.0
    r_lo = sorted_quantile(pos, 0.02)
    r_hi = sorted_quantile(pos, 0.4)
    if not r_hi > r_lo > 0:
        return 0.0
    rs = np.geomspace(r_lo, r_hi, 12)
    log_c = np.log(np.searchsorted(dists, rs) / dists.size)
    return max(0.0, _ls_slope(np.log(rs), log_c))


def sorted_quantile(x, q):
    """np.quantile's default (linear) rule on an already sorted array."""
    h = (x.size - 1) * q
    i = min(int(h), x.size - 2)
    return float(x[i] + (h - i) * (x[i + 1] - x[i]))
