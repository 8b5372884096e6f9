"""Test-only distributions exercising the generic fallback and edge cases."""

import numpy as np

from asymloss import ErrorDistribution


class Triangular(ErrorDistribution):
    """Density 1 - |x| on [-1, 1], defined through pdf alone.

    No moment or quantile overrides, so every evaluation goes through the
    base class's panel table.
    """

    kind = "triangular"

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(np.abs(x) <= 1.0, 1.0 - np.abs(x), 0.0)
        return float(out) if out.ndim == 0 else out


class PdfOnly(ErrorDistribution):
    """Another distribution seen through its pdf alone, so that the panel
    table can be checked against that distribution's closed forms."""

    kind = "pdf_only"

    def __init__(self, base):
        self.base = base

    def pdf(self, x):
        return self.base.pdf(x)


class GappedDensity(ErrorDistribution):
    """Density 1/4 on [0, 1] and (2, 3], zero on (1, 2], mirrored left.

    The CDF is flat on [1, 2], so a critical fractile of 3/4 is attained
    by every offset in that interval; solvers must pick the smallest
    magnitude edge and flag the tie.  (Not centrally peaked -- this class
    exists purely to exercise set-valued optima.)
    """

    kind = "gapped"

    def pdf(self, x):
        ax = np.abs(np.asarray(x, dtype=float))
        out = np.where((ax <= 1.0) | ((ax > 2.0) & (ax <= 3.0)), 0.25, 0.0)
        return float(out) if out.ndim == 0 else out

    def _half_moments(self, x):
        x = np.asarray(x, dtype=float)
        r1 = np.clip(x, 0.0, 1.0)
        r2 = np.clip(x, 2.0, 3.0)
        lower, upper = [], []
        for n in (1, 2, 3):
            below = (r1 ** n + r2 ** n - 2.0 ** n) / (4.0 * n)
            total = (1.0 + 3.0 ** n - 2.0 ** n) / (4.0 * n)
            lower.append(below)
            upper.append(total - below)
        return tuple(lower), tuple(upper)

    def _magnitude_quantile(self, q):
        q = np.asarray(q, dtype=float)
        return np.where(q <= 0.5, 2.0 * q, 2.0 * q + 1.0)
