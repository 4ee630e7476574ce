"""Log-log power-law fits for scaling sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PowerFit", "fit_loglog"]


@dataclass(frozen=True)
class PowerFit:
    """Least-squares slope of log(y) against log(x).

    ``low_confidence`` is set when there are fewer than three points
    (no residual degree of freedom) or the abscissa spans less than two
    decades.
    """

    slope: float
    intercept: float
    n_points: int
    span_decades: float
    low_confidence: bool


def fit_loglog(xs, ys) -> PowerFit:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a slope")
    if not (np.all((xs > 0) & (xs < np.inf)) and np.all((ys > 0) & (ys < np.inf))):
        raise ValueError("log-log fit requires positive finite data")
    if xs.min() == xs.max():
        raise ValueError("abscissa has zero span")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    span = float(np.log10(xs.max() / xs.min()))
    low = len(xs) < 3 or span < 2.0
    return PowerFit(slope=float(slope), intercept=float(intercept),
                    n_points=len(xs), span_decades=span, low_confidence=low)

