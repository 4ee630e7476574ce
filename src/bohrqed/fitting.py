"""Log-log power-law fits and the limit sweeps built on them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._domain import DomainError, positive

__all__ = ["PowerFit", "fit_loglog", "Sweep", "fit_sweep"]


@dataclass(frozen=True)
class PowerFit:
    """Least-squares slope of log(y) against log(x).

    ``low_confidence`` is set when there are fewer than three points
    (no residual degree of freedom) or the abscissa spans less than two
    decades.
    """

    slope: float
    low_confidence: bool


def fit_loglog(xs, ys) -> PowerFit:
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise DomainError("xs and ys must be 1-d arrays of equal length")
    if len(xs) < 2:
        raise DomainError(f"need at least two points to fit a slope, got {len(xs)}")
    if not (np.all((xs > 0) & (xs < np.inf)) and np.all((ys > 0) & (ys < np.inf))):
        raise DomainError("log-log fit requires positive finite data")
    if xs.min() == xs.max():
        raise DomainError(f"abscissa has zero span, got {xs.min()}")
    lx, ly = np.log(xs), np.log(ys)
    slope = np.polyfit(lx, ly, 1)[0]
    low = len(xs) < 3 or np.log10(xs.max() / xs.min()) < 2.0
    return PowerFit(slope=float(slope), low_confidence=bool(low))


@dataclass(frozen=True)
class Sweep:
    """One limit sweep: ``columns`` maps each name to its values in table
    order, the abscissa first; ``slopes`` holds the fit of every
    ``expected`` column against the abscissa."""

    columns: dict[str, tuple]
    slopes: dict[str, PowerFit]
    expected: dict[str, float]
    low_confidence: bool


def fit_sweep(xs: Sequence[float], name: str, row: Callable[[float], dict],
              expected: dict[str, float]) -> Sweep:
    """Evaluate ``row`` at every abscissa, ascending, and fit each
    ``expected`` column's log-log slope against it.

    ``xs`` must hold at least two values, each finite and positive, and
    each row's ``expected`` columns must come out so, without a float
    overflow or zero division; a :class:`~bohrqed.DomainError` names
    ``name`` and the first value that fails.
    """
    xs = [float(x) for x in xs]
    if len(xs) < 2:
        raise DomainError(f"need at least two {name}")
    for x in xs:
        positive(name, x)
    xs.sort()
    rows = []
    for x in xs:
        try:
            values = row(x)
        except (OverflowError, ZeroDivisionError):
            values = {}  # no fitted column came out
        if not all(0 < values.get(key, 0) < math.inf for key in expected):
            raise DomainError(f"{name} must keep the fitted columns finite and "
                              f"positive, got {x}")
        rows.append(values)
    columns = {key: tuple(r[key] for r in rows) for key in rows[0]}
    abscissa = np.array(xs)
    slopes = {key: fit_loglog(abscissa, np.array([float(v) for v in columns[key]]))
              for key in expected}
    return Sweep(columns=columns, slopes=slopes, expected=expected,
                 low_confidence=any(fit.low_confidence for fit in slopes.values()))
