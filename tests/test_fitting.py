import math

import numpy as np
import pytest

from bohrqed.fitting import fit_loglog


def test_slope_of_exact_power_law():
    xs = np.geomspace(1e-3, 1e-1, 9)
    fit = fit_loglog(xs, 3.0 * xs ** -2)
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert not fit.low_confidence


@pytest.mark.parametrize("xs", [[0.1, 0.1], [0.5, 0.5, 0.5]])
def test_zero_span_abscissa_rejected(capfd, xs):
    # duplicate radii used to reach LAPACK, which printed DLASCL errors to
    # stderr before raising LinAlgError
    with pytest.raises(ValueError, match="abscissa has zero span"):
        fit_loglog(xs, np.arange(1.0, len(xs) + 1.0))
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("xs,ys", [
    ([1.0, math.nan, 3.0], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, math.inf], [1.0, 2.0, 3.0]),
    ([1.0, 2.0, 3.0], [1.0, math.nan, 3.0]),
    ([1.0, 2.0, 3.0], [1.0, 0.0, 3.0]),
    ([-1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),
])
def test_non_positive_or_non_finite_data_rejected(capfd, xs, ys):
    with pytest.raises(ValueError, match="positive finite data"):
        fit_loglog(xs, ys)
    assert capfd.readouterr() == ("", "")
