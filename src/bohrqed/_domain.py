"""The input contract: :class:`DomainError` and the three checks that raise it.

Every input a computation cannot take is reported as a ``DomainError``
whose message names the value; the CLI exits 3 on exactly these.
"""

import math

import numpy as np

_INTP_MAX = int(np.iinfo(np.intp).max)


class DomainError(ValueError):
    """An input outside the domain of the computation it was handed to."""


def finite(name: str, *values, **named) -> None:
    """Every value a finite number; ``named`` ones are shown as ``key=value``."""
    if not all(map(math.isfinite, (*values, *named.values()))):
        got = [*map(str, values), *(f"{key}={value}" for key, value in named.items())]
        raise DomainError(f"{name} must be finite, got {', '.join(got)}")


def positive(name: str, value) -> None:
    """A finite number above zero."""
    if not 0 < value < math.inf:
        raise DomainError(f"{name} must be finite and positive, got {value}")


def whole(name: str, value, least: int) -> None:
    """A whole number at least ``least`` that fits ``np.intp``."""
    if not (least <= value < math.inf and value == math.floor(value)):
        wanted = "a positive integer" if least == 1 else f"an integer >= {least}"
        raise DomainError(f"{name} must be {wanted}, got {value}")
    if value > _INTP_MAX:
        raise DomainError(f"{name} must be at most {_INTP_MAX}, got {value}")
