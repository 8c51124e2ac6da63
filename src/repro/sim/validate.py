"""The shared numeric check for spec and model constructors.

A NaN slips through a plain ``value < 0`` test (every comparison with
NaN is false) and then poisons every float fold it reaches: the DES
clock, the ICAP chunk pipeline, the recovery backoff.  Constructors
therefore validate their float fields with :func:`check_number`, which
is written so that NaN fails it.
"""

from __future__ import annotations

import math

__all__ = ["check_number"]


def check_number(
    name: str,
    value: float,
    *,
    positive: bool = False,
    finite: bool = True,
) -> float:
    """Return ``value`` if it is a valid field value; raise otherwise.

    Valid means ``>= 0`` (``> 0`` with ``positive``) and, unless
    ``finite=False``, not ``inf``.  NaN is never valid.  Raises
    :class:`ValueError` naming the field.
    """
    ok = value > 0 if positive else value >= 0
    if not ok or (finite and value == math.inf):
        kind = "a finite number" if finite else "a number"
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be {kind} {bound}: {value!r}")
    return value
