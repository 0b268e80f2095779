"""The one float reduction behind every reported total.

Python 3.12's ``sum()`` adds floats with Neumaier compensation, 3.11's
left to right.  Every float total that feeds a result goes through
:func:`left_sum` instead, so results (and the goldens recorded on 3.11)
do not depend on the interpreter.  It imports nothing from the package,
so every layer may use it.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["left_sum"]


def left_sum(values: Iterable[float]):
    """``sum(values)`` as Python 3.11 computes it, from the int ``0``.

    A compensated sum of the first example gives ``1.0``.

    >>> left_sum([0.1] * 10)
    0.9999999999999999
    >>> left_sum([])
    0
    """
    total = 0
    for value in values:
        total += value
    return total
