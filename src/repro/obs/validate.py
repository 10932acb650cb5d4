"""Checks shared by the loaders of JSON files and flags."""

import math


def is_finite_number(value) -> bool:
    """Is ``value`` an int or float (not a bool) with a finite float
    value?  An int beyond the float range is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False
