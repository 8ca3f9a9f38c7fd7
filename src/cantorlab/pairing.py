"""The fixed diagonal enumeration of pairs.

One bijection NxN -> N (Cantor pairing, antidiagonal order) serves both the
coordinate embedding of product space into Cantor space and the flattening
of staged tables; the interval partition lays its blocks along the same
antidiagonals.
"""

from __future__ import annotations

import math


def cantor_pair(a: int, b: int) -> int:
    if a < 0 or b < 0:
        raise ValueError("pairing needs naturals")
    s = a + b
    return s * (s + 1) // 2 + b


def cantor_unpair(n: int) -> tuple[int, int]:
    if n < 0:
        raise ValueError("pairing needs naturals")
    s = (math.isqrt(8 * n + 1) - 1) // 2  # the largest s with s(s+1)/2 <= n
    b = n - s * (s + 1) // 2
    return s - b, b
