"""The fixed diagonal enumeration of pairs.

One bijection NxN -> N (Cantor pairing, antidiagonal order) serves both the
coordinate embedding of product space into Cantor space and the flattening
of staged tables; the interval partition lays its blocks along the same
antidiagonals.
"""

from __future__ import annotations


def cantor_pair(a: int, b: int) -> int:
    if a < 0 or b < 0:
        raise ValueError("pairing needs naturals")
    s = a + b
    return s * (s + 1) // 2 + b


def cantor_unpair(n: int) -> tuple[int, int]:
    if n < 0:
        raise ValueError("pairing needs naturals")
    s = 0
    while (s + 1) * (s + 2) // 2 <= n:
        s += 1
    b = n - s * (s + 1) // 2
    return s - b, b
