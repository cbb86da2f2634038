"""Reference exact linear algebra for the tests: a Gauss-Jordan inverse
and a matrix product over the field of the entries (Q, or K = Q(sqrt 3)
through any value type with ``+``, ``*`` and ``1 / x``).

It imports nothing from okubo_e8, so an oracle built on it stays
independent of the package's own elimination (``exact.solve`` and
``exact.ldl``) that the oracle checks.
"""

from fractions import Fraction


def _field(v):
    return Fraction(v) if isinstance(v, int) else v


def mat_product(a, b):
    """A B, for matrices given as sequences of rows."""
    cols = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols]
            for row in a]


def inverse(a):
    """A^-1 by Gauss-Jordan on [A | I]: the pivot of column c is the first
    nonzero entry at or below row c; a singular A raises ZeroDivisionError."""
    n = len(a)
    work = [[_field(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for c in range(n):
        p = next((r for r in range(c, n) if work[r][c]), None)
        if p is None:
            raise ZeroDivisionError("singular matrix")
        work[c], work[p] = work[p], work[c]
        inv = 1 / work[c][c]
        work[c] = [v * inv for v in work[c]]
        for r in range(n):
            f = work[r][c]
            if r != c and f:
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return [row[n:] for row in work]
