"""Integer work-horse kernels.

The three hot loops of the package:

* branch-and-bound enumeration of short lattice vectors,
* the signed block-permutation metric filter,
* the pairwise closure check for unit loops.

All kernel arithmetic is arbitrary-precision integer arithmetic; the exact
rational preprocessing (LDL data and denominator clearing) happens in
:func:`prepare_enumeration`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import isqrt, lcm

from .exact import eliminate

BACKEND = "python"


class NotPositiveDefinite(ValueError):
    """The quadratic form has a non-positive exact pivot."""


@dataclass(frozen=True)
class EnumPlan:
    """Denominator-cleared completed-squares data for one quadratic form.

    The form satisfies  S * x^T G x = sum_c W[c] * t_c^2  with
    t_c = B[c]*x_c + sum_r A[c][r-c-1]*x_r  (r > c), all integers.
    """

    n: int
    weights: tuple[int, ...]
    pivots: tuple[int, ...]
    offsets: tuple[tuple[int, ...], ...]
    scale: int
    bound_scaled: int


def prepare_enumeration(gram, bound) -> EnumPlan:
    """Exact LDL of an integer Gram matrix, cleared to integer data.

    ``gram`` is a symmetric positive definite matrix of ints (or Fractions
    with denominator 1); ``bound`` may be an int or Fraction.
    """
    n = len(gram)
    for r in range(n):
        for c in range(r):
            if gram[r][c] != gram[c][r]:
                raise ValueError("Gram matrix is not symmetric")
    work, diag, _ = eliminate(gram, swap=False)
    for c, d in enumerate(diag):
        if d <= 0:
            raise NotPositiveDefinite(f"pivot {c} is {d}")
    mu = [work[c][c + 1:] for c in range(n)]

    # clear denominators: t_c = b_c x_c + sum a_cr x_r, weight W_c
    pivots = [lcm(*(f.denominator for f in mu[c])) for c in range(n)]
    offsets = [tuple(int(f * b) for f in row) for row, b in zip(mu, pivots)]
    total = lcm(*(d.denominator * b * b for d, b in zip(diag, pivots)))
    weights = [int(d * total) // (b * b) for d, b in zip(diag, pivots)]
    bound = Fraction(bound)
    return EnumPlan(
        n=n,
        weights=tuple(weights),
        pivots=tuple(pivots),
        offsets=tuple(offsets),
        scale=total,
        bound_scaled=(bound.numerator * total) // bound.denominator,
    )


def enumerate_short_vectors(plan: EnumPlan) -> list[tuple[int, ...]]:
    """All nonzero integer vectors with scaled norm <= plan.bound_scaled,
    both signs included, sorted lexicographically.

    Branch and bound over the integer completed squares: the last
    coordinate is fixed first, and each t_c^2 is charged against what is
    left of the bound.
    """
    n, weights, pivots, offsets = plan.n, plan.weights, plan.pivots, plan.offsets
    out = []
    if plan.bound_scaled < 0:
        return out
    x = [0] * n

    def descend(c, rem):
        if c < 0:
            if any(x):
                out.append(tuple(x))
            return
        off = 0
        orow = offsets[c]
        for t in range(n - 1 - c):
            xv = x[c + 1 + t]
            if xv:
                off += orow[t] * xv
        w = weights[c]
        m = isqrt(rem // w)
        b = pivots[c]
        lo = -(m + off)
        hi = m - off
        xc = -((-lo) // b)  # ceil(lo / b)
        top = hi // b
        while xc <= top:
            t = b * xc + off
            x[c] = xc
            descend(c - 1, rem - w * t * t)
            xc += 1
        x[c] = 0

    descend(n - 1, plan.bound_scaled)
    out.sort()
    return out


def metric_stabilizers(gram) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Signed block permutations (blocks {0..3}, {4..7}) preserving ``gram``.

    Returns (perm, signs) pairs, deterministically ordered; the candidate
    count is always 147456.
    """
    gram = [[int(v) for v in row] for row in gram]
    perms4 = list(permutations(range(4)))
    signs4 = list(product((1, -1), repeat=4))
    survivors = []
    for p1 in perms4:
        for p2 in perms4:
            perm = tuple(p1) + tuple(4 + t for t in p2)
            pg = [[gram[perm[i]][perm[j]] for j in range(8)] for i in range(8)]
            for s1 in signs4:
                for s2 in signs4:
                    eps = s1 + s2
                    ok = True
                    for i in range(8):
                        row_p, row_g, ei = pg[i], gram[i], eps[i]
                        for j in range(i, 8):
                            if ei * eps[j] * row_p[j] != row_g[j]:
                                ok = False
                                break
                        if not ok:
                            break
                    if ok:
                        survivors.append((perm, eps))
    return survivors


def unit_closure_failures(vecs2, idx, sgn) -> tuple[int, int]:
    """(membership failures, norm failures) over all pairwise products.

    ``vecs2``: doubled integer coordinate vectors of the unit set.  A
    product of two units must again be a unit (doubled coordinates in the
    set) of norm one (sum of squares of the 4x coordinates equal to 16).
    """
    vecs2 = sorted(tuple(int(v) for v in vec) for vec in vecs2)
    vset = set(vecs2)
    bad_member = 0
    bad_norm = 0
    for xa in vecs2:
        nz_x = [(i, xa[i]) for i in range(8) if xa[i]]
        for yb in vecs2:
            acc = [0] * 8
            for i, xi in nz_x:
                row_i = idx[i]
                row_s = sgn[i]
                for j in range(8):
                    yj = yb[j]
                    if yj:
                        acc[row_i[j]] += row_s[j] * xi * yj
            if sum(v * v for v in acc) != 16:
                bad_norm += 1
            if any(v & 1 for v in acc) or tuple(v >> 1 for v in acc) not in vset:
                bad_member += 1
    return bad_member, bad_norm
