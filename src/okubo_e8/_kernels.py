"""Integer work-horse kernels.

The four hot loops of the package:

* branch-and-bound enumeration of short lattice vectors, with one walk
  and two modes: the vectors themselves (:func:`enumerate_short_vectors`)
  or only the number of vectors of each norm (:func:`shell_histogram`,
  which builds no vector).  The walk visits one vector of each pair +-v,
  the one whose nonzero coordinate of highest index is positive; the
  vector mode adds its negation, the counting mode counts it twice.  Its
  last level takes no call per row: each level-one node hands all its
  rows of x[0] to the mode at once;
* the signed block-permutation metric filter, which compares the
  magnitudes of the Gram entries before it looks at any sign, and then
  solves e_i e_j = G[i][j] / G'[i][j] for the sign vectors by two-colouring
  each component of the nonzero entries, in place of trying all 256;
* the pairwise closure check for unit loops, which packs the coordinates
  of a product into biased digit fields of one integer, one block of whole
  64-bit words per product, so that the products of one unit with every
  unit are eight multiply-adds of whole rows, and their membership tests
  one ``map`` of a dict lookup over the native words of the result;
* the walk over diagonal 2-adic scaling exponents, which decides each
  valuation constraint once per prefix of the exponent vector.

All kernel arithmetic is arbitrary-precision integer arithmetic; the exact
rational preprocessing (LDL data and denominator clearing) happens in
:func:`prepare_enumeration`.  The metric filter and the closure check
reject a non-integral input entry with ValueError.
"""

from __future__ import annotations

import sys
from itertools import permutations, product
from math import isqrt, lcm
from operator import index, le, lshift, mul

from ._record import record
from .exact import ldl

BACKEND = "python"


class NotPositiveDefinite(ValueError):
    """The quadratic form has a non-positive exact pivot."""


@record
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

    ``gram`` is a symmetric matrix of ints, and this LDL is what decides
    that it is positive definite: a non-positive exact pivot raises
    NotPositiveDefinite.  ``bound`` is an int (any other type raises
    TypeError): the norms of an integer Gram are integers, so a rational
    bound would enumerate what its floor does.
    """
    n = len(gram)
    for r in range(n):
        for c in range(r):
            if gram[r][c] != gram[c][r]:
                raise ValueError("Gram matrix is not symmetric")
    mu, diag = ldl(gram)
    for c, d in enumerate(diag):
        if d <= 0:
            raise NotPositiveDefinite(f"pivot {c} is {d}")

    # clear denominators: t_c = b_c x_c + sum a_cr x_r, weight W_c
    pivots = [lcm(*(f.denominator for f in mu[c])) for c in range(n)]
    offsets = [tuple(int(f * b) for f in row) for row, b in zip(mu, pivots)]
    total = lcm(*(d.denominator * b * b for d, b in zip(diag, pivots)))
    weights = [int(d * total) // (b * b) for d, b in zip(diag, pivots)]
    return EnumPlan(
        n=n,
        weights=tuple(weights),
        pivots=tuple(pivots),
        offsets=tuple(offsets),
        scale=total,
        bound_scaled=index(bound) * total,
    )


def _int_rows(rows) -> list[tuple[int, ...]]:
    """The rows as tuples of ints; ValueError on an entry that is not an
    integer, which ``int`` alone would truncate."""
    out = []
    for row in rows:
        row = tuple(row)
        ints = tuple(map(int, row))
        if ints != row:
            raise ValueError(f"kernel input {row} has a non-integral entry")
        out.append(ints)
    return out


def _branch_and_bound(plan: EnumPlan, x: list[int], leaf_rows) -> None:
    """The walk shared by both enumeration modes.

    Branch and bound over the integer completed squares: the last
    coordinate is fixed first, and each W_c t_c^2 is charged against what
    is left of the bound.  The walk visits one vector of each pair +-v: the
    one whose nonzero coordinate of highest index is positive.  So it
    starts once at each level c as that coordinate, with x[c] >= 1 and
    every coordinate above it zero; the zero vector is never reached.

    The last two levels take no call per row: with x[n-1], ..., x[2]
    fixed, the level-one loop computes, for each admissible x[1], the
    admissible range of x[0] itself (t_0 is linear in x[1]), and hands all
    of them to ``leaf_rows(rows)`` in one call.  A row is
    (x1, lo, hi, off, rem): x[0] runs over lo..hi, t_0 = B_0 x[0] + off,
    and ``rem`` is what is left of the bound before W_0 t_0^2 is charged.
    A walk that starts at level 0 makes one row with x1 = 0.  ``x[0]``
    and ``x[1]`` are never written.
    """
    n, weights, pivots, offsets = plan.n, plan.weights, plan.pivots, plan.offsets
    w0, b0 = weights[0], pivots[0]
    a0, offsets0 = (offsets[0][0], offsets[0][1:]) if n > 1 else (0, ())

    def descend(c, rem, lo=None):
        off = sum(map(mul, offsets[c], x[c + 1:]))
        w = weights[c]
        m = isqrt(rem // w)
        b = pivots[c]
        hi = (m - off) // b
        if lo is None:
            lo = -((m + off) // b)  # ceil((-m - off) / b)
        if not c:
            leaf_rows([(0, lo, hi, off, rem)])
            return
        if c == 1:
            base = sum(map(mul, offsets0, x[2:]))
            rows = []
            for x1 in range(lo, hi + 1):
                t = b * x1 + off
                r = rem - w * t * t
                m = isqrt(r // w0)
                off0 = a0 * x1 + base
                rows.append((x1, -((m + off0) // b0), (m - off0) // b0, off0, r))
            leaf_rows(rows)
            return
        for xc in range(lo, hi + 1):
            t = b * xc + off
            x[c] = xc
            descend(c - 1, rem - w * t * t)
        x[c] = 0

    if plan.bound_scaled >= 0:
        for c in reversed(range(n)):
            descend(c, plan.bound_scaled, 1)


def enumerate_short_vectors(plan: EnumPlan) -> list[tuple[int, ...]]:
    """All nonzero integer vectors with scaled norm <= plan.bound_scaled,
    both signs included, sorted lexicographically."""
    n = plan.n
    x = [0] * n
    out = []
    append = out.append

    def leaf_rows(rows):
        rest = tuple(x[2:])
        for x1, lo, hi, _, _ in rows:
            tail = (x1,) + rest if n > 1 else ()
            neg = tuple(-v for v in tail)
            for v in range(lo, hi + 1):
                append((v,) + tail)
                append((-v,) + neg)

    _branch_and_bound(plan, x, leaf_rows)
    out.sort()
    return out


def shell_histogram(plan: EnumPlan) -> dict[int, int]:
    """Counting mode of the enumeration: scaled norm -> number of nonzero
    vectors of that norm, over the vectors :func:`enumerate_short_vectors`
    returns, in increasing order of the norm.

    A leaf's scaled norm is ``bound_scaled - rem`` after its last square
    is charged; by the completed-squares identity it is exactly
    ``plan.scale * x^T G x``.  Each leaf stands for itself and its
    negation, so it counts 2.  No vector is built.
    """
    w, b, top = plan.weights[0], plan.pivots[0], plan.bound_scaled
    hist = {}
    get = hist.get

    def leaf_rows(rows):
        for _, lo, hi, off, rem in rows:
            base = top - rem
            for v in range(lo, hi + 1):
                t = b * v + off
                k = base + w * t * t
                hist[k] = get(k, 0) + 2

    _branch_and_bound(plan, [0] * plan.n, leaf_rows)
    return dict(sorted(hist.items()))


def metric_stabilizers(gram) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Signed block permutations (blocks {0..3}, {4..7}) preserving ``gram``.

    Returns (perm, signs) pairs in the order of the candidate loop over
    (p1, p2, s1, s2), signs running from all +1; the candidate count is
    always 147456.  A block permutation that moves some |G[i][j]| to a
    different magnitude is preserved by no sign vector.  For one that
    keeps every magnitude, G' = G[perm][perm] has the zero pattern of G,
    and the signs must satisfy e_i e_j = G[i][j] / G'[i][j] on each
    nonzero entry.  A spanning tree of each component of the graph of
    nonzero off-diagonal entries fixes the signs of the component up to one
    flip; every nonzero entry, the diagonal included, is then checked
    against them.  ValueError on a non-integral entry.
    """
    gram = _int_rows(gram)
    mags = [[abs(v) for v in row] for row in gram]
    pairs = [(i, j) for i in range(8) for j in range(i, 8)]
    nonzero = [(i, j) for i, j in pairs if gram[i][j]]
    # a spanning forest of the graph with the edges i < j of ``nonzero``;
    # a tree edge (child, parent, i, j) sets the child's sign from the
    # parent's, in breadth-first order
    edges = [(i, j) for i, j in nonzero if i != j]
    comp = [-1] * 8
    tree = []
    roots = 0
    for r in range(8):
        if comp[r] < 0:
            comp[r] = roots
            queue = [r]
            for parent in queue:
                for i, j in edges:
                    child = j if i == parent else i if j == parent else parent
                    if comp[child] < 0:
                        comp[child] = roots
                        tree.append((child, parent, i, j))
                        queue.append(child)
            roots += 1
    flips = list(product((1, -1), repeat=roots))
    perms4 = list(permutations(range(4)))
    survivors = []
    for p1 in perms4:
        for p2 in perms4:
            perm = tuple(p1) + tuple(4 + t for t in p2)
            if any(mags[perm[i]][perm[j]] != mags[i][j] for i, j in pairs):
                continue
            eps = [1] * 8
            for child, parent, i, j in tree:
                same = gram[perm[i]][perm[j]] == gram[i][j]
                eps[child] = eps[parent] if same else -eps[parent]
            if any((gram[perm[i]][perm[j]] == gram[i][j]) != (eps[i] == eps[j])
                   for i, j in nonzero):
                continue
            found = sorted((tuple(e * f[k] for e, k in zip(eps, comp)) for f in flips),
                           reverse=True)
            survivors.extend((perm, s) for s in found)
    return survivors


def unit_closure_failures(vecs2, idx, sgn) -> tuple[int, int]:
    """(membership failures, norm failures) over all pairwise products.

    ``vecs2``: doubled integer coordinate vectors of the unit set.  A
    product of two units must again be a unit (doubled coordinates in the
    set) of norm one (sum of squares of the 4x coordinates equal to 16).
    ValueError on a non-integral coordinate.

    The product acc = x*y of doubled vectors sums sgn[i][j] x_i y_j into
    acc[idx[i][j]], so |acc_k| <= reach_k m^2, where reach_k counts the
    table entries landing on k (8 for an octonion table) and m is the
    largest |coordinate| of the data.  Each acc_k gets a digit field of one
    integer, wide enough for that bound and biased by half its range, so
    every biased digit is positive and packing is injective, and linear
    up to the bias.  A block of whole 64-bit words holds the fields of one
    vector.  Y_j holds coordinate j of every y, one block each, and the
    packed table T_j, entry i the shifted sign sgn[i][j] of the field
    idx[i][j], is built once, so the left multiplication by x has the
    columns col_j = sum_i x_i T_j[i], and the sum of col_j * Y_j holds the
    products of x with every y, one block each: eight multiply-adds per x,
    written in native byte order.  A product is a doubled member exactly
    when its block, read as native 64-bit words (one word, or a tuple of
    them), is a key of the packed doubled members, which also hold their
    norms; the 240 lookups of one x are one ``map`` over a memoryview, and
    only a non-member is unpacked to get its norm.
    """
    vecs2 = _int_rows(vecs2)
    n = len(idx)
    m = max((abs(v) for vec in vecs2 for v in vec), default=0)
    reach = [0] * n
    for row_i, row_s in zip(idx, sgn):
        for k, s in zip(row_i, row_s):
            reach[k] += abs(s)
    width = max(max(reach) * m * m, 2 * m).bit_length() + 1
    half, mask = 1 << (width - 1), (1 << width) - 1
    shifts = [width * k for k in range(n)]
    words = -(-n * width // 64)  # 64-bit words per block
    size = 8 * words
    bias = sum(half << s for s in shifts)
    order = sys.byteorder

    def keys(buf):
        """The blocks of ``buf`` as dict keys: a word, or a tuple of words."""
        view = memoryview(buf).cast("Q")
        return view if words == 1 else zip(*[iter(view)] * words)

    def packed(accs):
        return b"".join((sum(map(lshift, acc, shifts)) + bias).to_bytes(size, order)
                        for acc in accs)

    doubled = [[2 * v for v in vec] for vec in vecs2]
    members = dict(zip(keys(packed(doubled)), (sum(map(mul, a, a)) for a in doubled)))
    count = len(vecs2)
    total = size * count
    ys = [sum(vec[j] << (8 * size * b) for b, vec in enumerate(vecs2)) for j in range(n)]
    biases = int.from_bytes(bias.to_bytes(size, order) * count, order)
    table = [tuple(row_s[j] << shifts[row_i[j]] for row_i, row_s in zip(idx, sgn))
             for j in range(n)]
    get = members.get
    bad_member = 0
    bad_norm = 0
    for xa in vecs2:
        cols = [sum(map(mul, xa, tj)) for tj in table]
        buf = (sum(map(mul, cols, ys)) + biases).to_bytes(total, order)
        norms = list(map(get, keys(buf)))
        misses = norms.count(None)
        if misses:
            bad_member += misses
            for b, norm in enumerate(norms):
                if norm is None:
                    v = int.from_bytes(buf[b * size:(b + 1) * size], order)
                    norms[b] = sum((((v >> s) & mask) - half) ** 2 for s in shifts)
        bad_norm += count - norms.count(16)
    return bad_member, bad_norm


def scaling_walk(constraints, n: int, max_exp: int) -> tuple[int, list[tuple[int, ...]]]:
    """(feasible count, componentwise-minimal feasible vectors) over all
    exponent vectors a in {0..max_exp}^n with a_i + a_j - a_k >= v for
    every (i, j, k, v) in ``constraints``.

    A depth-first walk fixes a_0, a_1, ... in turn, and checks each
    constraint at depth max(i, j, k), the first where all three of its
    exponents are known, so a failing prefix cuts off its whole subtree.
    Past the last index any constraint touches, every tail is feasible:
    the subtree adds (max_exp+1)^(n-d) to the count and offers one
    candidate, the prefix padded with zeros, which every other vector of
    the subtree dominates.  Candidates come in lexicographic order, and
    any vector below a feasible one comes before it, so a candidate is
    minimal exactly when no minimum kept so far is <= it; the minima are
    returned in lexicographic order.
    """
    by_depth = [[] for _ in range(n)]
    for i, j, k, v in constraints:
        by_depth[max(i, j, k)].append((i, j, k, v))
    free = max((d + 1 for d in range(n) if by_depth[d]), default=0)
    tail = (max_exp + 1) ** (n - free)
    pad = (0,) * (n - free)
    span = range(max_exp + 1)
    a = [0] * n
    minimal = []
    count = 0

    def descend(d):
        nonlocal count
        if d == free:
            count += tail
            vec = tuple(a[:d]) + pad
            if not any(all(map(le, m, vec)) for m in minimal):
                minimal.append(vec)
            return
        checks = by_depth[d]
        for x in span:
            a[d] = x
            if all(a[i] + a[j] - a[k] >= v for i, j, k, v in checks):
                descend(d + 1)

    descend(0)
    return count, minimal
