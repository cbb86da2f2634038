"""Arithmetic stabilizer search over signed block permutations, and the
integrality test for the rotation automorphism on the scaled basis.

Candidates act on the scaled-basis coordinates u0..u7 as signed
permutations preserving the blocks {0,1,2,3} and {4,5,6,7}; there are
(4! * 2^4)^2 = 147456 of them.  A candidate is a (perm, signs) pair,
u_i -> signs[i] * u_{perm[i]}.  Filter one keeps the isometries of the
Gram of :func:`orders.conductor_lattice`, filter two keeps those that also
commute with the Okubo product on all 64 basis pairs, read from the
structure constants of the scaled :class:`orders.OrderBasis`.
"""

from __future__ import annotations


from ._kernels import metric_stabilizers
from ._record import record
from .algebras import DIM, TAU, okubo_mul, tau_apply
from .exact import QuadExt, RingTag
from .orders import conductor_lattice, coords_in_order_basis, scaled_basis, structure_constants

CANDIDATE_COUNT = (24 * 16) ** 2


def signed_permutation(cand) -> tuple[int, ...]:
    """The (perm, signs) pair as a permutation of the 16 signed basis
    vectors, +u_i at 2i and -u_i at 2i + 1: u_i goes to signs[i] u_perm[i],
    so 2i + b goes to 2 perm[i] + b, flipped when signs[i] is -1.  The map
    is a faithful homomorphism, so g o h is the permutation
    tuple(map(g.__getitem__, h))."""
    perm, signs = cand
    return tuple(2 * perm[i] + (b ^ (signs[i] < 0)) for i in range(DIM) for b in (0, 1))


def conductor_gram() -> tuple[tuple[int, ...], ...]:
    """The Gram <u_i, u_j> = D G D of :func:`orders.conductor_lattice`."""
    return conductor_lattice().gram


def preserves_product(cand, m_constants) -> bool:
    """g(u_i * u_j) = g(u_i) * g(u_j) via the scaled structure constants:
    eps_i eps_j m[p(i)][p(j)][p(k)] = eps_k m[i][j][k] for all i, j, k.
    Every eps is +-1, so each entry is compared with m[i][j][k] or its
    negation, as the sign product says."""
    perm, eps = cand
    for i in range(DIM):
        for j in range(DIM):
            row = m_constants[i][j]
            prow = m_constants[perm[i]][perm[j]]
            f = eps[i] * eps[j]
            for k in range(DIM):
                lhs, rhs = prow[perm[k]], row[k]
                if lhs != (rhs if f == eps[k] else -rhs):
                    return False
    return True


@record
class StabilizerReport:
    candidates: int
    metric: tuple  # sorted (perm, signs) pairs
    product: tuple
    product_subset_of_metric: bool
    metric_closed_under_group_ops: bool


def search() -> StabilizerReport:
    """Exhaustive deterministic search of the 147456 candidates."""
    metric = tuple(sorted(metric_stabilizers(conductor_gram())))

    m_constants = structure_constants("okubo", scaled_basis()).c
    product = tuple(c for c in metric if preserves_product(c, m_constants))

    pairs = set(metric)
    # group closure on the permutations of the 16 signed basis vectors;
    # sorting positions by image inverts a permutation
    perms = [signed_permutation(c) for c in metric]
    perm_set = set(perms)
    closed = all(
        tuple(map(a.__getitem__, b)) in perm_set for a in perms for b in perms
    ) and all(tuple(sorted(range(2 * DIM), key=a.__getitem__)) in perm_set for a in perms)

    return StabilizerReport(
        candidates=CANDIDATE_COUNT,
        metric=metric,
        product=product,
        product_subset_of_metric=all(c in pairs for c in product),
        metric_closed_under_group_ops=closed,
    )


# -- integrality of the rotation automorphism on the scaled basis -------------


@record
class TauMembershipReport:
    tau_u2_coords: tuple[QuadExt, ...]
    tau_u2_integral: bool
    tau2_u2_integral: bool
    tau_u2_u0_coefficient: QuadExt
    tau2_u2_u0_coefficient: QuadExt
    automorphism_pairs_ok: int
    automorphism_pairs_total: int


def tau_membership() -> TauMembershipReport:
    """tau is an Okubo automorphism over K but u2 leaves the scaled order."""
    u = scaled_basis()
    ring = RingTag.ZSQRT3

    tau_u2 = coords_in_order_basis(tau_apply(u[2], 1), u)
    tau2_u2 = coords_in_order_basis(tau_apply(u[2], 2), u)

    return TauMembershipReport(
        tau_u2_coords=tau_u2,
        tau_u2_integral=all(ring.contains(c) for c in tau_u2),
        tau2_u2_integral=all(ring.contains(c) for c in tau2_u2),
        tau_u2_u0_coefficient=tau_u2[0],
        tau2_u2_u0_coefficient=tau2_u2[0],
        automorphism_pairs_ok=TAU.preserved_pairs(okubo_mul),
        automorphism_pairs_total=DIM * DIM,
    )
