"""Arithmetic stabilizer search over signed block permutations, and the
integrality test for the rotation automorphism on the scaled basis.

Candidates act on the scaled-basis coordinates u0..u7 as signed
permutations preserving the blocks {0,1,2,3} and {4,5,6,7}; there are
(4! * 2^4)^2 = 147456 of them.  Filter one keeps the isometries of the
conductor Gram, filter two keeps those that also commute with the Okubo
product on all 64 basis pairs.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernels import metric_stabilizers
from .algebras import DIM, basis_element, okubo_mul, tau_apply
from .exact import QuadExt, RingTag
from .orders import (
    coords_in_order_basis,
    scaled_basis,
    scaled_constants,
    structure_constants,
)

CANDIDATE_COUNT = (24 * 16) ** 2


@dataclass(frozen=True)
class SignedBlockPerm:
    """u_i -> signs[i] * u_{perm[i]} with perm preserving the two blocks."""

    perm: tuple[int, ...]
    signs: tuple[int, ...]

    def compose(self, other: "SignedBlockPerm") -> "SignedBlockPerm":
        """self after other: (self o other)(u_i)."""
        perm = tuple(self.perm[other.perm[i]] for i in range(DIM))
        signs = tuple(other.signs[i] * self.signs[other.perm[i]] for i in range(DIM))
        return SignedBlockPerm(perm, signs)

    def inverse(self) -> "SignedBlockPerm":
        inv = [0] * DIM
        sgn = [1] * DIM
        for i in range(DIM):
            inv[self.perm[i]] = i
            sgn[self.perm[i]] = self.signs[i]
        return SignedBlockPerm(tuple(inv), tuple(sgn))


def conductor_gram() -> tuple[tuple[int, ...], ...]:
    """The Gram <u_i, u_j> of the scaled basis."""
    return scaled_basis().gram()


def preserves_product(cand: SignedBlockPerm, m_constants) -> bool:
    """g(u_i * u_j) = g(u_i) * g(u_j) via the scaled structure constants:
    eps_i eps_j m[p(i)][p(j)][p(k)] = eps_k m[i][j][k] for all i, j, k."""
    perm, eps = cand.perm, cand.signs
    for i in range(DIM):
        for j in range(DIM):
            row = m_constants[i][j]
            prow = m_constants[perm[i]][perm[j]]
            f = eps[i] * eps[j]
            for k in range(DIM):
                lhs = prow[perm[k]] * f
                rhs = row[k] * eps[k]
                if lhs != rhs:
                    return False
    return True


@dataclass(frozen=True)
class StabilizerReport:
    candidates: int
    metric: tuple[SignedBlockPerm, ...]
    product: tuple[SignedBlockPerm, ...]
    product_subset_of_metric: bool
    metric_closed_under_group_ops: bool


def search() -> StabilizerReport:
    """Exhaustive deterministic search of the 147456 candidates."""
    gram = conductor_gram()
    survivors = metric_stabilizers(gram)
    metric = tuple(
        SignedBlockPerm(tuple(perm), tuple(signs)) for perm, signs in sorted(survivors)
    )

    constants = structure_constants("okubo")
    m_constants = scaled_constants(constants)
    product = tuple(c for c in metric if preserves_product(c, m_constants))

    metric_set = set(metric)
    closed = all(
        a.compose(b) in metric_set for a in metric for b in metric
    ) and all(a.inverse() in metric_set for a in metric)

    return StabilizerReport(
        candidates=CANDIDATE_COUNT,
        metric=metric,
        product=product,
        product_subset_of_metric=all(c in metric_set for c in product),
        metric_closed_under_group_ops=closed,
    )


# -- integrality of the rotation automorphism on the scaled basis -------------


@dataclass(frozen=True)
class TauMembershipReport:
    tau_u2_coords: tuple[QuadExt, ...]
    tau_u2_integral: bool
    tau2_u2_integral: bool
    tau_u2_u0_coefficient: QuadExt
    tau2_u2_u0_coefficient: QuadExt
    automorphism_pairs_ok: int
    automorphism_pairs_total: int


def u_coordinates(x) -> tuple[QuadExt, ...]:
    """Exact coordinates of an algebra element over the scaled basis."""
    return coords_in_order_basis(x, scaled_basis())


def tau_membership() -> TauMembershipReport:
    """tau is an Okubo automorphism over K but u2 leaves the scaled order."""
    u = scaled_basis()
    ring = RingTag.ZSQRT3

    tau_u2 = u_coordinates(tau_apply(u[2], 1))
    tau2_u2 = u_coordinates(tau_apply(u[2], 2))

    ok = 0
    total = DIM * DIM
    for i in range(DIM):
        for j in range(DIM):
            x, y = basis_element(i), basis_element(j)
            if tau_apply(okubo_mul(x, y)) == okubo_mul(tau_apply(x), tau_apply(y)):
                ok += 1

    return TauMembershipReport(
        tau_u2_coords=tau_u2,
        tau_u2_integral=all(ring.contains(c) for c in tau_u2),
        tau2_u2_integral=all(ring.contains(c) for c in tau2_u2),
        tau_u2_u0_coefficient=tau_u2[0],
        tau2_u2_u0_coefficient=tau2_u2[0],
        automorphism_pairs_ok=ok,
        automorphism_pairs_total=total,
    )
