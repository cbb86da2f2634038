"""The signed block-permutation stabilizer search and the integrality
test for the rotation automorphism."""

from fractions import Fraction

from okubo_e8 import claims
from okubo_e8.exact import QuadExt
from okubo_e8.stabilizer import (
    CANDIDATE_COUNT,
    SignedBlockPerm,
    conductor_gram,
    search,
    tau_membership,
    u_coordinates,
)

IDENTITY = SignedBlockPerm(tuple(range(8)), (1,) * 8)


def perm_matrix(g):
    """The matrix of g: column i holds signs[i] in row perm[i]."""
    m = [[0] * 8 for _ in range(8)]
    for i in range(8):
        m[g.perm[i]][i] = g.signs[i]
    return m


class TestSignedBlockPerm:
    def test_compose_inverse(self):
        g = SignedBlockPerm((1, 0, 2, 3, 5, 4, 6, 7), (1, -1, 1, 1, -1, 1, 1, 1))
        assert g.compose(g.inverse()) == IDENTITY
        assert g.inverse().compose(g) == IDENTITY

    def test_matrix_action(self):
        g = SignedBlockPerm((1, 0, 2, 3, 4, 5, 6, 7), (1, 1, 1, 1, 1, 1, 1, 1))
        h = SignedBlockPerm((0, 1, 3, 2, 5, 4, 6, 7), (1, -1, 1, 1, -1, 1, 1, 1))
        m, n = perm_matrix(g), perm_matrix(h)
        assert m[1][0] == 1 and m[0][1] == 1 and m[2][2] == 1
        # composition is the matrix product
        assert perm_matrix(g.compose(h)) == [
            [sum(m[r][k] * n[k][c] for k in range(8)) for c in range(8)] for r in range(8)]


class TestSearch:
    def test_counts(self):
        rep = search()
        assert rep.candidates == CANDIDATE_COUNT == claims.STABILIZER_CANDIDATES
        # convention-sensitive: the pinned basis admits 48 isometries in
        # this class (the claimed count of 4 is diff-recorded by the CLI)
        assert len(rep.metric) == 48
        assert rep.product == (IDENTITY,)

    def test_metric_contains_plus_minus_identity(self):
        rep = search()
        metric = set(rep.metric)
        assert IDENTITY in metric
        assert SignedBlockPerm(tuple(range(8)), (-1,) * 8) in metric

    def test_group_and_subset_properties(self):
        rep = search()
        assert rep.product_subset_of_metric
        assert rep.metric_closed_under_group_ops

    def test_metric_elements_preserve_gram(self):
        # oracle: explicit matrix congruence for a few survivors
        rep = search()
        gram = conductor_gram()
        for cand in rep.metric[:6]:
            m = perm_matrix(cand)
            left = [
                [
                    sum(m[r][i] * gram[r][s] * m[s][j] for r in range(8) for s in range(8))
                    for j in range(8)
                ]
                for i in range(8)
            ]
            assert left == [list(r) for r in gram]

    def test_deterministic(self):
        a, b = search(), search()
        assert a == b


class TestTauMembership:
    def test_nonintegral(self):
        rep = tau_membership()
        assert not rep.tau_u2_integral
        assert not rep.tau2_u2_integral

    def test_u0_coefficients_frozen(self):
        rep = tau_membership()
        assert rep.tau_u2_u0_coefficient == QuadExt(0, Fraction(1, 2))
        assert rep.tau2_u2_u0_coefficient == QuadExt(0, Fraction(-1, 2))
        # the claimed values differ under the pinned convention and are
        # diff-recorded by the reporting layer
        assert rep.tau_u2_u0_coefficient != claims.TAU_U2_U0

    def test_okubo_automorphism_over_k(self):
        rep = tau_membership()
        assert rep.automorphism_pairs_ok == rep.automorphism_pairs_total == 64

    def test_u_coordinates_reconstruct(self):
        from okubo_e8.orders import scaled_basis
        from okubo_e8.algebras import AlgebraElem

        u = scaled_basis()
        x = u[3] + u[0].scale(QuadExt(2, 1))
        coords = u_coordinates(x)
        acc = AlgebraElem.zero()
        for c, b in zip(coords, u):
            if c:
                acc = acc + b.scale(c)
        assert acc == x
