"""The signed block-permutation stabilizer search and the integrality
test for the rotation automorphism."""

from fractions import Fraction

from okubo_e8 import claims
from okubo_e8.exact import QuadExt
from okubo_e8.orders import cd_gram, scaled_basis
from okubo_e8.stabilizer import (
    CANDIDATE_COUNT,
    conductor_gram,
    search,
    signed_permutation,
    tau_membership,
)

IDENTITY = (tuple(range(8)), (1,) * 8)


def compose(g, h):
    """Reference: g after h, (g o h)(u_i), for (perm, signs) pairs."""
    (gp, gs), (hp, hs) = g, h
    return (tuple(gp[hp[i]] for i in range(8)),
            tuple(hs[i] * gs[hp[i]] for i in range(8)))


def inverse(g):
    """Reference: the inverse of a (perm, signs) pair."""
    perm, signs = g
    inv = [0] * 8
    sgn = [1] * 8
    for i in range(8):
        inv[perm[i]] = i
        sgn[perm[i]] = signs[i]
    return tuple(inv), tuple(sgn)


def perm_matrix(g):
    """The matrix of the (perm, signs) pair g: column i holds signs[i] in
    row perm[i]."""
    perm, signs = g
    m = [[0] * 8 for _ in range(8)]
    for i in range(8):
        m[perm[i]][i] = signs[i]
    return m


class TestSignedBlockPerm:
    def test_compose_inverse(self):
        g = ((1, 0, 2, 3, 5, 4, 6, 7), (1, -1, 1, 1, -1, 1, 1, 1))
        assert compose(g, inverse(g)) == IDENTITY
        assert compose(inverse(g), g) == IDENTITY

    def test_matrix_action(self):
        g = ((1, 0, 2, 3, 4, 5, 6, 7), (1, 1, 1, 1, 1, 1, 1, 1))
        h = ((0, 1, 3, 2, 5, 4, 6, 7), (1, -1, 1, 1, -1, 1, 1, 1))
        m, n = perm_matrix(g), perm_matrix(h)
        assert m[1][0] == 1 and m[0][1] == 1 and m[2][2] == 1
        # composition is the matrix product
        assert perm_matrix(compose(g, h)) == [
            [sum(m[r][k] * n[k][c] for k in range(8)) for c in range(8)] for r in range(8)]


class TestSignedPermutation:
    """search decides group closure on the permutations of the 16 signed
    basis vectors; the map from (perm, signs) pairs is a faithful
    homomorphism, checked against the pair arithmetic above."""

    def test_homomorphism_on_the_metric_survivors(self):
        metric = search().metric
        for g in metric[::5]:
            for h in metric[::7]:
                assert signed_permutation(compose(g, h)) == tuple(
                    map(signed_permutation(g).__getitem__, signed_permutation(h)))
            perm = signed_permutation(g)
            assert signed_permutation(inverse(g)) == tuple(
                sorted(range(16), key=perm.__getitem__))

    def test_faithful(self):
        metric = search().metric
        assert len({signed_permutation(g) for g in metric}) == len(metric) == 48
        assert signed_permutation(IDENTITY) == tuple(range(16))
        # -u_0 at 1: the sign flip of u_0 swaps 0 and 1
        flip = (tuple(range(8)), (-1,) + (1,) * 7)
        assert signed_permutation(flip)[:4] == (1, 0, 2, 3)

    def test_closure_fails_without_a_survivor(self, monkeypatch):
        # drop one survivor that is not its own inverse: the rest is no group
        from okubo_e8 import stabilizer

        full = stabilizer.metric_stabilizers(conductor_gram())
        gone = next(g for g in full if inverse(g) != g)
        monkeypatch.setattr(stabilizer, "metric_stabilizers",
                            lambda gram: [g for g in full if g != gone])
        assert not search().metric_closed_under_group_ops


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
        assert (tuple(range(8)), (-1,) * 8) in metric

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
        from okubo_e8.orders import coords_in_order_basis, scaled_basis
        from okubo_e8.algebras import AlgebraElem

        u = scaled_basis()
        x = u[3] + u[0].scale(QuadExt(2, 1))
        coords = coords_in_order_basis(x, scaled_basis())
        acc = AlgebraElem.zero()
        for c, b in zip(coords, u):
            if c:
                acc = acc + b.scale(c)
        assert acc == x


def test_conductor_gram_is_the_scaled_inner_products():
    """A reference route to the conductor Gram: the integers of the
    K-inner products <u_i, u_j> of the scaled basis, which are rational
    integers, and D G D for D = diag(2^{a_i}) and the order Gram G."""
    ref = []
    for row in scaled_basis().inner_products:
        assert all(v.triple[1:] == (0, 1) for v in row)
        ref.append(tuple(v.triple[0] for v in row))
    a = claims.SCALING_EXPONENTS
    dgd = tuple(tuple(2 ** (a[i] + a[j]) * v for j, v in enumerate(row))
                for i, row in enumerate(cd_gram()))
    assert conductor_gram() == tuple(ref) == dgd
