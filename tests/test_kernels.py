"""The integer kernels: enumeration plans, short vectors, big integers."""

from fractions import Fraction

import pytest

from okubo_e8._kernels import (
    BACKEND,
    NotPositiveDefinite,
    enumerate_short_vectors,
    prepare_enumeration,
)


class TestPrepare:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            prepare_enumeration([[1, 2], [0, 1]], 4)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            prepare_enumeration([[0, 1], [1, 0]], 4)

    def test_rank_one(self):
        plan = prepare_enumeration([[3]], 12)
        vecs = enumerate_short_vectors(plan)
        assert vecs == [(-2,), (-1,), (1,), (2,)]

    def test_negative_bound(self):
        plan = prepare_enumeration([[2]], -1)
        assert enumerate_short_vectors(plan) == []

    def test_rational_bound(self):
        plan = prepare_enumeration([[2]], Fraction(7, 2))  # x^2 <= 7/4
        assert enumerate_short_vectors(plan) == [(-1,), (1,)]


class TestFallback:
    def test_big_bound_uses_python_path(self):
        # a bound far beyond 64 bits: the kernels use arbitrary-precision ints
        plan = prepare_enumeration([[1 << 40]], (1 << 80))
        vecs = enumerate_short_vectors(plan)
        assert (-(1 << 20), ) in vecs and ((1 << 20), ) in vecs

    def test_backend_name(self):
        assert BACKEND == "python"
