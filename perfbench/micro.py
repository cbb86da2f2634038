"""Per-call microbenchmarks of the scalar and product layers, and the three
integer kernels timed on the inputs ``benchmarks/bench_kernels.py`` uses.

Operands are seeded and have the size ``algebras.random_element`` and
``okubomatrix.random_matrix(span=2)`` produce.  Each result is checked
after its timing: the scalar products against a direct Fraction
computation, the algebra and matrix products by the composition law
``n(xy) = n(x) n(y)``, and the kernels against known counts.
"""

from __future__ import annotations

import operator
import random
import statistics
import time

from okubo_e8 import _kernels, algebras, okubomatrix, orders, stabilizer
from okubo_e8.algebras import OCT_TABLE

REPEATS = 5
#: results per product whose composition law is checked
CHECKED = 4


def _per_call_us(fn, operands):
    """Median over REPEATS of the time per call, in microseconds, and the
    results of the last repeat."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        results = [fn(*ops) for ops in operands]
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / len(operands) * 1e6, results


def _quad_pair(q):
    return q.rat, q.irr


def _check_quad_mul(pairs, results):
    for (x, y), r in zip(pairs, results):
        a, b = _quad_pair(x)
        c, d = _quad_pair(y)
        if _quad_pair(r) != (a * c + 3 * b * d, a * d + b * c):
            return False
    return True


def _check_quad_add(pairs, results):
    return all(
        _quad_pair(r) == (x.rat + y.rat, x.irr + y.irr)
        for (x, y), r in zip(pairs, results)
    )


def _check_complex_mul(pairs, results):
    def mul(u, v):  # (a + b s3)(c + d s3) over Fractions
        return (u[0] * v[0] + 3 * u[1] * v[1], u[0] * v[1] + u[1] * v[0])

    def sub(u, v):
        return (u[0] - v[0], u[1] - v[1])

    def add(u, v):
        return (u[0] + v[0], u[1] + v[1])

    for (x, y), r in zip(pairs, results):
        a, b, c, d = (_quad_pair(q) for q in (x.re, x.im, y.re, y.im))
        if (_quad_pair(r.re), _quad_pair(r.im)) != (
            sub(mul(a, c), mul(b, d)), add(mul(a, d), mul(b, c))
        ):
            return False
    return True


def _composes(norm, pairs, results):
    return all(
        norm(r) == norm(x) * norm(y)
        for (x, y), r in list(zip(pairs, results))[:CHECKED]
    )


def scalar_and_product_layers(seed: int):
    """(metrics, checks): µs per call of each layer, and pass/fail of the
    check on its results."""
    rng = random.Random(f"micro:{seed}")
    elems = [algebras.random_element(rng) for _ in range(40)]
    mats = [okubomatrix.random_matrix(rng, span=2) for _ in range(16)]
    quads = [q for e in elems for q in e.coords]
    complexes = [v for m in mats for row in m.rows for v in row]
    quad_pairs = list(zip(quads, reversed(quads)))
    complex_pairs = list(zip(complexes, reversed(complexes)))
    elem_pairs = list(zip(elems, reversed(elems)))
    mat_pairs = list(zip(mats, reversed(mats)))
    elem_norm = algebras.AlgebraElem.norm

    metrics, checks = {}, {}

    us, res = _per_call_us(operator.mul, quad_pairs)
    metrics["exact.quadext_mul_us"], checks["exact.quadext_mul"] = us, _check_quad_mul(quad_pairs, res)
    us, res = _per_call_us(operator.add, quad_pairs)
    metrics["exact.quadext_add_us"], checks["exact.quadext_add"] = us, _check_quad_add(quad_pairs, res)
    us, res = _per_call_us(operator.mul, complex_pairs)
    metrics["exact.complexquad_mul_us"] = us
    checks["exact.complexquad_mul"] = _check_complex_mul(complex_pairs, res)

    for name in ("oct_mul", "para_mul", "okubo_mul"):
        us, res = _per_call_us(getattr(algebras, name), elem_pairs)
        metrics[f"algebras.{name}_us"] = us
        checks[f"algebras.{name}"] = _composes(elem_norm, elem_pairs, res)
    us, res = _per_call_us(algebras.tau_apply, [(x,) for x in elems])
    metrics["algebras.tau_apply_us"] = us
    checks["algebras.tau_apply"] = all(
        algebras.tau_apply(algebras.tau_apply(r)) == x and elem_norm(r) == elem_norm(x)
        for x, r in list(zip(elems, res))[:CHECKED]
    )

    for name, pairs in (("matrix_mul", mat_pairs), ("kaplansky", mat_pairs[:8])):
        us, res = _per_call_us(getattr(okubomatrix, name), pairs)
        metrics[f"okubomatrix.{name}_us"] = us
        checks[f"okubomatrix.{name}"] = _composes(okubomatrix.norm, pairs, res)
    return metrics, checks


def _median_s(fn, *args, repeats=3):
    times, result = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _preserves(gram, perm, signs):
    n = len(gram)
    return all(
        signs[i] * signs[j] * gram[perm[i]][perm[j]] == gram[i][j]
        for i in range(n) for j in range(n)
    )


def kernel_rows():
    """(metrics, checks) for the three kernels, through the public
    ``_kernels`` functions."""
    metrics, checks = {}, {}
    gram = [list(r) for r in orders.cd_gram()]
    # E8 has 240 roots, and 240 * (1 + 9 + 28 + 73) vectors of norm <= 8
    for bound, expected in ((2, 240), (8, 26640)):
        plan = _kernels.prepare_enumeration(gram, bound)
        t, found = _median_s(_kernels.enumerate_short_vectors, plan)
        metrics[f"kernels.enum_bound{bound}_row_s"] = t
        checks[f"kernels.enum_bound{bound}"] = len(found) == expected

    cgram = [list(r) for r in stabilizer.conductor_gram()]
    t, survivors = _median_s(_kernels.metric_stabilizers, cgram)
    metrics["kernels.metric_filter_row_s"] = t
    identity = (tuple(range(8)), (1,) * 8)
    checks["kernels.metric_filter"] = identity in [
        (tuple(p), tuple(s)) for p, s in survivors
    ] and all(_preserves(cgram, perm, signs) for perm, signs in survivors)

    units, _ = orders.units240()
    vecs2 = sorted(tuple(int(2 * c.rat) for c in u.coords) for u in units)
    t, failures = _median_s(
        _kernels.unit_closure_failures, vecs2, OCT_TABLE.idx, OCT_TABLE.sgn, repeats=1
    )
    metrics["kernels.unit_closure_row_s"] = t
    # the 240 units of the Coxeter-Dickson order form a closed loop
    checks["kernels.unit_closure"] = tuple(failures) == (0, 0)
    return metrics, checks

