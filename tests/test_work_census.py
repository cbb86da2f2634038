"""The work one ``run_all(0)`` does, counted in a fresh interpreter so that
no cached value hides a computation: each catalog row's unit loop goes
through the packed kernel, the bridge identities apply the rotation once
or twice per distinct element, and the matrix laws compute one
associative product per Okubo product or pair of products and one norm
per pool matrix."""

import json
import os
import subprocess
import sys

#: wraps the counted functions wherever the package binds them, and the
#: rotation's ``apply`` on its class, then runs one ``run_all(0)``
CENSUS = r"""
import json
import sys
from collections import Counter
from okubo_e8 import _kernels, algebras, checks, okubomatrix

counts = Counter()
kernel_sizes = []
inside = []
tau_args = []

def caller():
    return sys._getframe(2).f_code.co_filename.rsplit("/", 1)[-1]

def counter(name, fn):
    def counted(*args):
        counts[name] += 1
        if name == "oct_mul":
            counts["oct_mul@" + caller()] += 1
        if name == "unit_closure_failures":
            kernel_sizes.append(len(args[0]))
        return fn(*args)
    return counted

def bridges(fn):
    def run(*args, **kwargs):
        inside.append(True)
        try:
            return fn(*args, **kwargs)
        finally:
            inside.pop()
    return run

wrapped = {}
for mod, name in ((algebras, "oct_mul"), (algebras, "okubo_mul"),
                  (okubomatrix, "matrix_mul"), (okubomatrix, "matrix_mul_pair"),
                  (okubomatrix, "_okubo_parts"), (okubomatrix, "norm"),
                  (_kernels, "unit_closure_failures")):
    fn = getattr(mod, name)
    wrapped[fn] = counter(name, fn)
wrapped[algebras.bridge_identities] = bridges(algebras.bridge_identities)
for mod_name, mod in list(sys.modules.items()):
    if mod_name.startswith("okubo_e8"):
        for attr, value in list(vars(mod).items()):
            if callable(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
            elif type(value) is dict:
                for key, item in list(value.items()):
                    if callable(item) and item in wrapped:
                        value[key] = wrapped[item]

apply = algebras.AutMatrix.apply

def counted_apply(self, x):
    if inside:
        tau_args.append(x)
    return apply(self, x)

algebras.AutMatrix.apply = counted_apply
checks.run_all(0)
counts["tau_in_bridges"] = len(tau_args)
counts["tau_distinct_elements"] = len(set(tau_args))
print(json.dumps({"counts": counts, "kernel_sizes": kernel_sizes}))
"""


def census():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", CENSUS], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": os.path.join(root, "src")},
    )
    return json.loads(proc.stdout)


def test_one_run_does_each_piece_of_work_once():
    """Pinned counts of one run_all(0).  At the parent of this census, the
    catalog made 948 octonion products pair by pair (1,474 in all), the
    bridges applied tau 508 times to 39 distinct elements, the matrix
    laws made 2,031 associative products and 601 norms, and the kernel saw
    only the 57,600 pairs of the 240 units.  Before the star chain and z * y
    were shared, the run made 880 Okubo products and 1,349 single matrix
    products, and the Jordan products went through a second, general
    associative product."""
    got = census()
    counts = got["counts"]
    # every catalog row's loop through the kernel: the 240 units once, and
    # the 4, 6, 8, 24 and 16 units of the other rows
    assert sorted(got["kernel_sizes"]) == [4, 6, 8, 16, 24, 240]
    assert sum(k * k for k in got["kernel_sizes"]) == 57600 + 948
    assert counts["unit_closure_failures"] == 6
    # no octonion product from the catalog; the bridges' 112 pairs and the
    # rotation check's 128 products in algebras, the tables and the
    # letters in orders
    assert "oct_mul@catalog.py" not in counts
    assert counts["oct_mul@algebras.py"] == 112 + 128
    assert counts["oct_mul"] == 414
    # tau and tau^2 once per distinct element (8 basis vectors and 12
    # seeded samples), and tau once on each e * x of the 20 unary inputs
    assert counts["tau_distinct_elements"] == 39
    assert counts["tau_in_bridges"] == 2 * 20 + 20
    assert counts["tau_in_bridges"] <= 2 * counts["tau_distinct_elements"]
    # the Okubo star chain ((x * e) * e) * e once per distinct element of
    # the 20 unary inputs, read by both star identities
    assert counts["okubo_mul"] == 840
    # one associative product per Okubo product or pair of products, each
    # sample's z * y read from the next sample's pair, and one per Jordan
    # product
    assert counts["matrix_mul"] == 1249
    assert counts["matrix_mul_pair"] == 353
    assert counts["_okubo_parts"] == 1604 == 1249 + 353 + 2
    # one norm per pool matrix (100), per sampled product of each law
    # (100 + 100), and the idempotent's
    assert counts["norm"] == 301
