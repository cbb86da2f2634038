"""Registry of externally claimed values certified by this package.

Every entry is an expected value for one check, together with how it is
labelled in reports: ``claimed`` values come from the source material under
certification, ``trivial`` values are immediate from definitions, and
``derived`` values were computed here by an independent oracle (enumeration,
exhaustion, exact linear algebra) before being frozen.

Values marked convention-sensitive below can legitimately differ from the
claimed ones under the pinned basis convention; the reports record the diff
instead of asserting equality.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import QuadExt

CONVENTION = "cd1946"

# -- basis-level formulas (convention-sensitive in part) --------------------

#: tr(sum a_i b_i) = 2 a0 - a5 - a6 - a7
TRACE_PATTERN = (2, 0, 0, 0, 0, -1, -1, -1)

#: claimed cross terms of the norm polynomial n(sum a_i b_i):
#: coefficient of a_i a_j for i < j (missing pairs are zero)
NORM_CROSS_TERMS = {
    (0, 5): -1,
    (0, 6): -1,
    (0, 7): -1,
    (1, 4): 1,
    (1, 6): 1,
    (2, 4): 1,
    (2, 5): 1,
    (3, 4): 1,
}

# -- unit loop and shells -----------------------------------------------------

UNIT_COUNT = 240
#: frozen 240 * sigma_3(n) for n = 1..6
SHELL_VALUES = (240, 2160, 6720, 17520, 30240, 60480)

# -- scaled order -------------------------------------------------------------

#: exponent vector of the claimed unique componentwise minimal scaling;
#: the scaled basis u_i = 2^{a_i} b_i, so D = diag(2,2,2,2,4,4,4,4)
SCALING_EXPONENTS = (1, 1, 1, 1, 2, 2, 2, 2)
#: structure-constant denominators claimed for the unscaled basis
OKUBO_DENOMINATORS = (1, 2, 4)

#: claimed expansion of b0 * b2 (convention-sensitive; diff-recorded)
B0_STAR_B2 = (
    QuadExt(0, Fraction(-3, 2)),
    QuadExt(0, Fraction(1, 2)),
    QuadExt(Fraction(1, 2), Fraction(-1, 2)),
    QuadExt(0),
    QuadExt(0),
    QuadExt(0, -1),
    QuadExt(0, -1),
    QuadExt(0, -1),
)

#: claimed u0-coefficients of tau(u2) and tau^2(u2) (convention-sensitive)
TAU_U2_U0 = QuadExt(0, Fraction(-3, 2))
TAU2_U2_U0 = QuadExt(0, Fraction(3, 2))

# -- conductor lattice --------------------------------------------------------

CONDUCTOR_INDEX = 4096  # 2^12
CONDUCTOR_DET = 16777216  # 2^24
CONDUCTOR_SMITH = (2, 2, 2, 2, 4, 4, 4, 4)
CONDUCTOR_MIN = 8
QUOTIENT_INVARIANTS = (2, 2, 2, 2, 4, 4, 4, 4)  # E8 / conductor
DISCRIMINANT_ORDER = 16777216  # |A| = det
#: invariant factors of the discriminant group confirmed by the SNF oracle
#: (an earlier derivation guessed (4,4,4,4,16,16,16,16); refuted, see ledger)
DISCRIMINANT_INVARIANTS = (8, 8, 8, 8, 8, 8, 8, 8)
REFUTED_DISCRIMINANT_INVARIANTS = (4, 4, 4, 4, 16, 16, 16, 16)

TRACE16_MIN = 16

# -- stabilizer search --------------------------------------------------------

STABILIZER_CANDIDATES = 147456  # (4! * 2^4)^2
METRIC_PRESERVING_COUNT = 4

# -- classical catalog (Gram convention: <x,x> = 2 n(x)) ----------------------

#: name -> (unit count, lattice label, det, min, kissing)
CLASSICAL_TABLE = {
    "gaussian": (4, "C2", 4, 2, 4),
    "eisenstein": (6, "A2", 3, 2, 6),
    "hamilton": (8, "2C2", 16, 2, 8),
    "hurwitz": (24, "D4", 4, 2, 24),
    "cayley-graves": (16, "C8", 256, 2, 16),
    "coxeter-dickson": (240, "E8", 1, 2, 240),
}

#: rows named in the catalog but with no explicit construction given
UNSPECIFIED_CLASSICAL = ("hybrid", "compounded-eisenstein", "coupled-hurwitz")
