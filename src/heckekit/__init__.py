"""Exact Kazhdan-Lusztig combinatorics for finite Coxeter systems.

Hecke algebras over Z[v, v^-1], KL and parabolic KL bases, inverse
parabolic KL polynomials, graded shapes of minimal braid-lift complexes,
Hom-formula graded ranks and perversity tests.
"""

from .laurent import LaurentPoly, NotDivisible, ONE, V, V_INV, ZERO, div_exact, vpow
from .coxeter import (
    CoxeterMatrix,
    CoxeterSystem,
    DEFAULT_CAP,
    GroupTooLarge,
    UnsupportedBond,
    build,
    build_named,
)
from .hecke import HeckeAlgebra, HeckeElt
from .parabolic import NotInIdeal, ParabolicElt, ParabolicModule
from .rouquier import (
    ComplexShape,
    e_shape,
    euler_hom,
    f_shape,
    shape_character,
)
from .soergel import (
    Character,
    bott_samelson_char,
    delta_char,
    graded_hom_rank,
    is_perverse,
    kl_decompose,
    support_graded_ranks,
)
from .verify import SUITES, SuiteResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly", "NotDivisible", "ONE", "V", "V_INV", "ZERO", "div_exact", "vpow",
    "CoxeterMatrix", "CoxeterSystem", "DEFAULT_CAP", "GroupTooLarge",
    "UnsupportedBond", "build", "build_named",
    "HeckeAlgebra", "HeckeElt",
    "NotInIdeal", "ParabolicElt", "ParabolicModule",
    "ComplexShape", "e_shape", "euler_hom", "f_shape", "shape_character",
    "Character", "bott_samelson_char", "delta_char", "graded_hom_rank",
    "is_perverse", "kl_decompose", "support_graded_ranks",
    "SUITES", "SuiteResult", "run_suites",
    "__version__",
]
