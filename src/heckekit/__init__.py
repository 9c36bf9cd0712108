"""Exact Kazhdan-Lusztig combinatorics for finite Coxeter systems.

Hecke algebras over Z[v, v^-1], KL and parabolic KL bases, inverse
parabolic KL polynomials, graded shapes of minimal braid-lift complexes,
Hom-formula graded ranks and perversity tests.

`import heckekit` loads the layers every caller needs: `laurent`,
`coxeter` and `hecke`.  The layers above them (`parabolic`, `rouquier`,
`soergel`, `verify`) and the names they define are loaded on first
access, so a `kl-table` call never compiles them.  Each access looks the
name up in its module again: nothing is copied into this namespace, so a
name wrapped in its module (as `perfbench/tracer.py` does) is seen
wrapped here, and unwrapped once restored.
"""

import importlib

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

# each name loaded on first access -> its submodule; a submodule maps to itself
_LAZY = {
    **dict.fromkeys(("parabolic", "NotInIdeal", "ParabolicElt", "ParabolicModule"),
                    "parabolic"),
    **dict.fromkeys(("rouquier", "ComplexShape", "e_shape", "euler_hom", "f_shape",
                     "shape_character"), "rouquier"),
    **dict.fromkeys(("soergel", "Character", "bott_samelson_char", "delta_char",
                     "graded_hom_rank", "is_perverse", "kl_decompose",
                     "support_graded_ranks"), "soergel"),
    **dict.fromkeys(("verify", "SUITES", "SuiteResult", "run_suites"), "verify"),
}


def __getattr__(name):
    try:
        owner = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{owner}")
    return module if name == owner else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
