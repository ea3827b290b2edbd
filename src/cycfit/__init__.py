"""cycfit: exact-arithmetic comparison of sampled cyclotomic ideals with
higher Fitting ideals of class groups over real abelian fields."""

__version__ = "0.1.0"

from .arith import FieldCtx, dlog_p_part, make_field, root_of_unity
from .classgroup import FormClassGroup, ideal_class_of_prime, narrow_class_group
from .combined import build_combined, check_combined_identities
from .fields import AbelianFieldCtx, KolyvaginPrime, build_field, kolyvagin_primes
from .fitting import Presentation, fitting_ideal, fitting_of_p_group
from .groupring import (
    Character,
    FiniteAbelianGroup,
    GroupRing,
    GroupRingElement,
    IdealNF,
    chi_project,
    ideal_normal_form,
)
from .ideals import CycIdealRun, sample_cyclotomic_ideal, stabilized
from .maps import annihilation_check, phi_bar
from .units import (
    DerivativeClass,
    DerivativeOperator,
    evaluate_kappa,
    norm_relation_check,
)

__all__ = [
    "AbelianFieldCtx",
    "Character",
    "CycIdealRun",
    "DerivativeClass",
    "DerivativeOperator",
    "FieldCtx",
    "FiniteAbelianGroup",
    "FormClassGroup",
    "GroupRing",
    "GroupRingElement",
    "IdealNF",
    "KolyvaginPrime",
    "Presentation",
    "annihilation_check",
    "build_combined",
    "build_field",
    "check_combined_identities",
    "chi_project",
    "dlog_p_part",
    "evaluate_kappa",
    "fitting_ideal",
    "fitting_of_p_group",
    "ideal_class_of_prime",
    "ideal_normal_form",
    "kolyvagin_primes",
    "make_field",
    "narrow_class_group",
    "norm_relation_check",
    "phi_bar",
    "root_of_unity",
    "sample_cyclotomic_ideal",
    "stabilized",
]
