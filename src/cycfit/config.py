"""Run-wide defaults and convention flags."""

from __future__ import annotations

# Prime fields F_q are rejected above this size so element arithmetic stays
# in machine words whenever the platform allows it.  Read by arith.make_field
# (BudgetExceeded), its bound on outside input such as `cycfit kappa -q`.
DEFAULT_FIELD_BUDGET = 2**62

# Hard cap on the number of multi-indices in a derivative-operator expansion.
# Shared by units.evaluate_kappa, hence the sampler and `cycfit kappa`, and by
# cli.cmd_formal, which refuses `formal --eps-max` E when the checks up to E
# rewrite more terms than this, sum_{e <= E} e * 2^e (E >= 14).
DEFAULT_DERIVATIVE_CAP = 200_000

# Matrices above this size are rejected by the minor enumerator (fitting).
MAX_PRESENTATION_SIZE = 12

# Stall window and sample budget of the sampler; `verify` and `ideal` defaults.
DEFAULT_STABILIZATION_WINDOW = 50
DEFAULT_SAMPLE_BUDGET = 500

# Candidates examined per auxiliary-prime search.  Shared by
# fields.kolyvagin_primes, the sampler's chains and `cycfit primes --budget`.
DEFAULT_PRIME_SEARCH_BUDGET = 200_000


class Conventions:
    """Normalization switches that pin the residue-side conventions.

    flip_sigma: replace every tame generator s_ell by its inverse.  This is the
        *rejected* convention; it exists so the discrimination harness can show
        the verification suite has power against it.
    phi_sign: overall sign of the reciprocity coordinate relative to the
        discrete logarithm (+1 = dlog-aligned, -1 = inverse-unit normalization
        of local class field theory).  Both produce identical ideals,
        annihilation verdicts and invariance results; +1 is frozen as default.
    """

    def __init__(self, flip_sigma: bool = False, phi_sign: int = 1):
        self.flip_sigma = flip_sigma
        self.phi_sign = phi_sign


# The frozen conventions; default of fields.AbelianFieldCtx and build_field.
DEFAULT_CONVENTIONS = Conventions()
