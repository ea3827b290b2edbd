"""Exception hierarchy shared by all cycfit modules.

Every error that the CLI maps to an exit code lives here; EXIT_CODES at the
bottom is the single source of truth for that mapping.
"""


class CycfitError(Exception):
    """Base class for all package errors."""


class NotPrime(CycfitError, ValueError):
    """A number that must be prime (or an odd prime, for p) is not."""


class NotFundamental(CycfitError, ValueError):
    """D is not a positive fundamental discriminant.

    This and the other input errors that are also ValueErrors keep the type
    their checks raised before they had an exit code."""


class BudgetExceeded(CycfitError):
    """A prime field F_q would exceed the field budget (config.DEFAULT_FIELD_BUDGET)."""


class OrderNotDividing(CycfitError):
    pass


class ZeroElement(CycfitError):
    pass


class BadDecomposition(CycfitError, ValueError):
    """A module decomposition is not in canonical form: elementary divisors
    not positive and non-increasing, or |Delta| not prime to p."""


class MixedAmbient(CycfitError):
    pass


class InsufficientPrecision(CycfitError, ValueError):
    """The level N is too small: N <= sum of the divisors, or N < max(1, m+1)."""


class Ramified(CycfitError):
    pass


class SplitP(CycfitError):
    pass


class BudgetExhausted(CycfitError):
    """A bounded search ran out of candidates; retry with a larger budget."""


class ConductorClash(CycfitError, ValueError):
    """A parameter is incompatible with the conductor: q divides the symbol
    conductor, d does not divide f_K, a or the auxiliary product is not prime
    to p f_K, an h-twist of evaluate_kappa is not prime to the master modulus
    M, or an extra modulus is not a positive integer prime to p f_K."""


class NotSplit(CycfitError):
    pass


class DividesAux(CycfitError):
    pass


class NegativeArgument(CycfitError, ValueError):
    """An index, a count or a bound that must be >= 0 is negative: the ideal
    index i, the sample budget or stabilization window, the number of
    annihilation or auxiliary primes (--count), the prime-search budget
    (primes --budget), or the largest ideal index (--i-max) or epsilon
    (--eps-max) to check."""


class UsageError(CycfitError):
    """The command line does not parse: an unknown command or option, or a
    value of the wrong type."""


class NotWellOrdered(CycfitError):
    """Auxiliary primes violate the chain congruences l_i = 1 mod p^N l_1 ... l_{i-1}."""


class ReductionFailure(CycfitError):
    pass


class PrecisionTooLow(CycfitError):
    pass


# CLI exit codes: 0 = all MATCH/PASS, 2 = INCONCLUSIVE present,
# 3 = BUG-class failure, 4+ = input/validation errors.  8 and 9 are retired
# and not reused, so an old code never reads as a different error.
EXIT_CODES = {
    Ramified: 4,
    SplitP: 5,
    NotFundamental: 6,
    NotPrime: 7,
    BudgetExhausted: 10,
    BudgetExceeded: 11,
    InsufficientPrecision: 12,
    PrecisionTooLow: 13,
    OrderNotDividing: 14,
    NotSplit: 15,
    NotWellOrdered: 16,
    ConductorClash: 17,
    BadDecomposition: 18,
    NegativeArgument: 20,
    UsageError: 21,
    CycfitError: 19,
}


def exit_code_for(exc: BaseException) -> int:
    for klass in type(exc).__mro__:
        if klass in EXIT_CODES:
            return EXIT_CODES[klass]
    return 1
