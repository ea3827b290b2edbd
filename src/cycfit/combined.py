"""A small formal algebra of derivative classes.

The three structural facts about divisor/reciprocity coordinates of
derivative classes are encoded as rewrite axioms over a free module:

  (A1)  bracket_s kappa(n) -> 0                     when s does not divide n
  (A2)  bracket_l kappa(n) -> phi_l kappa(n/l)      when l | n
  (A3)  phi_l kappa(n) -> 0                         when l | n, n well-ordered

Coefficients are multilinear integer polynomials in formal weights w_l; the
combined elements x_{nu,q} = sum_{e|nu} w_e kappa(q*nu/e) carry no
auxiliary-group tensor tags: the tag of every term is e union (nu - e) = nu,
the same for all terms, so it is left out.

Everything here is label-level symbol pushing: it needs no primes, no
fields, and no randomness.
"""

from __future__ import annotations

from .errors import NotWellOrdered, ReductionFailure

# coefficient = dict {frozenset(weight labels): int}, a multilinear polynomial
Coeff = dict
# formal sum = dict {atom: Coeff}; atoms are ("kappa"|"phi"|"bracket", ..., frozenset)
FormalSum = dict


def _coeff_add(a: Coeff, b: Coeff, sign: int = 1) -> Coeff:
    out = dict(a)
    for mono, c in b.items():
        out[mono] = out.get(mono, 0) + sign * c
        if out[mono] == 0:
            del out[mono]
    return out


def _coeff_scale(a: Coeff, mono: frozenset, c: int = 1) -> Coeff:
    out: Coeff = {}
    for m, v in a.items():
        if m & mono:
            raise ReductionFailure("weight monomials collided (non-multilinear product)")
        out[frozenset(m | mono)] = v * c
    return out


def _sum_add(total: FormalSum, atom, coeff: Coeff, sign: int = 1) -> None:
    cur = total.get(atom, {})
    new = _coeff_add(cur, coeff, sign)
    if new:
        total[atom] = new
    elif atom in total:
        del total[atom]


def _subsets(labels: tuple):
    n = len(labels)
    for mask in range(1 << n):
        yield frozenset(labels[i] for i in range(n) if mask >> i & 1)


def build_combined(nu: tuple, q) -> FormalSum:
    """Expand the divisor-lattice product defining
    x_{nu,q} = sum over e | nu of w_e kappa(q * nu/e), as kappa atoms."""
    if len(set(nu)) != len(nu) or q in nu:
        raise NotWellOrdered("labels of q*nu must be distinct")
    terms: FormalSum = {}
    full = frozenset(nu)
    for e in _subsets(tuple(nu)):
        kappa_arg = frozenset({q} | (full - e))
        _sum_add(terms, ("kappa", kappa_arg), {frozenset(e): 1})
    return terms


def apply_bracket(s, x: FormalSum) -> FormalSum:
    """[x]^s, reduced by (A1)/(A2)."""
    out: FormalSum = {}
    for atom, coeff in x.items():
        _kind, arg = atom[0], atom[-1]
        if s not in arg:
            continue  # A1
        _sum_add(out, ("phi", s, frozenset(arg - {s})), coeff)  # A2
    return out


def apply_phi(ell, x: FormalSum) -> FormalSum:
    """phi^ell(x), reduced by (A3) when the argument is divisible by ell.

    Divisors of a well-ordered product are well-ordered (the chain moduli
    only shrink), so A3 applies to every kappa whose argument contains ell.
    """
    out: FormalSum = {}
    for atom, coeff in x.items():
        arg = atom[-1]
        if ell in arg:
            continue  # A3
        _sum_add(out, ("phi", ell, arg), coeff)
    return out


class CombinedIdentityReport:
    """The three identities at one epsilon; its report entry is built from
    vars()."""

    def __init__(self, epsilon: int, identity1: bool, identity2: bool, identity3: bool):
        self.epsilon = epsilon
        self.identity1 = identity1
        self.identity2 = identity2
        self.identity3 = identity3

    @property
    def passed(self) -> bool:
        return self.identity1 and self.identity2 and self.identity3


def _equal(lhs: FormalSum, rhs: FormalSum, weight: frozenset = frozenset()) -> bool:
    """lhs - w * rhs is the empty sum, w the weight monomial (1 by default)."""
    diff = dict(lhs)
    for atom, coeff in rhs.items():
        _sum_add(diff, atom, _coeff_scale(coeff, weight), sign=-1)
    return not diff


def check_combined_identities(epsilon: int) -> CombinedIdentityReport:
    """Check the three structural identities of the combined elements for a
    well-ordered shape with epsilon(nu) = epsilon and symbolic weights:

      (1) [x_{nu,q}]^s = 0 for s not dividing q*nu;
      (2) [x_{nu,q}]^l = phi^l(x_{nu/l,q}) for l | nu;
      (3) phi^l(x_{nu,q}) = w_l * phi^l(x_{nu/l,q}) for l | nu.

    Each must reduce to the empty sum in the free module.
    """
    nu = tuple(f"l{i}" for i in range(1, epsilon + 1))
    q = "q"
    x = build_combined(nu, q)
    ok1 = not apply_bracket("s_fresh", x)
    ok2 = True
    ok3 = True
    for ell in nu:
        sub_nu = tuple(l for l in nu if l != ell)
        x_sub = build_combined(sub_nu, q)
        rhs = apply_phi(ell, x_sub)
        ok2 &= _equal(apply_bracket(ell, x), rhs)
        ok3 &= _equal(apply_phi(ell, x), rhs, frozenset({ell}))
    return CombinedIdentityReport(epsilon=epsilon, identity1=ok1, identity2=ok2, identity3=ok3)
