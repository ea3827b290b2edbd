import subprocess
import sys
from pathlib import Path

import pytest

import cycfit
from cycfit.errors import NotWellOrdered
from cycfit.combined import (
    apply_bracket,
    apply_phi,
    build_combined,
    check_combined_identities,
)


def test_build_combined_divisor_lattice():
    x1 = build_combined((), "q")
    assert x1 == {("kappa", frozenset({"q"})): {frozenset(): 1}}
    xl = build_combined(("l",), "q")
    assert xl == {
        ("kappa", frozenset({"q", "l"})): {frozenset(): 1},
        ("kappa", frozenset({"q"})): {frozenset({"l"}): 1},
    }
    xll = build_combined(("l1", "l2"), "q")
    assert len(xll) == 4
    assert xll[("kappa", frozenset({"q"}))] == {frozenset({"l1", "l2"}): 1}
    assert xll[("kappa", frozenset({"q", "l1"}))] == {frozenset({"l2"}): 1}


def test_build_combined_label_validation():
    with pytest.raises(NotWellOrdered):
        build_combined(("l", "l"), "q")


def test_build_combined_respects_divisor_recursion():
    # x at nu splits as (terms of x at nu/l with l folded into the argument)
    # plus w_l times x at nu/l
    full = build_combined(("l1", "l2"), "q")
    sub = build_combined(("l1",), "q")
    reconstructed = {}
    for (kind, arg), coeff in sub.items():
        reconstructed[(kind, frozenset(arg | {"l2"}))] = dict(coeff)
    for (kind, arg), coeff in sub.items():
        key = (kind, arg)
        tgt = reconstructed.setdefault(key, {})
        for mono, c in coeff.items():
            m2 = frozenset(mono | {"l2"})
            tgt[m2] = tgt.get(m2, 0) + c
    assert reconstructed == full


def test_axioms():
    x = build_combined(("l",), "q")
    # A1: a fresh prime coordinate vanishes termwise
    assert apply_bracket("s", x) == {}
    # A2: the l-coordinate turns kappa(ql) into phi_l kappa(q)
    br = apply_bracket("l", x)
    assert br == {("phi", "l", frozenset({"q"})): {frozenset(): 1}}
    # A3: phi_l kills every kappa whose argument contains l
    ph = apply_phi("l", x)
    assert ph == {("phi", "l", frozenset({"q"})): {frozenset({"l"}): 1}}


def test_formal_identities_all_shapes():
    for eps in range(0, 4):
        report = check_combined_identities(eps)
        assert report.passed, report


def test_combined_imports_no_numeric_layer():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(cycfit.__file__).parent.parent)!r})\n"
        "import cycfit.combined\n"
        "print(sorted(m for m in ('cycfit.units', 'cycfit.maps', 'cycfit.fields')"
        " if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out == "[]\n"
