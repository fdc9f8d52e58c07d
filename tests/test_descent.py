"""One automorphism on both sides of descent.

Twisting a cocycle u by g gives b(n) = g^{-1} u(n) (n acting on g), and
the twisted loops L(u) and L(b) are then isomorphic through g^{-1}, not g
(Serre, *Galois Cohomology*, I 5).  Each case checks the coboundary, that g
is a homomorphism, that g^{-1} carries every window basis element of L(u)
into L(b) and that g carries every one of L(b) back into L(u).  The loop of
a cocycle is the eigenspace splitting of its value at 1."""

from fractions import Fraction

import pytest

from csalg.algebras import make_n2, make_n4
from csalg.cohomology import N2AutElt, N4AutElt, coboundary, cocycle_of
from csalg.laurent import LaurentElt
from csalg.loops import eigenspaces, loop_membership
from csalg.morphisms import check_hom, extend_apply, invert

HALF = Fraction(1, 2)
#: Exponents of the window basis elements v t^q checked in each loop.
WINDOW = 2

N2 = make_n2()
N4 = make_n4()
Z3 = N4.field.root_of_unity(3)


def mono(field, q):
    return LaurentElt(field, {Fraction(q): field.one()})


def _window_basis(loop):
    return [v.shift_t(q) for res, v, _, _ in loop.basis
            for q in loop.exponents(res, -WINDOW, WINDOW)]


def _loop(A, u):
    return eigenspaces(A, u.value(1).as_morphism(A), u.m)


def _carried(phi, source, target):
    """How many window basis elements of ``source`` phi sends into
    ``target``, out of how many."""
    basis = _window_basis(source)
    return (sum(loop_membership(target, extend_apply(phi, x)) for x in basis),
            len(basis))


def _n2_case():
    # the trivial cocycle and theta(-1): g^{-1} (1.g) = t^{-1/2} (-t^{1/2})
    u = cocycle_of(N2AutElt.identity(), 2)
    b = cocycle_of(N2AutElt(LaurentElt(N2.field, {0: -1}), 0), 2)
    return N2, u, N2AutElt(mono(N2.field, HALF), 0), b, (20, 18)


def _n4_case():
    # diag(t^{1/2}, t^{-1/2}) turns the trivial cocycle into the joint sign
    F = N4.field
    u = cocycle_of(N4AutElt.identity(), 2)
    b = cocycle_of(N4AutElt([[1, 0], [0, 1]], [[-1, 0], [0, -1]]), 2)
    y = [[mono(F, HALF), 0], [0, mono(F, -HALF)]]
    return N4, u, N4AutElt(y, [[1, 0], [0, 1]]), b, (40, 36)


def _n4_order3_case():
    # a constant g = (I, P) conjugates the value: b(n) = (I, P^{-1} X^n P)
    x = [[Z3, 0], [0, Z3 ** 2]]
    p, pinv = [[1, 1], [0, 1]], [[1, -1], [0, 1]]
    u = cocycle_of(N4AutElt([[1, 0], [0, 1]], x), 3)
    conj = [[Z3, Z3 - Z3 ** 2], [0, Z3 ** 2]]  # P^{-1} X P
    assert conj == [[sum(pinv[r][k] * x[k][s] * p[s][c]
                         for k in range(2) for s in range(2))
                     for c in range(2)] for r in range(2)]
    b = cocycle_of(N4AutElt([[1, 0], [0, 1]], conj), 3)
    return N4, u, N4AutElt([[1, 0], [0, 1]], p), b, (36, 36)


@pytest.mark.parametrize("case", [_n2_case, _n4_case, _n4_order3_case],
                         ids=["n2-sign", "n4-joint-sign", "n4-order3"])
def test_one_element_witnesses_the_coboundary_and_the_isomorphism(case):
    A, u, g, b, (forward, back) = case()
    assert coboundary(u, g) == b
    phi = g.as_morphism(A)
    assert check_hom(A, phi).ok
    Lu, Lb = _loop(A, u), _loop(A, b)
    assert _carried(invert(phi), Lu, Lb) == (forward, forward)
    assert _carried(phi, Lb, Lu) == (back, back)


def test_the_isomorphism_of_the_coboundary_is_g_inverse():
    # on the order-3 case g itself is no isomorphism L(u) -> L(b): the
    # direction matters once g and g^{-1} act differently on the twist
    A, u, g, b, (forward, _) = _n4_order3_case()
    got, total = _carried(g.as_morphism(A), _loop(A, u), _loop(A, b))
    assert total == forward and got < total
