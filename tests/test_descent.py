"""One automorphism on both sides of descent.

Twisting a cocycle u by g gives b(n) = g^{-1} u(n) (n acting on g), and
the twisted loops L(u) and L(b) are then isomorphic through g^{-1}, not g
(Serre, *Galois Cohomology*, I 5).  Each case checks the coboundary, that g
is a homomorphism, that g^{-1} carries every window basis element of L(u)
into L(b) and that g carries every one of L(b) back into L(u).  The loop of
a cocycle u is the eigenspace splitting of u(1)^{-1}; each expected count is
read off the window and the eigenspace dimensions."""

from fractions import Fraction

import pytest

from csalg.algebras import make_n2, make_n4
from csalg.cohomology import N2AutElt, N4AutElt, coboundary, cocycle_of
from csalg.laurent import LaurentElt
from csalg.loops import eigenspaces, loop_membership
from csalg.morphisms import (check_hom, extend_apply, identity_morphism,
                             invert)

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
    # L(u) = {x : u(1)(gamma x) = x}, gamma(v t^{p/m}) = xi^p v t^{p/m}: v
    # t^{p/m} is fixed exactly when u(1) v = xi^{-p} v, so L(u) pairs the
    # xi^p-eigenspace of u(1)^{-1} with t^{p/m}
    return eigenspaces(A, invert(u.value(1).as_morphism(A)), u.m)


def _window_count(dims, m):
    """The size of the window basis of a loop whose xi^i-eigenspace, of
    dimension dims[i], sits at the exponents i/m + Z: the exponents i/m + k
    in [-WINDOW, WINDOW], counted from the window alone."""
    return sum(dim * len([k for k in range(-WINDOW, WINDOW + 1)
                          if abs(Fraction(i, m) + k) <= WINDOW])
               for i, dim in enumerate(dims))


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


def _n4_third_case():
    # u(1) = (diag(z3, z3^2), I) fixes L and J3, and each of its z3- and
    # z3^2-eigenspaces holds one current and two odd generators; g =
    # (diag(t^{-1/3}, t^{1/3}), I) makes the coboundary trivial, though it
    # keeps level 3.  Dimensions by hand: [2, 3, 3] for u, [8, 0, 0] for
    # the trivial cocycle
    F = N4.field
    z3 = LaurentElt(F, {0: Z3})
    u = cocycle_of(N4AutElt([[z3, 0], [0, z3 * z3]], [[1, 0], [0, 1]]), 3)
    b = cocycle_of(N4AutElt.identity(), 3)
    third = Fraction(1, 3)
    y = [[mono(F, -third), 0], [0, mono(F, third)]]
    return (N4, u, N4AutElt(y, [[1, 0], [0, 1]]), b,
            (_window_count([2, 3, 3], 3), _window_count([8, 0, 0], 3)))


def _n2_third_case():
    # theta(z3) fixes L and J and scales G+- by z3^{+-1}; theta(t^{-1/3})
    # makes the coboundary trivial.  Dimensions by hand: [2, 1, 1] for u,
    # [4, 0, 0] for the trivial cocycle
    F = N2.field
    z3 = LaurentElt(F, {0: F.root_of_unity(3)})
    u = cocycle_of(N2AutElt(z3, 0), 3)
    b = cocycle_of(N2AutElt.identity(), 3)
    g = N2AutElt(mono(F, Fraction(-1, 3)), 0)
    return (N2, u, g, b,
            (_window_count([2, 1, 1], 3), _window_count([4, 0, 0], 3)))


def test_window_counts_follow_the_window_and_the_dimensions():
    # by hand: [-2, 2] holds the 5 exponents of Z and the 4 of 1/3 + Z and
    # of 2/3 + Z
    assert _window_count([8, 0, 0], 3) == 40
    assert _window_count([2, 3, 3], 3) == 34
    assert _window_count([2, 1, 1], 3) == 18
    assert _window_count([4], 1) == 20


@pytest.mark.parametrize("case", [_n2_case, _n4_case, _n4_order3_case,
                                  _n4_third_case, _n2_third_case],
                         ids=["n2-sign", "n4-joint-sign", "n4-order3",
                              "n4-third", "n2-third"])
def test_one_element_witnesses_the_coboundary_and_the_isomorphism(case):
    A, u, g, b, (forward, back) = case()
    assert coboundary(u, g) == b
    phi = g.as_morphism(A)
    assert check_hom(A, phi).ok
    Lu, Lb = _loop(A, u), _loop(A, b)
    assert _window_count([len(p) for p in Lu.eigenbasis], u.m) == forward
    assert _window_count([len(p) for p in Lb.eigenbasis], b.m) == back
    assert _carried(invert(phi), Lu, Lb) == (forward, forward)
    assert _carried(phi, Lb, Lu) == (back, back)


def test_the_isomorphism_of_the_coboundary_is_g_inverse():
    # on the order-3 case g itself is no isomorphism L(u) -> L(b): the
    # direction matters once g and g^{-1} act differently on the twist
    A, u, g, b, (forward, _) = _n4_order3_case()
    got, total = _carried(g.as_morphism(A), _loop(A, u), _loop(A, b))
    assert total == forward and got < total


@pytest.mark.parametrize("case", [_n4_third_case, _n2_third_case],
                         ids=["n4-third", "n2-third"])
def test_the_trivial_coboundary_at_level_3_loops_to_the_untwisted_loop(case):
    # the coboundary keeps the level of g, 3, with constant entries 1 and 0;
    # its loop puts every generator at residue 0, on the exponents Z
    A, u, g, b, (_, back) = case()
    trivial = coboundary(u, g)
    assert trivial == b and trivial.value(1).level == 3
    Lb = _loop(A, trivial)
    assert [len(p) for p in Lb.eigenbasis] == [A.ngens(), 0, 0]
    identity = identity_morphism(A)
    untwisted = eigenspaces(A, identity, 1)
    assert _carried(identity, Lb, untwisted) == (back, back)
    assert _carried(identity, untwisted, Lb) == (back, back)
