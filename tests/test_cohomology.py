import random
from fractions import Fraction

import pytest

from csalg import cohomology
from csalg.algebras import make_n2, make_n4
from csalg.cohomology import (
    Cocycle,
    N2AutElt,
    N4AutElt,
    RootPair,
    check_cocycle,
    coboundary,
    cocycle_of,
    n2_component,
    n4_invariant,
    pgl2_classes,
)
from csalg.cyclotomic import CycloField
from csalg.errors import ConductorError, DomainError
from csalg.laurent import LaurentElt
from csalg.morphisms import SL2MatrixOverS, compose, identity_morphism

N2 = make_n2()
N4 = make_n4()
FIELD = N2.field
HALF = Fraction(1, 2)
I24 = FIELD.root_of_unity(4)


def mono(coeff, q):
    return LaurentElt(FIELD, {Fraction(q): coeff})


def flip():
    return N2AutElt(LaurentElt.one(), 1)


def half_diag():
    return SL2MatrixOverS(FIELD, [[mono(1, HALF), 0], [0, mono(1, -HALF)]])


# -- the small automorphism group ------------------------------------------


def test_n2_elements_multiply_like_their_morphisms():
    rng = random.Random(5)
    pool = [N2AutElt(mono(1, 0), 0), flip(), N2AutElt(mono(2, 3), 0),
            N2AutElt(mono(1, HALF), 1), N2AutElt(mono(Fraction(1, 3), -1), 0)]
    for _ in range(10):
        u, v = rng.choice(pool), rng.choice(pool)
        lhs = (u * v).as_morphism(N2)
        rhs = compose(u.as_morphism(N2), v.as_morphism(N2))
        assert lhs == rhs


def test_n2_inverse_and_identity():
    for u in (N2AutElt(mono(2, 3), 0), N2AutElt(mono(2, 3), 1), flip()):
        assert u * u.inverse() == u.identity_like()
        assert u.inverse() * u == u.identity_like()
    assert N2AutElt.identity().as_morphism(N2) == identity_morphism(N2)


def test_n2_flip_conjugation_inverts_the_unit():
    u = N2AutElt(mono(2, 3), 0)
    conj = flip() * u * flip()
    assert conj == N2AutElt(mono(2, 3).inverse(), 0)


def test_n2_rejects_non_units():
    with pytest.raises(DomainError):
        N2AutElt(mono(1, 0) + mono(1, 1), 0)


# -- the paired automorphism group ------------------------------------------


def test_n4_sign_normalization():
    a = N4AutElt([[1, 0], [0, 1]], [[-1, 0], [0, -1]])
    b = N4AutElt([[-1, 0], [0, -1]], [[1, 0], [0, 1]])
    assert a == b
    assert a != N4AutElt.identity()
    both = N4AutElt([[-1, 0], [0, -1]], [[-1, 0], [0, -1]])
    assert both == N4AutElt.identity()


def test_n4_elements_multiply_like_their_morphisms():
    rng = random.Random(7)
    pool = [
        N4AutElt.identity(),
        N4AutElt([[1, 0], [0, 1]], [[I24, 0], [0, -I24]]),
        N4AutElt([[1, mono(1, 1)], [0, 1]], [[0, 1], [-1, 0]]),
        N4AutElt(half_diag(), [[1, 2], [0, 1]]),
    ]
    for _ in range(6):
        u, v = rng.choice(pool), rng.choice(pool)
        assert (u * v).as_morphism(N4) == \
            compose(u.as_morphism(N4), v.as_morphism(N4))
        assert (u * u.inverse()) == N4AutElt.identity()


def test_n4_galois_touches_only_the_loop_part():
    u = N4AutElt(half_diag(), [[I24, 0], [0, -I24]])
    twisted = u.galois(1)
    assert twisted.x == u.x
    assert twisted.y == SL2MatrixOverS(
        FIELD, [[mono(-1, HALF), 0], [0, mono(-1, -HALF)]])
    assert u.galois(2) == u


# -- cocycles and coboundaries -----------------------------------------------


def test_flip_cocycle_is_valid():
    u = Cocycle(2, {0: N2AutElt.identity(), 1: flip()})
    assert check_cocycle(u)


def test_half_power_is_not_a_cocycle():
    u = Cocycle(2, {0: N2AutElt.identity(), 1: N2AutElt(mono(1, HALF), 0)})
    assert not check_cocycle(u)


def test_trivial_cocycle():
    for m in (1, 2, 3):
        u = cocycle_of(N2AutElt.identity(), m)
        assert check_cocycle(u)
        assert all(u.value(g) == N2AutElt.identity() for g in range(m))


def test_cocycle_of_powers():
    u = cocycle_of(flip(), 2)
    assert u.value(1) == flip()
    assert check_cocycle(u)

    theta = N4AutElt([[1, 0], [0, 1]], [[I24, 0], [0, -I24]])
    v = cocycle_of(theta, 4)
    assert check_cocycle(v)
    assert v.value(2) == N4AutElt([[1, 0], [0, 1]], [[-1, 0], [0, -1]])


def test_cocycle_of_checks_the_order():
    with pytest.raises(DomainError):
        cocycle_of(flip(), 3)
    theta = N4AutElt([[1, 0], [0, 1]], [[I24, 0], [0, -I24]])
    with pytest.raises(DomainError):
        cocycle_of(theta, 2)


def test_cocycle_normalization_is_enforced():
    with pytest.raises(DomainError):
        Cocycle(2, {0: flip(), 1: flip()})
    with pytest.raises(DomainError):
        Cocycle(2, {1: flip()})
    with pytest.raises(DomainError):
        Cocycle(2, {0: N2AutElt.identity(), 1: N2AutElt(mono(1, Fraction(1, 3)), 0)})


def test_coboundary_of_identity_element_is_noop():
    u = cocycle_of(flip(), 2)
    assert coboundary(u, N2AutElt.identity()) == u


def test_coboundary_preserves_the_condition():
    rng = random.Random(11)
    units = [mono(1, 0), mono(1, 1), mono(2, -1), mono(1, HALF)]
    for _ in range(10):
        g = N2AutElt(rng.choice(units), rng.randrange(2))
        for u in (cocycle_of(flip(), 2), cocycle_of(N2AutElt.identity(), 2)):
            b = coboundary(u, g)
            assert check_cocycle(b)
            assert n2_component(b) == n2_component(u)


def test_sign_twist_is_a_coboundary():
    # diag(t^{1/2}, t^{-1/2}) satisfies g^{-1} (1.g) = -I, so the joint-sign
    # cocycle collapses to the trivial one
    u = cocycle_of(N4AutElt([[1, 0], [0, 1]], [[-1, 0], [0, -1]]), 2)
    assert check_cocycle(u)
    g = N4AutElt(half_diag(), [[1, 0], [0, 1]])
    trivial = cocycle_of(N4AutElt.identity(), 2)
    assert coboundary(u, g) == trivial
    assert coboundary(trivial, g) == u


def test_n2_component_values():
    assert n2_component(cocycle_of(flip(), 2)) == 1
    assert n2_component(cocycle_of(N2AutElt.identity(), 2)) == 0


# -- classification invariants ----------------------------------------------


def test_invariant_of_small_matrices():
    one = FIELD.one()
    assert n4_invariant([[1, 0], [0, 1]]) == RootPair(1, 0)
    assert n4_invariant([[-1, 0], [0, -1]]) == RootPair(1, 0)
    assert n4_invariant([[I24, 0], [0, -I24]]) == RootPair(2, 1)
    assert n4_invariant([[0, 1], [-1, 0]]) == RootPair(2, 1)
    zeta8 = FIELD.zeta(3)
    got = n4_invariant([[zeta8, 0], [0, zeta8.inverse()]])
    assert got == RootPair(4, 1)
    assert got.scalars(FIELD) == (I24, -I24) or \
        got.scalars(FIELD) == (I24, I24**3)
    assert one + 1 == FIELD.rational(2)


def test_subfield_matrix_entries_embed():
    i4 = CycloField.get(4).zeta(1)
    x4 = [[i4, 0], [0, -i4]]
    x24 = [[I24, 0], [0, -I24]]
    assert N4AutElt([[1, 0], [0, 1]], x4) == N4AutElt([[1, 0], [0, 1]], x24)
    assert n4_invariant(x4, field=FIELD) == n4_invariant(x24) == RootPair(2, 1)
    # without a field, the entry of largest conductor picks it, wherever
    # that entry sits: here the Q(zeta_24) scalar comes before the Q(i) one
    mixed = [[I24, 0], [0, -i4]]
    assert n4_invariant(mixed) == n4_invariant(x24)


def test_invariant_ignores_sign_and_conjugation():
    rng = random.Random(13)
    zeta = FIELD.zeta
    samples = [[[zeta(k), FIELD.zero()], [FIELD.zero(), zeta(-k)]]
               for k in (0, 2, 3, 4, 6, 8)]
    for x in samples:
        base = n4_invariant(x)
        neg = [[-e for e in row] for row in x]
        assert n4_invariant(neg) == base
        for _ in range(5):
            p = [[FIELD.rational(rng.randint(-3, 3)) for _ in range(2)]
                 for _ in range(2)]
            det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
            if det.is_zero():
                continue
            inv = [[p[1][1] / det, -p[0][1] / det],
                   [-p[1][0] / det, p[0][0] / det]]
            conj = [[sum((p[r][k] * x[k][l] * inv[l][c]
                          for k in range(2) for l in range(2)),
                         FIELD.zero())
                     for c in range(2)] for r in range(2)]
            assert n4_invariant(conj) == base


def test_invariant_rejects_infinite_order():
    with pytest.raises(DomainError):
        n4_invariant([[1, 1], [0, 1]])
    with pytest.raises(DomainError):
        n4_invariant([[2, 0], [0, HALF]])


def test_pgl2_class_counts():
    for n in range(1, 7):
        classes = pgl2_classes(n)
        assert len(classes) == n // 2 + 1
        assert len(set(classes)) == len(classes)
    assert pgl2_classes(1) == [RootPair(1, 0)]
    assert pgl2_classes(2) == [RootPair(1, 0), RootPair(2, 1)]
    assert len(pgl2_classes(4)) == 3


def test_pgl2_classes_match_diagonal_representatives():
    # every class invariant must be realized by diag(lambda, lambda^{-1})
    # with lambda a 2n-th root of unity, and nothing else may appear
    for n in (1, 2, 3, 4, 6):
        field = CycloField.get(24)
        found = set()
        step = 24 // (2 * n)
        for k in range(2 * n):
            lam = field.zeta(step * k)
            found.add(n4_invariant([[lam, field.zero()],
                                    [field.zero(), lam.inverse()]],
                                   field=field))
        assert found == set(pgl2_classes(n, field=field))


def test_pgl2_order_bound_is_inclusive(monkeypatch):
    monkeypatch.setattr(cohomology, "MAX_PGL2_ORDER", 6)
    assert len(pgl2_classes(6)) == 4
    with pytest.raises(DomainError,
                       match=r"^order bound 7 is above the bound 6$"):
        pgl2_classes(7)


def test_pgl2_conductor_guard():
    with pytest.raises(ConductorError):
        pgl2_classes(5, field=CycloField.get(24))
    classes = pgl2_classes(5)
    assert len(classes) == 3


def test_pgl2_classes_build_no_field():
    before = set(CycloField._instances)
    classes = pgl2_classes(35)
    assert len(classes) == 18
    assert 840 not in CycloField._instances
    assert set(CycloField._instances) == before


def test_root_pair_rendering():
    assert str(RootPair(1, 0)) == "{1, 1}"
    assert str(RootPair(2, 1)) == "{-1, -1}"
    assert str(RootPair(4, 1)) == "{zeta_4^1, zeta_4^3}"
    assert str(n4_invariant([[FIELD.zeta(3), FIELD.zero()],
                             [FIELD.zero(), FIELD.zeta(-3)]])) \
        == "{zeta_4^1, zeta_4^3}"


def test_cocycle_and_root_pair_refusals():
    with pytest.raises(DomainError, match="^modulus must be positive$"):
        Cocycle(0, {})
    with pytest.raises(ConductorError, match="^roots of order 5 need a "
                       "compatible conductor$"):
        RootPair(5, 1).scalars(FIELD)
