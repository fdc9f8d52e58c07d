import operator
import random
from fractions import Fraction

import pytest

from csalg.cyclotomic import CycloField
from csalg.errors import ConductorError, DomainError
from csalg.laurent import LaurentElt, binom_frac, delta_t, galois_act

F = CycloField.get(24)
HALF = Fraction(1, 2)


def mono(c, q, level=None):
    return LaurentElt.monomial(c, Fraction(q), level=level)


def test_binom_frac():
    assert binom_frac(5, 2) == 10
    assert binom_frac(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert binom_frac(Fraction(-1), 3) == -1
    assert binom_frac(Fraction(3, 2), 0) == 1
    assert binom_frac(2, 5) == 0


def _binom_by_product(q, j):
    """C(q, j) = q(q-1)...(q-j+1)/j!, one factor at a time."""
    out = Fraction(1)
    for i in range(j):
        out = out * (q - i) / (i + 1)
    return out


def test_binom_frac_matches_the_product_formula():
    # integers take the math.comb path, half-integers the product loop
    qs = [Fraction(k) for k in range(-30, 31)]
    qs += [Fraction(k, 2) for k in range(-29, 30, 2)]
    for q in qs:
        for j in range(13):
            want = _binom_by_product(q, j)
            for arg in (q, q.numerator) if q.denominator == 1 else (q,):
                got = binom_frac(arg, j)
                assert type(got) is Fraction
                assert got == want, (arg, j)


def test_delta_power_rule():
    assert delta_t(mono(1, Fraction(3, 2))) == mono(Fraction(3, 2), Fraction(1, 2))
    assert delta_t(mono(1, 0)).is_zero()
    x = mono(2, 2) + mono(1, -1)
    assert delta_t(x) == mono(4, 1) - mono(1, -2)


def test_delta_leibniz_sampled():
    rng = random.Random(7)
    field = CycloField.get(24)
    for _ in range(40):
        x = LaurentElt(field, {
            Fraction(rng.randrange(-4, 5), rng.choice((1, 2))):
                field.rational(rng.randrange(-3, 4))
            for _ in range(rng.randrange(4))})
        y = LaurentElt(field, {
            Fraction(rng.randrange(-4, 5), rng.choice((1, 3))):
                field.rational(rng.randrange(-3, 4))
            for _ in range(rng.randrange(4))})
        assert delta_t(x * y) == delta_t(x) * y + x * delta_t(y)


def test_delta_divided_powers():
    x = mono(1, Fraction(1, 2))
    # delta^{(2)} t^{1/2} = C(1/2,2) t^{-3/2}
    assert x.delta_power(2) == mono(Fraction(-1, 8), Fraction(-3, 2))
    assert x.delta_power(0) == x


def test_delta_power_refuses_a_negative_order():
    # the generalized binomial C(q, j) is 0 for j < 0, not the empty
    # product 1, so t^2 must not map to t^3
    with pytest.raises(DomainError, match=r"^delta_power needs j >= 0, "
                                          r"got j = -1$"):
        LaurentElt.monomial(1, 2).delta_power(-1)


def test_galois_action():
    x = mono(1, Fraction(1, 2), level=2)
    assert galois_act(1, x) == -x
    assert galois_act(0, x) == x
    assert galois_act(2, x) == x
    # integer exponents are fixed at any level
    y = mono(3, 1, level=2)
    assert galois_act(1, y) == y


def test_galois_is_ring_homomorphism():
    rng = random.Random(3)
    field = CycloField.get(24)
    for _ in range(25):
        x = LaurentElt(field, {
            Fraction(rng.randrange(-6, 7), 3): field.rational(rng.randrange(-3, 4))
            for _ in range(rng.randrange(4))}, level=3)
        y = LaurentElt(field, {
            Fraction(rng.randrange(-6, 7), 3): field.rational(rng.randrange(-3, 4))
            for _ in range(rng.randrange(4))}, level=3)
        assert galois_act(1, x * y) == galois_act(1, x) * galois_act(1, y)
        assert galois_act(1, x + y) == galois_act(1, x) + galois_act(1, y)


def test_galois_commutes_with_delta():
    rng = random.Random(5)
    field = CycloField.get(24)
    for g in range(4):
        for _ in range(10):
            x = LaurentElt(field, {
                Fraction(rng.randrange(-8, 9), 4):
                    field.rational(rng.randrange(-3, 4))
                for _ in range(rng.randrange(1, 4))}, level=4)
            assert galois_act(g, delta_t(x)) == delta_t(galois_act(g, x))


def test_units_and_inverse():
    u = mono(2, Fraction(3, 2))
    assert u.is_unit()
    assert u * u.inverse() == LaurentElt.one()
    v = mono(1, 1) + mono(1, 0)
    assert not v.is_unit()
    with pytest.raises(DomainError):
        v.inverse()


def test_subs_t_inverse():
    s = mono(2, 3)
    assert s.subs_t_inverse() == mono(2, -3)
    x = mono(1, 1) + mono(5, Fraction(-1, 2))
    assert x.subs_t_inverse() == mono(1, -1) + mono(5, Fraction(1, 2))


def test_level_tracking():
    x = mono(1, Fraction(1, 2))
    assert x.level == 2
    y = mono(1, Fraction(1, 3))
    assert (x * y).level == 6
    assert (x + y).level == 6
    with pytest.raises(DomainError, match="^exponents need level 2, which "
                       "does not divide the declared 3$"):
        LaurentElt(CycloField.get(24), {Fraction(1, 2): 1}, level=3)


def test_declared_level_affects_galois():
    # t over S_1 is Galois-fixed; t viewed in S_2 is still fixed, but
    # t^{1/2} genuinely moves.
    x2 = mono(1, 1, level=2)
    assert galois_act(1, x2) == x2
    half = mono(1, Fraction(1, 2), level=2)
    assert galois_act(1, half) == -half


def test_printing():
    assert str(mono(1, Fraction(1, 2))) == "t^{1/2}"
    assert str(mono(-1, 2) + mono(Fraction(3, 2), 0)) == "3/2 - t^{2}"
    assert str(LaurentElt.zero()) == "0"
    # a coefficient with more than one term is parenthesised
    assert str(LaurentElt(F, {1: 1 + F.zeta(), 0: 2})) == \
        "2 + (1 + zeta)*t^{1}"


def test_cancelling_laurent_sums_leave_no_key():
    one, t = LaurentElt.one(), LaurentElt.monomial(1, 1)
    assert (one + t + (2 - t)).terms == {Fraction(0): F.rational(3)}
    assert (t - t).terms == {}
    # (1 + t)(1 - t): the cross terms t and -t cancel
    assert ((one + t) * (one - t)).terms == {Fraction(0): F.one(),
                                             Fraction(2): -F.one()}


def test_constructor_merges_and_cancels_equal_exponents():
    # "1/2" and Fraction(1, 2) are different dict keys for one exponent
    got = LaurentElt(F, {"1/2": 3, Fraction(1, 2): -3, 2: 1, 3: 0})
    assert got.terms == {Fraction(2): F.one()}
    assert got.level == 1
    got = LaurentElt(F, {"1/2": 3, Fraction(1, 2): F.zeta(1)})
    assert got.terms == {HALF: F.zeta(1) + 3}


def test_coefficients_from_other_fields():
    i4 = CycloField.get(4).zeta(1)
    assert LaurentElt(F, {0: i4}).terms == {Fraction(0): F.zeta(6)}
    with pytest.raises(DomainError, match="zeta_5"):
        LaurentElt(F, {0: CycloField.get(5).zeta(1)})


def test_sums_and_products_across_fields_keep_the_field_check():
    # zeta_8 = zeta_24^3: an element over Q(zeta_8) embeds into Q(zeta_24)
    # on the right of a sum or product over Q(zeta_24), and a result over
    # Q(zeta_8) cannot hold the Q(zeta_24) terms
    F8, F5 = CycloField.get(8), CycloField.get(5)
    a = LaurentElt(F, {0: F.zeta(3), HALF: 1})
    b = LaurentElt(F8, {0: F8.zeta(1), 1: 2})
    got = a + b
    assert got.field is F and got.level == 2
    assert got.terms == {Fraction(0): F.zeta(3) * 2, HALF: F.one(),
                         Fraction(1): F.rational(2)}
    got = a * b
    assert got.field is F and got.level == 2
    assert got.terms == {Fraction(0): F.zeta(6), HALF: F.zeta(3),
                         Fraction(1): F.zeta(3) * 2,
                         Fraction(3, 2): F.rational(2)}
    for x in (a + b, a - b, a * b):
        assert all(c.field is F for c in x.terms.values())
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(ConductorError, match="^scalar from Q\\(zeta_24\\) "
                           "does not embed in Q\\(zeta_8\\)$"):
            op(b, a)
    c = LaurentElt(F5, {0: F5.zeta(1)})
    for x, y in ((a, c), (c, a)):
        with pytest.raises(ConductorError, match="^incompatible "
                           "conductors (24 and 5|5 and 24)$"):
            x * y


def test_galois_needs_a_level_dividing_the_conductor():
    with pytest.raises(DomainError,
                       match="^level 5 does not divide the conductor 24$"):
        LaurentElt(F, {Fraction(1, 5): 1}).galois(1)
