"""Property tests for Q(zeta_N): field laws, an independent oracle, and the
coefficient representation rule.

The oracle is sympy's polynomial remainder modulo the N-th cyclotomic
polynomial, which shares no code with ``CycloField.reduce_terms``.  The
representation rule: every stored coefficient is an ``int`` when integral
and a ``Fraction`` with denominator > 1 otherwise, never zero, a float or a
``bool``.  The same rule holds the t-exponents of ``ConfElt`` keys, while
every value the library hands back stays a ``Fraction``.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csalg.algebras import make_n2, make_n4  # noqa: E402
from csalg.centroid import centroid_basis  # noqa: E402
from csalg.cyclotomic import CycloField, cyclotomic_poly  # noqa: E402
from csalg.dsl import parse_algebra  # noqa: E402
from csalg.laurent import LaurentElt  # noqa: E402
from csalg.loops import eigenspaces, l0_spectrum  # noqa: E402
from csalg.morphisms import n2_omega, n4_auto  # noqa: E402
from test_dsl import data_text  # noqa: E402

CONDUCTORS = (1, 3, 4, 8, 12, 24)
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)

_X = sympy.symbols("x")

rationals = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)))


@st.composite
def triples(draw):
    """Three raw elements over one conductor."""
    n = draw(st.sampled_from(CONDUCTORS))
    raw = st.dictionaries(st.integers(0, n - 1), rationals, max_size=4)
    return n, draw(raw), draw(raw), draw(raw)


def _poly(raw):
    return sum((sympy.Rational(c.numerator, c.denominator) * _X ** e
                for e, c in raw.items()), sympy.Integer(0))


def _oracle(n, poly):
    """The reduced coefficient map of poly modulo the n-th cyclotomic
    polynomial, by sympy."""
    phi = sympy.cyclotomic_poly(n, _X)
    rem = sympy.Poly(sympy.rem(sympy.expand(poly), phi, _X), _X, domain="QQ")
    out = {}
    for (e,), c in rem.terms():
        if c:
            out[e] = Fraction(int(c.numerator), int(c.denominator))
    return out


def _assert_rule(x):
    for e, c in x.coeffs.items():
        assert type(c) in (int, Fraction), (e, c, type(c))
        assert c != 0, (e, c)
        if type(c) is Fraction:
            assert c.denominator > 1, (e, c)


def test_a_rational_is_held_by_the_rule():
    field = CycloField.get(12)
    assert type(field.rational(Fraction(6, 3)).coeffs[0]) is int
    assert type(field.rational(True).coeffs[0]) is int
    assert field.rational(Fraction(1, 2)).coeffs[0] == Fraction(1, 2)
    _assert_rule(field.zeta(5) * Fraction(2, 4) * 2)


@PROPERTY
@given(triples())
def test_field_laws(case):
    n, ra, rb, rc = case
    field = CycloField.get(n)
    a, b, c = (field.element(r) for r in (ra, rb, rc))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) - b == a
    if not a.is_zero():
        assert a * a.inverse() == field.one()


@PROPERTY
@example((12, {0: 3}, {}, {}))
@example((24, {0: Fraction(-3, 2)}, {}, {}))
@given(triples())
def test_inverse_is_exact(case):
    n, ra, _, _ = case
    field = CycloField.get(n)
    a = field.element(ra)
    if a.is_zero():
        return
    phi = sympy.cyclotomic_poly(n, _X)
    want = sympy.invert(sympy.rem(_poly(ra), phi, _X), phi, _X)
    assert a.inverse().coeffs == _oracle(n, want)


@PROPERTY
@given(triples())
def test_ring_operations_match_sympy(case):
    n, ra, rb, _ = case
    field = CycloField.get(n)
    a, b = field.element(ra), field.element(rb)
    assert a.coeffs == _oracle(n, _poly(ra))
    assert (a * b).coeffs == _oracle(n, _poly(ra) * _poly(rb))
    assert (a + b).coeffs == _oracle(n, _poly(ra) + _poly(rb))
    assert (a - b).coeffs == _oracle(n, _poly(ra) - _poly(rb))


@PROPERTY
@example((4, {0: Fraction(1, 2), 1: Fraction(1, 2)},
          {0: Fraction(1, 2), 1: Fraction(-1, 2)}, {}), Fraction(2, 3))
@given(triples(), rationals)
def test_every_result_keeps_the_representation_rule(case, r):
    n, ra, rb, _ = case
    field = CycloField.get(n)
    a, b = field.element(ra), field.element(rb)
    results = [a, b, a + b, a - b, -a, a * b, a * r, r * a, a + r, r - a,
               field.rational(r), a * field.rational(r)]
    if not a.is_zero():
        results.append(a.inverse())
    for x in results:
        _assert_rule(x)


def test_cyclotomic_polynomials_match_sympy():
    # sympy's integer cyclotomic polynomial, big-endian, shares no code with
    # the product over the radical; besides every n <= 210, the conductors
    # up to MAX_CONDUCTOR with the most divisors, the most prime factors
    # or the largest prime
    from sympy.polys.domains import ZZ
    from sympy.polys.specialpolys import dup_zz_cyclotomic_poly

    for n in [*range(1, 211), 840, 910, 924, 935, 960, 990, 997]:
        want = tuple(int(c) for c in reversed(dup_zz_cyclotomic_poly(n, ZZ)))
        assert cyclotomic_poly(n) == want, n


def test_public_values_stay_fractions_and_internal_keys_are_ints():
    field = CycloField.get(24)
    assert type(field.rational(2).as_rational()) is Fraction
    assert type(field.zero().as_rational()) is Fraction

    x = LaurentElt(field, {2: 1, Fraction(1, 2): field.one()})
    assert {type(q) for q in x.terms} == {Fraction}
    assert {type(q) for q in (x * x).delta().terms} == {Fraction}

    N4 = make_n4()
    z3 = N4.field.root_of_unity(3)
    loop = eigenspaces(
        N4, n4_auto([[1, 0], [0, 1]], [[z3, 0], [0, z3 ** 2]], N4), 3)
    odd, even = l0_spectrum(loop, "odd", 1), l0_spectrum(loop, "even", 1)
    assert {type(v) for v in odd.eigenvalues | even.eigenvalues} == {Fraction}
    assert repr(odd) == ("L0Spectrum([Fraction(-1, 6), Fraction(1, 6), "
                         "Fraction(5, 6), Fraction(7, 6)])")
    assert repr(even) == ("L0Spectrum([Fraction(-1, 1), Fraction(0, 1), "
                          "Fraction(1, 1), Fraction(2, 1)])")

    N2 = make_n2()
    solutions = centroid_basis(eigenspaces(N2, n2_omega(N2), 2), 3, 1)
    assert len(solutions) == 3
    for chi in solutions:
        keys = {k for pair in chi.entries for k in pair}
        assert {type(q) for _, _, q in keys} == {Fraction}
        for dkey in {d for d, _ in chi.entries}:
            assert {type(q) for _, _, q in chi.image(dkey)} <= {Fraction}

    A = parse_algebra(data_text("n2.csa"))
    qs = {q for poly in A.table.values() for e in poly.coeffs.values()
          for _, _, q in e.terms}
    qs |= {q for _, _, q in A.elt("L", q=Fraction(4, 2)).shift_t(
        Fraction(1, 2)).shift_t(Fraction(1, 2)).terms}
    assert qs and {type(q) for q in qs} == {int}
