import math
import random
from fractions import Fraction

import pytest

from csalg.cyclotomic import (MAX_CONDUCTOR, CycloField, _add_to, _ratio,
                              cyclotomic_poly, root_of_unity)
from csalg.errors import ConductorError, DomainError


def test_cyclotomic_polynomials_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


def test_degrees_match_euler_phi():
    # phi(24) = 8, phi(120) = 32
    assert CycloField.get(24).degree == 8
    assert CycloField.get(120).degree == 32


def test_root_of_unity_basics():
    assert root_of_unity(2) == -1
    assert root_of_unity(1) == 1
    z3 = root_of_unity(3)
    assert z3 * z3 + z3 + 1 == 0
    z4 = root_of_unity(4)
    assert z4 * z4 == -1


def test_root_compatibility_chain():
    # xi_{lm}^l = xi_m for every divisor pair lm | N
    field = CycloField.get(24)
    for m in (1, 2, 3, 4, 6, 8, 12, 24):
        for k in (1, 2, 3, 4, 6, 8, 12, 24):
            if k % m == 0 and 24 % k == 0:
                ell = k // m
                assert field.root_of_unity(k) ** ell == field.root_of_unity(m)


def test_root_of_unity_order_is_exact():
    field = CycloField.get(24)
    for m in (2, 3, 4, 6, 8, 12, 24):
        xi = field.root_of_unity(m)
        assert xi ** m == 1
        for d in range(1, m):
            if m % d == 0:
                assert xi ** d != 1


def test_conductor_mismatch_raises():
    with pytest.raises(ConductorError):
        root_of_unity(5, conductor=24)
    with pytest.raises(ConductorError):
        root_of_unity(7, conductor=120)


def _random_scalar(field, rng, size=3):
    terms = {}
    for _ in range(rng.randrange(size + 1)):
        e = rng.randrange(field.conductor)
        terms[e] = Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
    return field.element(terms)


def test_field_axioms_sampled():
    rng = random.Random(20240817)
    field = CycloField.get(24)
    for _ in range(60):
        a = _random_scalar(field, rng)
        b = _random_scalar(field, rng)
        c = _random_scalar(field, rng)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_inverse_sampled():
    rng = random.Random(11)
    field = CycloField.get(24)
    found = 0
    while found < 25:
        a = _random_scalar(field, rng)
        if a.is_zero():
            continue
        found += 1
        assert a * a.inverse() == 1
    with pytest.raises(DomainError):
        field.zero().inverse()


def test_inverse_at_every_small_conductor():
    # the inverse is a product of Galois conjugates over the norm; check it
    # where the unit group is not cyclic and where N = 2 mod 4
    rng = random.Random(12)
    for n in (3, 5, 6, 8, 9, 10, 12, 15, 20, 30):
        field = CycloField.get(n)
        for _ in range(8):
            a = _random_scalar(field, rng, size=4)
            if not a.is_zero():
                assert a * a.inverse() == 1, (n, a)


def test_conductor_bound():
    with pytest.raises(ConductorError, match="1001.*1000"):
        CycloField.get(1001)
    assert 1001 not in CycloField._instances
    try:
        assert CycloField.get(MAX_CONDUCTOR).degree == 400
    finally:
        CycloField._instances.pop(MAX_CONDUCTOR, None)


def test_conductor_must_be_positive():
    for n in (0, -3):
        with pytest.raises(ConductorError,
                           match="conductor must be positive, got %d" % n):
            CycloField.get(n)
        assert n not in CycloField._instances


def test_a_non_number_operand_is_not_implemented():
    z = CycloField.get(24).zeta()
    for op in ("__add__", "__sub__", "__mul__", "__truediv__", "__eq__"):
        assert getattr(z, op)("zeta") is NotImplemented, op
    with pytest.raises(TypeError):
        z + "zeta"
    with pytest.raises(TypeError):
        None * z
    assert z != "zeta"


def test_inverse_of_root_is_negative_power():
    field = CycloField.get(24)
    z = field.zeta()
    assert z.inverse() == field.zeta(-1)
    assert field.zeta(7).inverse() == field.zeta(17)
    assert z ** -3 == (z ** 3).inverse() == field.zeta(21)


def _norm_inverse(a):
    """a^-1 as the product of the other Galois conjugates of a over the
    norm, each conjugate zeta -> zeta^k built from the coefficients."""
    field = a.field
    n = field.conductor
    rest = field.one()
    for k in range(2, n):
        if math.gcd(k, n) == 1:
            rest = rest * field.element(
                {e * k: c for e, c in a.coeffs.items()})
    norm = (a * rest).as_rational()
    assert norm
    return rest * (1 / norm)


def test_monomial_inverse_matches_the_norm_inverse():
    # c zeta^e is inverted as c^-1 zeta^-e, on every power basis exponent
    for n in (1, 3, 4, 8, 12, 24):
        field = CycloField.get(n)
        for e in range(field.degree):
            for c in (1, -2, Fraction(3, 5)):
                a = field.element({e: c})
                assert list(a.coeffs) == [e]
                inv = a.inverse()
                assert inv == _norm_inverse(a), (n, e, c)
                assert a * inv == field.one(), (n, e, c)


def test_reduction_beyond_degree():
    # zeta_24^8 and above must reduce to the power basis; check via minimal
    # polynomial Phi_24 = x^8 - x^4 + 1, so zeta^8 = zeta^4 - 1.
    field = CycloField.get(24)
    assert field.zeta(8) == field.zeta(4) - 1
    assert field.zeta(24) == 1
    assert field.zeta(25) == field.zeta(1)


def test_embedding_across_conductors():
    a = CycloField.get(12).root_of_unity(3)
    b = CycloField.get(24).root_of_unity(3)
    assert a == b
    with pytest.raises(ConductorError):
        CycloField.get(8).zeta() * CycloField.get(12).zeta()


def test_as_rational():
    field = CycloField.get(24)
    assert field.rational(Fraction(3, 2)).as_rational() == Fraction(3, 2)
    assert field.zeta(3).as_rational() is None
    assert (field.zeta(3) * field.zeta(-3)).as_rational() == 1


def test_printing():
    field = CycloField.get(24)
    assert str(field.zero()) == "0"
    assert str(field.rational(-2)) == "-2"
    assert str(field.zeta(5)) == "zeta^5"
    assert str(1 - field.zeta(3)) == "1 - zeta^3"


# -- exhaustive check of add/sub/mul against schoolbook arithmetic ----------

# Phi_N, little-endian, written out by hand for the conductors swept below
PHI = {1: (-1, 1), 2: (1, 1), 3: (1, 1, 1), 4: (1, 0, 1), 8: (1, 0, 0, 0, 1),
       12: (1, 0, -1, 0, 1), 24: (1, 0, 0, 0, -1, 0, 0, 0, 1)}
SWEPT = (1, 2, 3, 4, 8, 12, 24)


def _oracle_reduce(raw, n):
    """Remainder of a raw {exponent: coefficient} polynomial modulo Phi_n."""
    phi = PHI[n]
    d = len(phi) - 1
    coeffs = [Fraction(0)] * (max(list(raw) + [d]) + 1)
    for e, c in raw.items():
        coeffs[e] += c
    for i in range(len(coeffs) - 1, d - 1, -1):
        c = coeffs[i]
        if c:
            for j in range(d + 1):
                if phi[j]:
                    coeffs[i - d + j] -= c * phi[j]
    return {e: c for e, c in enumerate(coeffs[:d]) if c}


def _oracle_add(x, y, sign=1):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return out


def _oracle_mul(x, y):
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return out


def _operands(n, powers=None):
    """Raw polynomials (exponents below n) covering every fast path.

    They hold zeta^k for every k in ``powers``, by default every k < n.
    """
    half = Fraction(1, 2)
    raws = [{}, {0: Fraction(1)}, {0: Fraction(-1)}, {0: half}]
    raws += [{k: Fraction(1)} for k in (range(n) if powers is None else powers)]
    raws += [{0: Fraction(1), 1 % n: Fraction(1)},
             {(n - 1) % n: Fraction(-3), n // 2: half},
             {n // 3: Fraction(2), n // 4: Fraction(-1, 3)},
             {0: half, (n - 1) % n: Fraction(1)}]
    return raws


def test_ring_operations_match_schoolbook_arithmetic():
    for n in SWEPT:
        assert cyclotomic_poly(n) == PHI[n]
        field = CycloField.get(n)
        raws = _operands(n)
        scalars = [field.element(raw) for raw in raws]
        snapshots = [dict(s.coeffs) for s in scalars]
        for raw, s in zip(raws, scalars):
            assert s.coeffs == _oracle_reduce(raw, n)
        for rx, x in zip(raws, scalars):
            for ry, y in zip(raws, scalars):
                where = (n, rx, ry)
                assert (x + y).coeffs == _oracle_reduce(
                    _oracle_add(rx, ry), n), where
                assert (x - y).coeffs == _oracle_reduce(
                    _oracle_add(rx, ry, -1), n), where
                assert (x * y).coeffs == _oracle_reduce(
                    _oracle_mul(rx, ry), n), where
            for r in (0, 1, -2, Fraction(1, 2)):
                rr = {0: Fraction(r)}
                assert (x + r).coeffs == (r + x).coeffs == _oracle_reduce(
                    _oracle_add(rx, rr), n)
                assert (x - r).coeffs == _oracle_reduce(
                    _oracle_add(rx, rr, -1), n)
                assert (r - x).coeffs == _oracle_reduce(
                    _oracle_add(rr, rx, -1), n)
                assert (x * r).coeffs == (r * x).coeffs == _oracle_reduce(
                    _oracle_mul(rx, rr), n)
        # results may share a dict with an operand; no operand may change
        assert [s.coeffs for s in scalars] == snapshots


def test_mixed_conductors_embed_and_agree():
    for small in SWEPT:
        for big in SWEPT:
            if small >= big or big % small:
                continue
            scale = big // small
            fs, fb = CycloField.get(small), CycloField.get(big)
            bigs = [(ry, fb.element(ry), _oracle_reduce(ry, big))
                    for ry in _operands(big, powers=(1, big - 1))]
            for rx in _operands(small, powers=(1, small - 1)):
                x = fs.element(rx)
                lifted = {e * scale: c for e, c in rx.items()}
                ox = _oracle_reduce(lifted, big)
                for ry, y, oy in bigs:
                    where = (small, big, rx, ry)
                    assert (x == y) == (y == x) == (ox == oy), where
                    for got in (x + y, y + x):
                        assert got.field is fb
                        assert got.coeffs == _oracle_reduce(
                            _oracle_add(lifted, ry), big), where
                    assert (x - y).coeffs == _oracle_reduce(
                        _oracle_add(lifted, ry, -1), big), where
                    assert (y - x).coeffs == _oracle_reduce(
                        _oracle_add(ry, lifted, -1), big), where
                    for got in (x * y, y * x):
                        assert got.field is fb
                        assert got.coeffs == _oracle_reduce(
                            _oracle_mul(lifted, ry), big), where


def test_subtracting_zero_returns_the_operand_itself():
    # the values of every difference are pinned by the two sweeps above;
    # the shortcut that hands back an operand is what this test pins
    field = CycloField.get(24)
    x = field.zeta(5) + Fraction(1, 2)
    for zero in (field.zero(), CycloField.get(12).zero(), 0, Fraction(0)):
        assert x - zero is x
        assert (zero - x).coeffs == (-x).coeffs
    zero = field.zero()
    assert zero - zero is zero


def _zeta24(e):
    """zeta_24^e by hand: zeta^12 = -1 and zeta^8 = zeta^4 - 1."""
    e %= 24
    sign = -1 if e >= 12 else 1
    e %= 12
    if e < 8:
        return {e: Fraction(sign)}
    return {e - 4: Fraction(sign), e - 8: Fraction(-sign)}


def test_scalar_of_numbers_and_own_scalars():
    field = CycloField.get(24)
    assert field.scalar(3).coeffs == {0: Fraction(3)}
    assert field.scalar(Fraction(-2, 7)).coeffs == {0: Fraction(-2, 7)}
    assert field.scalar(0).coeffs == {}
    z = field.zeta(5)
    assert field.scalar(z) is z


def test_scalar_embeds_every_subfield():
    field = CycloField.get(24)
    for d in (1, 2, 3, 4, 6, 8, 12):
        sub = CycloField.get(d)
        for k in range(d):
            got = field.scalar(sub.zeta(k))
            assert got.field is field
            assert got.coeffs == _zeta24(24 // d * k), (d, k)
        # a sum embeds term by term: 2 - zeta_d / 3
        got = field.scalar(sub.rational(2) - sub.zeta(1) * Fraction(1, 3))
        want = {0: Fraction(2)}
        for e, c in _zeta24(24 // d).items():
            want[e] = want.get(e, 0) - c / 3
        assert got.coeffs == {e: c for e, c in want.items() if c}, d


def test_scalar_refuses_a_field_that_does_not_embed():
    with pytest.raises(ConductorError, match=r"Q\(zeta_5\).*Q\(zeta_24\)"):
        CycloField.get(24).scalar(CycloField.get(5).zeta(1))
    with pytest.raises(ConductorError, match=r"Q\(zeta_24\).*Q\(zeta_8\)"):
        CycloField.get(8).scalar(CycloField.get(24).zeta(1))


def test_add_to_drops_cancelled_keys():
    field = CycloField.get(24)
    z = field.zeta(1)
    acc = {}
    _add_to(acc, "a", z)
    _add_to(acc, "b", field.rational(2))
    _add_to(acc, "c", field.zero())
    assert list(acc) == ["a", "b"]
    _add_to(acc, "a", -z)
    assert acc == {"b": field.rational(2)}
    _add_to(acc, "b", field.rational(3))
    assert acc["b"].coeffs == {0: Fraction(5)}


def test_add_to_keeps_rational_sums_under_the_q_rule():
    # an integral sum of Fractions is stored as an int, a zero one dropped
    half = Fraction(1, 2)
    acc = {}
    _add_to(acc, "a", half)
    _add_to(acc, "a", half)
    _add_to(acc, "b", Fraction(2, 3))
    _add_to(acc, "b", Fraction(-2, 3))
    _add_to(acc, "c", 0)
    assert acc == {"a": 1} and acc["a"].__class__ is int
    _add_to(acc, "a", half)
    assert acc["a"] == Fraction(3, 2)
    _add_to(acc, "a", -1)
    _add_to(acc, "a", -half)
    assert acc == {}
    # a CycloScalar beside a Python rational sums into the field
    field = CycloField.get(24)
    _add_to(acc, "z", 2)
    _add_to(acc, "z", field.zeta(1))
    assert acc["z"] == field.zeta(1) + field.rational(2)
    _add_to(acc, "z", -field.zeta(1))
    assert acc["z"] == 2


def test_ratio_is_rational_exactly_on_proportional_coefficients():
    # oracle: the field product r * w for a rational quotient, and the
    # field quotient for an irrational one
    F = CycloField.get(24)
    i = F.root_of_unity(4)
    w = F.element({1: 1, 3: 2})
    for r in (3, Fraction(-5, 7)):
        assert _ratio(i * r, i) == r
        assert _ratio(w * r, w) == r
    got = _ratio(w * 4, w)
    assert got == 4 and got.__class__ is int
    # other exponents, or the same ones with coefficients not in proportion
    for v, u in ((i + 1, i), (F.zeta(3), i), (F.element({1: 1, 3: 3}), w)):
        assert (v / u).as_rational() is None
        assert _ratio(v, u) is None
