"""Exact arithmetic in the cyclotomic field Q(zeta_N).

A scalar is a sparse sum  sum_e c_e * zeta_N^e  with exact rational
coefficients, kept fully reduced modulo the N-th cyclotomic polynomial
(so 0 <= e < phi(N)).  The conductor N is fixed per engine instance;
every root of unity in play is a power of one primitive N-th root, so
compatibility  xi_{l*m}^l = xi_m  holds by construction.

Exact rationals follow one rule throughout the package (``_q``): an
integral value is held as an ``int`` and only a non-integral one as a
``Fraction``, since ``int`` arithmetic and hashing are much cheaper.  This
covers scalar coefficients and the t-exponents of ``core.ConfElt`` keys.
The two types compare and hash equal, so a value the rule misses is only
slower, never wrong.  Values a caller reads stay ``Fraction``:
``as_rational``, Laurent exponents, ``L0Spectrum`` eigenvalues and centroid
solution keys.  The ``linalg`` eliminator, the windowed centroid solve
and the lambda-bracket kernel (``core._bracket_terms``) hold their
rational scalars under the same rule, as Python numbers beside the
irrational ``CycloScalar`` ones: ``_lower`` turns a rational
``CycloScalar`` into its value, ``_q`` passes a ``CycloScalar`` through
and ``_add_to`` keeps an int or ``Fraction`` sum under the rule.
``_denominator`` reads the lcm of the denominators of any of these
scalars; the axiom checks and the centroid solve multiply their inputs by
it, so that their rational arithmetic runs on ints.  ``_ratio`` reads the
quotient of two ``CycloScalar``s off their coefficients when it is
rational; the centroid solve uses it to find coordinates that are rational
multiples of i.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import ConductorError, DomainError

__all__ = ["DEFAULT_CONDUCTOR", "CycloField", "CycloScalar", "root_of_unity"]

#: Conductor used when none is given.  Covers orders 1,2,3,4,6,8,12,24.
DEFAULT_CONDUCTOR = 24

#: Largest conductor a field may have.  Building Q(zeta_N) precomputes an
#: N x phi(N) rewrite table, which is most of the 19 ms a cold build takes
#: at the slowest conductor up to this bound (935; a fresh process, median
#: of three runs, CPython 3.11) and grows past 20 s by N = 30030.
MAX_CONDUCTOR = 1000


def _q(c):
    """The exact rational c as an int when it is integral, else a Fraction.

    A ``CycloScalar`` is returned as it is, so a product of mixed exact
    scalars takes the rule without a type test at the caller.
    """
    if c.__class__ is int:
        return c
    if c.__class__ is not Fraction:
        if c.__class__ is CycloScalar:
            return c
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _lower(v):
    """The exact scalar v under the ``_q`` rule: a rational CycloScalar as
    its int or Fraction, any other value as it is."""
    if v.__class__ is CycloScalar:
        c = v.coeffs
        if not c:
            return 0
        if len(c) == 1 and 0 in c:
            return c[0]  # held under the rule already
    return v


def _ratio(v, w):
    """The rational v / w of two nonzero CycloScalars of one field, or
    None when it is irrational.  The quotient is rational exactly when the
    reduced coefficients are proportional, so it is read off them with no
    field product."""
    vc, wc = v.coeffs, w.coeffs
    if vc.keys() != wc.keys():
        return None
    e, c = next(iter(wc.items()))
    r = Fraction(vc[e], c)
    for e, c in wc.items():
        if vc[e] != r * c:
            return None
    return _q(r)


def _denominator(v):
    """The lcm of the denominators of the exact scalar v: an int or a
    Fraction, or the rational coefficients of a ``CycloScalar``."""
    if v.__class__ is CycloScalar:
        return math.lcm(*(c.denominator for c in v.coeffs.values()))
    return v.denominator


def _add_to(acc, key, val):
    """Add val into the sparse map acc at key, dropping the key at zero.

    An int or Fraction sum is stored under the ``_q`` rule.  Any other value
    is duck-typed on ``+`` and ``is_zero()``, so the values may be scalars,
    conformal elements or anything else with both.
    """
    s = acc.get(key)
    s = val if s is None else s + val
    if s.__class__ is Fraction:
        if s.denominator != 1:  # nonzero, and under the rule already
            acc[key] = s
            return
        s = s.numerator
    if not s if s.__class__ is int else s.is_zero():
        acc.pop(key, None)
    else:
        acc[key] = s


def _prime_factors(n):
    """The distinct primes dividing n, in increasing order."""
    primes = []
    p = 2
    while p * p <= n:
        if not n % p:
            primes.append(p)
            while not n % p:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Integer coefficients (little-endian) of the n-th cyclotomic polynomial.

    Phi_n(x) = Phi_r(x^(n/r)) for the radical r of n, and for r > 1
    Phi_r = prod_{d | r} (1 - x^d)^mu(r/d), whose factors' signs cancel
    since the mu(r/d) sum to 0.  Phi_r has degree phi(r), so the product
    is taken on power series truncated past that degree: one multiply by
    1 - x^d, or one exact division by it, per divisor d of r.
    """
    if n == 1:
        return (-1, 1)
    primes = _prime_factors(n)
    r = math.prod(primes)
    deg = math.prod(p - 1 for p in primes)
    c = [1] + [0] * deg
    # the divisors d of the squarefree r, with mu(r/d) = (-1)^(primes left out)
    divisors = [(1, len(primes) % 2)]
    for p in primes:
        divisors += [(d * p, 1 - odd) for d, odd in divisors]
    for d, odd in divisors:
        if d > deg:
            continue  # 1 - x^d is 1 up to degree phi(r)
        if odd:  # divide by 1 - x^d: add the coefficient d lower
            for k in range(d, deg + 1):
                c[k] += c[k - d]
        else:  # multiply by 1 - x^d
            for k in range(deg, d - 1, -1):
                c[k] -= c[k - d]
    step = n // r
    out = [0] * (deg * step + 1)
    out[::step] = c
    return tuple(out)


class CycloField:
    """The field Q(zeta_N) with a precomputed power-reduction table.

    Instances are interned per conductor: ``CycloField.get(24)`` always
    returns the same object.
    """

    _instances = {}

    def __init__(self, conductor):
        if conductor < 1:
            raise ConductorError("conductor must be positive, got %r" % conductor)
        if conductor > MAX_CONDUCTOR:
            raise ConductorError("conductor %d exceeds the bound %d"
                                 % (conductor, MAX_CONDUCTOR))
        self.conductor = conductor
        poly = cyclotomic_poly(conductor)
        self.degree = len(poly) - 1
        # zeta^degree = -(lower part of the minimal polynomial)
        base = {e: -poly[e] for e in range(self.degree) if poly[e]}
        rewrite = {self.degree: base}
        for e in range(self.degree + 1, conductor):
            prev = rewrite[e - 1]
            cur = {}
            for i, c in prev.items():
                if i + 1 < self.degree:
                    cur[i + 1] = cur.get(i + 1, 0) + c
                else:
                    for bi, bc in base.items():
                        cur[bi] = cur.get(bi, 0) + c * bc
            rewrite[e] = {i: c for i, c in cur.items() if c}
        self._rewrite = rewrite
        self._zero = CycloScalar(self, {})
        self._one = CycloScalar(self, {0: 1})

    @classmethod
    def get(cls, conductor):
        field = cls._instances.get(conductor)
        if field is None:
            field = cls._instances[conductor] = cls(conductor)
        return field

    def __repr__(self):
        return "CycloField(%d)" % self.conductor

    def reduce_terms(self, terms):
        """Reduce a raw {exponent: rational} map modulo the minimal
        polynomial; the coefficients come out under the ``_q`` rule."""
        out = {}
        for e, c in terms.items():
            if not c:
                continue
            e %= self.conductor
            if e < self.degree:
                out[e] = out.get(e, 0) + c
            else:
                for i, w in self._rewrite[e].items():
                    out[i] = out.get(i, 0) + c * w
        return {e: _q(c) for e, c in out.items() if c}

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def rational(self, value):
        value = _q(value)
        if not value:
            return self._zero
        return CycloScalar(self, {0: value})

    def scalar(self, value):
        """The value as a scalar of this field.

        A scalar of this field is returned as it is and one of a subfield
        Q(zeta_d), d | N, is embedded; a scalar of any other field raises
        ConductorError.  Every other value is a rational, read by Fraction.
        """
        if isinstance(value, CycloScalar):
            if value.field is self:
                return value
            if self.conductor % value.field.conductor:
                raise ConductorError(
                    "scalar from Q(zeta_%d) does not embed in Q(zeta_%d)"
                    % (value.field.conductor, self.conductor))
            return value._embed(self)
        return self.rational(value)

    def zeta(self, k=1):
        """The scalar zeta_N^k."""
        return CycloScalar(self, self.reduce_terms({k: 1}))

    def element(self, terms):
        """Build a scalar from a raw {exponent: rational} map."""
        return CycloScalar(
            self, self.reduce_terms({e: _q(c) for e, c in terms.items()}))

    def root_of_unity(self, m):
        """The compatible primitive m-th root xi_m = zeta_N^{N/m}."""
        if m < 1 or self.conductor % m:
            raise ConductorError(
                "order %d does not divide the conductor %d" % (m, self.conductor))
        return self.zeta(self.conductor // m)


def root_of_unity(m, conductor=DEFAULT_CONDUCTOR):
    """Module-level convenience wrapper around :meth:`CycloField.root_of_unity`."""
    return CycloField.get(conductor).root_of_unity(m)


class CycloScalar:
    """An element of Q(zeta_N), immutable after construction.

    ``coeffs`` maps exponents 0 <= e < phi(N) to nonzero rationals, each
    an ``int`` when integral and a ``Fraction`` otherwise (``_q``).  The
    ring operations may return one of their operands unchanged (adding
    or subtracting zero, multiplying by zero), so a result can share its
    ``coeffs`` dict with an input: ``coeffs`` must never be mutated.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    # -- coercion -----------------------------------------------------

    def _pair(self, other):
        """Coerce (self, other) into a common field; returns (a, b) or None."""
        if isinstance(other, CycloScalar):
            if other.field is self.field:
                return self, other
            na, nb = self.field.conductor, other.field.conductor
            if na % nb == 0:
                return self, other._embed(self.field)
            if nb % na == 0:
                return self._embed(other.field), other
            raise ConductorError(
                "incompatible conductors %d and %d" % (na, nb))
        if isinstance(other, (int, Fraction)):
            return self, self.field.rational(other)
        return None

    def _embed(self, field):
        scale = field.conductor // self.field.conductor
        return field.element({e * scale: c for e, c in self.coeffs.items()})

    # -- queries ------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def as_rational(self):
        """The value as a Fraction if it is rational, else None."""
        if not self.coeffs:
            return Fraction(0)
        if set(self.coeffs) == {0}:
            return Fraction(self.coeffs[0])
        return None

    def __bool__(self):
        return bool(self.coeffs)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if not b.coeffs:
            return a
        if not a.coeffs:
            return b
        out = dict(a.coeffs)
        for e, c in b.coeffs.items():
            if e in out:
                s = out[e] + c
                if s:
                    out[e] = _q(s)
                else:
                    del out[e]
            else:
                out[e] = c
        return CycloScalar(a.field, out)

    __radd__ = __add__

    def __neg__(self):
        return CycloScalar(self.field, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        # same-field scalars first: isinstance against Fraction is an ABC check
        if other.__class__ is CycloScalar and other.field is self.field:
            a, b = self, other
        elif isinstance(other, (int, Fraction)):
            if not other:
                return self.field.zero()
            f = _q(other)
            return CycloScalar(self.field,
                               {e: _q(c * f) for e, c in self.coeffs.items()})
        else:
            pair = self._pair(other)
            if pair is None:
                return NotImplemented
            a, b = pair
        ac, bc = a.coeffs, b.coeffs
        if not ac:
            return a
        if not bc:
            return b
        # a rational factor scales the other operand's reduced coefficients
        if len(bc) == 1 and 0 in bc:
            f = bc[0]
            return CycloScalar(a.field, {e: _q(c * f) for e, c in ac.items()})
        if len(ac) == 1 and 0 in ac:
            f = ac[0]
            return CycloScalar(a.field, {e: _q(f * c) for e, c in bc.items()})
        raw = {}
        for e1, c1 in ac.items():
            for e2, c2 in bc.items():
                e = e1 + e2
                raw[e] = raw.get(e, 0) + c1 * c2
        return CycloScalar(a.field, a.field.reduce_terms(raw))

    __rmul__ = __mul__

    def inverse(self):
        if not self.coeffs:
            raise DomainError("division by zero in Q(zeta_%d)" % self.field.conductor)
        if len(self.coeffs) == 1:
            # (c zeta^e)^-1 = c^-1 zeta^-e; c may be an int, whose true
            # division is a float
            ((e, c),) = self.coeffs.items()
            inv = Fraction(1) / c
            return (self.field.element({-e: inv}) if e
                    else self.field.rational(inv))
        # x times its other conjugates sigma_k(x) (zeta -> zeta^k, k a
        # unit mod N) is the norm N(x), a nonzero rational
        field = self.field
        n = field.conductor
        rest = field.one()
        for k in range(2, n):
            if math.gcd(k, n) == 1:
                rest = rest * CycloScalar(field, field.reduce_terms(
                    {e * k: c for e, c in self.coeffs.items()}))
        norm = (self * rest).as_rational()
        assert norm, "nonzero field element must have a nonzero rational norm"
        return rest * (Fraction(1) / norm)

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a.coeffs == b.coeffs

    __hash__ = None  # mutable-dict backing; not meant to be a dict key

    # -- printing -----------------------------------------------------

    def __str__(self):
        return _signed_sum([
            _times(str(c), "zeta" if e == 1 else "zeta^%d" % e) if e
            else str(c) for e, c in sorted(self.coeffs.items())])

    def __repr__(self):
        return "<CycloScalar %s (N=%d)>" % (self, self.field.conductor)


def _signed_sum(parts):
    """Join printed terms into a sum, a leading '-' becoming ' - '; no
    terms print as 0."""
    if not parts:
        return "0"
    text = parts[0]
    for p in parts[1:]:
        text += " - " + p[1:] if p.startswith("-") else " + " + p
    return text


def _times(cs, body):
    """The printed product c*body from the printed coefficient cs; a
    coefficient of 1 or -1 is written as a sign."""
    if cs == "1":
        return body
    if cs == "-1":
        return "-" + body
    return "%s*%s" % (cs, body)


def _scaled_terms(coeff, body):
    """The printed terms c*body, one per monomial c of the scalar coeff."""
    return [_times(str(CycloScalar(coeff.field, {e: c})), body)
            for e, c in sorted(coeff.coeffs.items())]


def _same_field(field, other, what, owner):
    """Refuse ``what``, an input over ``field``, for an ``owner`` over the
    field ``other``."""
    if field is not other:
        raise DomainError("%s lives over Q(zeta_%d), the %s over Q(zeta_%d)"
                          % (what, field.conductor, owner, other.conductor))


def _declared_level(level, needed, what):
    """The level of the ring S_m an object is declared over.

    A declared level must be a multiple of the level ``needed`` by its
    parts, which ``what`` names in the error; with none declared it is
    the needed level.
    """
    if level is None:
        return needed
    if level % needed:
        raise DomainError(
            "%s need level %d, which does not divide the declared %d"
            % (what, needed, level))
    return level
