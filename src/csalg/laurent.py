"""The differential Laurent rings S_m = k[t^{1/m}, t^{-1/m}].

Elements are sparse maps from rational exponents to cyclotomic scalars.
The derivation is d/dt, and the cyclic Galois group of S_m over
S_1 = k[t, t^{-1}] acts by  t^{1/m} -> xi_m * t^{1/m}.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm

from .cyclotomic import (DEFAULT_CONDUCTOR, CycloField, CycloScalar,
                         _add_to, _declared_level, _q, _signed_sum, _times)
from .errors import DomainError


def binom_frac(q, j):
    """Generalized binomial C(q, j) = q(q-1)...(q-j+1)/j! for rational q."""
    q = _q(q)
    if q.__class__ is int and j >= 0:
        # C(-p, j) = (-1)^j C(p + j - 1, j) for the negative integers
        if q < 0:
            return Fraction((-1) ** j * comb(j - q - 1, j))
        return Fraction(comb(q, j))
    out = Fraction(1)
    for i in range(j):
        out = out * (q - i) / (i + 1)
    return out


class LaurentElt:
    """An element of S_m over Q(zeta_N).

    ``terms`` maps exponents (Fractions with denominator dividing the
    level) to nonzero scalars.  The level records which ring S_m the
    element is considered to live in; it may be coarser than the
    exponents strictly require, which matters for the Galois action.
    """

    __slots__ = ("field", "level", "terms")

    def __init__(self, field, terms, level=None):
        clean = {}
        for q, c in terms.items():
            if q.__class__ is not Fraction:
                q = Fraction(q)
            if c.__class__ is not CycloScalar or c.field is not field:
                c = field.scalar(c)
            _add_to(clean, q, c)
        self.field = field
        self.terms = clean
        self.level = _declared_level(
            level, lcm(1, *(q.denominator for q in clean)), "exponents")

    @classmethod
    def _trusted(cls, field, terms, level):
        """An element on ``terms`` as given, for callers whose terms are
        valid already: Fraction exponents whose denominators divide
        ``level``, each with a nonzero scalar of ``field``.  Skips the
        checks and the zero filter of ``__init__``."""
        self = object.__new__(cls)
        self.field = field
        self.terms = terms
        self.level = level
        return self

    # -- constructors ---------------------------------------------------

    @classmethod
    def monomial(cls, coeff, q, conductor=DEFAULT_CONDUCTOR, level=None):
        field = CycloField.get(conductor)
        return cls(field, {Fraction(q): coeff}, level=level)

    @classmethod
    def one(cls, conductor=DEFAULT_CONDUCTOR):
        return cls.monomial(1, 0, conductor)

    @classmethod
    def zero(cls, conductor=DEFAULT_CONDUCTOR):
        return cls(CycloField.get(conductor), {})

    # -- queries --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_unit(self):
        """Units of S_m are the nonzero monomials."""
        return len(self.terms) == 1

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentElt):
            return other
        return LaurentElt(self.field, {Fraction(0): other})

    def _result(self, other, terms):
        """The element on ``terms``, the sum or product of self and the
        LaurentElt other, at the lcm of their levels.  Over one field the
        terms are valid as they are; scalars of another field's operand are
        embedded, or refused, by ``__init__``."""
        level = lcm(self.level, other.level)
        if other.field is self.field:
            return LaurentElt._trusted(self.field, terms, level)
        return LaurentElt(self.field, terms, level=level)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for q, c in other.terms.items():
            _add_to(out, q, c)
        return self._result(other, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentElt._trusted(
            self.field, {q: -c for q, c in self.terms.items()}, self.level)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycloScalar)):
            return LaurentElt(self.field,
                              {q: c * other for q, c in self.terms.items()},
                              level=self.level)
        other = self._coerce(other)
        out = {}
        for q1, c1 in self.terms.items():
            for q2, c2 in other.terms.items():
                _add_to(out, q1 + q2, c1 * c2)
        return self._result(other, out)

    __rmul__ = __mul__

    def inverse(self):
        if not self.is_unit():
            raise DomainError("only monomials are invertible in S_m: %s" % self)
        ((q, c),) = self.terms.items()
        return LaurentElt(self.field, {-q: c.inverse()}, level=self.level)

    def __eq__(self, other):
        if isinstance(other, LaurentElt):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction, CycloScalar)):
            return self == self._coerce(other)
        return NotImplemented

    __hash__ = None

    # -- the differential and Galois structure ----------------------------

    def delta(self):
        """Apply the derivation d/dt."""
        return self.delta_power(1)

    def delta_power(self, j):
        """Divided power delta^{(j)} = (d/dt)^j / j!; acts by C(q,j) t^{q-j}."""
        if j < 0:
            raise DomainError("delta_power needs j >= 0, got j = %s" % j)
        out = {}
        for q, c in self.terms.items():
            w = binom_frac(q, j)
            if w:
                out[q - j] = c * w
        return LaurentElt(self.field, out, level=self.level)

    def galois(self, g):
        """Apply the g-th power of the level's Galois generator.

        The generator sends t^{p/m} to xi_m^p t^{p/m} where m is the
        level; integer-exponent terms are fixed.  This gamma fixes the
        orientation of descent: the loop of a cocycle u is {x : u(1)(gamma
        x) = x}, whose piece at t^{p/m} is the xi_m^{-p}-eigenspace of u(1)
        (see ``loops.eigenspaces`` and ``cohomology.coboundary``).
        """
        m = self.level
        field = self.field
        if field.conductor % m:
            raise DomainError(
                "level %d does not divide the conductor %d" % (m, field.conductor))
        step = field.conductor // m
        out = {}
        for q, c in self.terms.items():
            p = int(q * m)
            out[q] = c * field.zeta(step * p * g)
        return LaurentElt(field, out, level=m)

    def subs_t_inverse(self):
        """The substitution t -> t^{-1} (an order-two ring automorphism)."""
        return LaurentElt(self.field,
                          {-q: c for q, c in self.terms.items()},
                          level=self.level)

    # -- printing ---------------------------------------------------------

    def __str__(self):
        parts = []
        for q in sorted(self.terms):
            cs = str(self.terms[q])
            if " + " in cs or " - " in cs:
                cs = "(%s)" % cs
            parts.append(_times(cs, "t^{%s}" % q) if q else cs)
        return _signed_sum(parts)

    def __repr__(self):
        return "<LaurentElt %s (level %d)>" % (self, self.level)


def delta_t(x):
    """The derivation d/dt of S_m, as a free function."""
    return x.delta()


def galois_act(g, x):
    """Act by the g-th power of the Galois generator of S_m over S_1."""
    return x.galois(g)
