"""Galois cocycles over the automorphism groups of the two algebras.

The cyclic group Z/mZ acts on S_m through the compatible root of unity, and
a 1-cocycle with values in the automorphism group picks out a twisted loop
algebra.  This module gives the two automorphism groups concrete element
types (a unit monomial with a flip bit, and a pair of determinant-one
matrices modulo a simultaneous sign), the cocycle condition, coboundary
twisting, and the invariants that decide when two cocycles are equivalent:
the flip component in one case and the squared eigenvalue ratio in the
other, enumerated by conjugacy classes of finite-order elements of PGL_2.
"""

import math

from .cyclotomic import DEFAULT_CONDUCTOR, CycloField, CycloScalar
from .errors import ConductorError, DomainError
from .laurent import LaurentElt
from .linalg import mat_mul
from .morphisms import (SL2MatrixOverS, _adjugate2, _x_matrix, compose,
                        n2_omega, n2_theta, n4_auto)

__all__ = [
    "Cocycle",
    "N2AutElt",
    "N4AutElt",
    "RootPair",
    "check_cocycle",
    "coboundary",
    "cocycle_of",
    "n2_component",
    "n4_invariant",
    "pgl2_classes",
]

#: Largest order bound ``pgl2_classes`` enumerates.  It builds all
#: n // 2 + 1 classes before returning, so time and memory grow linearly:
#: ``csalg pgl2-classes 100000`` takes about 0.4 s and 32 MB as a whole
#: process (39 MB with ``--json``), and n = 10^6 took 3.1 s and 173 MB
#: (250 MB with ``--json``; single runs, CPython 3.11).
MAX_PGL2_ORDER = 100000


class N2AutElt:
    """An automorphism of the small algebra: unit monomial s and a flip bit.

    Multiplication follows composition of the corresponding automorphisms:
    the flip acts on the unit group by inversion, which on monic monomials
    is the substitution t -> t^{-1} and in general also inverts the scalar
    coefficient.
    """

    __slots__ = ("s", "eps")

    def __init__(self, s, eps):
        if not isinstance(s, LaurentElt) or not s.is_unit():
            raise DomainError("the S-part must be a unit monomial")
        self.s = s
        self.eps = int(eps) % 2

    @property
    def field(self):
        return self.s.field

    @property
    def level(self):
        return self.s.level

    @classmethod
    def identity(cls, conductor=DEFAULT_CONDUCTOR):
        return cls(LaurentElt.one(conductor), 0)

    def identity_like(self):
        return N2AutElt(LaurentElt.one(self.field.conductor), 0)

    def __mul__(self, other):
        if not isinstance(other, N2AutElt):
            return NotImplemented
        sp = other.s.inverse() if self.eps else other.s
        return N2AutElt(self.s * sp, self.eps + other.eps)

    def inverse(self):
        if self.eps:
            return N2AutElt(self.s, 1)
        return N2AutElt(self.s.inverse(), 0)

    def galois(self, g):
        return N2AutElt(self.s.galois(g), self.eps)

    def as_morphism(self, algebra=None):
        theta = n2_theta(self.s, algebra)
        if not self.eps:
            return theta
        return compose(theta, n2_omega(theta.algebra))

    def __eq__(self, other):
        if not isinstance(other, N2AutElt):
            return NotImplemented
        return self.eps == other.eps and self.s == other.s

    __hash__ = None

    def __repr__(self):
        return "N2AutElt(%s, eps=%d)" % (self.s, self.eps)


def _leading_is_positive(c):
    exp = min(c.coeffs)
    return c.coeffs[exp] > 0


class N4AutElt:
    """A pair (Y, X) of determinant-one matrices modulo the joint sign.

    Y has Laurent entries, X constant ones.  The stored representative is
    the one whose first nonzero X entry, in row-major order, has a
    positive leading rational, so equality across the sign ambiguity
    comes for free.  Elements are unhashable (``__hash__`` is None).
    """

    __slots__ = ("y", "x")

    def __init__(self, y, x, conductor=None):
        if isinstance(y, SL2MatrixOverS):
            field = y.field
        else:
            field = CycloField.get(conductor or DEFAULT_CONDUCTOR)
            y = SL2MatrixOverS(field, y)
        x = _x_matrix(field, x)
        # det X = 1, so X has a nonzero entry
        first = next(e for row in x for e in row if not e.is_zero())
        if not _leading_is_positive(first):
            y = SL2MatrixOverS(field, [[-e for e in row] for row in y.entries])
            x = [[-e for e in row] for row in x]
        self.y = y
        self.x = x

    @property
    def field(self):
        return self.y.field

    @property
    def level(self):
        return self.y.level

    @classmethod
    def identity(cls, conductor=DEFAULT_CONDUCTOR):
        return cls(SL2MatrixOverS.identity(conductor), [[1, 0], [0, 1]])

    def identity_like(self):
        return N4AutElt.identity(self.field.conductor)

    def __mul__(self, other):
        if not isinstance(other, N4AutElt):
            return NotImplemented
        return N4AutElt(self.y * other.y, mat_mul(self.x, other.x))

    def inverse(self):
        return N4AutElt(self.y.inverse(), _adjugate2(self.x))

    def galois(self, g):
        twisted = [[e.galois(g) for e in row] for row in self.y.entries]
        return N4AutElt(SL2MatrixOverS(self.field, twisted), self.x)

    def as_morphism(self, algebra=None):
        return n4_auto(self.y, self.x, algebra)

    def __eq__(self, other):
        if not isinstance(other, N4AutElt):
            return NotImplemented
        return self.y == other.y and self.x == other.x

    __hash__ = None

    def __repr__(self):
        return "N4AutElt(%r, %r)" % (self.y.entries, self.x)


class Cocycle:
    """A map Z/mZ -> automorphism group with u(0) the identity.

    The constructor pins the normalization u(0) = id and that every value
    lives over S_m (so the Galois action of Z/mZ reaches all entries); the
    cocycle condition itself is a separate check, since deliberately
    broken maps are useful as negative witnesses.
    """

    def __init__(self, m, values):
        if m < 1:
            raise DomainError("modulus must be positive")
        self.m = m
        self.values = {}
        for g, elt in values.items():
            self.values[int(g) % m] = elt
        if set(self.values) != set(range(m)):
            raise DomainError(
                "cocycle needs a value for every residue mod %d" % m)
        ident = self.values[0].identity_like()
        if self.values[0] != ident:
            raise DomainError("a cocycle must send 0 to the identity")
        for g, elt in self.values.items():
            if m % elt.level:
                raise DomainError(
                    "value at %d has level %d, outside S_%d"
                    % (g, elt.level, m))

    def value(self, g):
        return self.values[int(g) % self.m]

    def __eq__(self, other):
        if not isinstance(other, Cocycle):
            return NotImplemented
        return self.m == other.m and self.values == other.values

    __hash__ = None

    def __repr__(self):
        return "Cocycle(%d, %r)" % (self.m, self.values)


def check_cocycle(u):
    """Whether u(g+h) = u(g) * (g acting on u(h)) for all residues."""
    for g in range(u.m):
        for h in range(u.m):
            if u.value(g + h) != u.value(g) * u.value(h).galois(g):
                return False
    return True


def cocycle_of(sigma, m):
    """The cocycle n -> sigma^n of a finite-order automorphism element."""
    values = {}
    acc = sigma.identity_like()
    for g in range(m):
        values[g] = acc
        acc = acc * sigma
    if acc != sigma.identity_like():
        raise DomainError("element does not have order dividing %d" % m)
    return Cocycle(m, values)


def coboundary(u, g):
    """Twist a cocycle by a group element: b(n) = g^{-1} u(n) (n acting on g);
    the isomorphism L(u) -> L(b) it witnesses is g^{-1}, not g.

    Here L(u) = {x : u(1)(gamma x) = x}, with gamma the Galois generator of
    ``LaurentElt.galois``: then b(1) gamma(g^{-1} x) = g^{-1} u(1) gamma(x)
    = g^{-1} x.  The loop of u is ``eigenspaces`` of u(1)^{-1}, not of
    u(1).  The values keep the level of g, also where their entries are
    constant."""
    ginv = g.inverse()
    return Cocycle(u.m, {n: ginv * u.value(n) * g.galois(n)
                         for n in range(u.m)})


def n2_component(u):
    """The flip bit of the value at the generator; a coboundary invariant."""
    return u.value(1).eps


class RootPair:
    """The unordered pair {rho, rho^{-1}} of roots of unity, reduced.

    Stored as (order, exponent) of the canonical member, independently of
    any ambient cyclotomic field, so pairs computed over different
    conductors compare equal when they agree.
    """

    __slots__ = ("order", "exponent")

    def __init__(self, order, exponent):
        g = math.gcd(exponent % order, order)
        order //= g
        exponent = (exponent // g) % order
        self.order = order
        self.exponent = min(exponent, (order - exponent) % order)

    def scalars(self, field):
        """The two roots as elements of the given field."""
        if field.conductor % self.order:
            raise ConductorError(
                "roots of order %d need a compatible conductor" % self.order)
        step = field.conductor // self.order
        return (field.zeta(step * self.exponent),
                field.zeta(-step * self.exponent))

    def __eq__(self, other):
        if not isinstance(other, RootPair):
            return NotImplemented
        return self.order == other.order and self.exponent == other.exponent

    def __hash__(self):
        return hash((self.order, self.exponent))

    def __str__(self):
        if self.order == 1:
            return "{1, 1}"
        if self.order == 2:
            return "{-1, -1}"
        return "{zeta_%d^%d, zeta_%d^%d}" % (
            self.order, self.exponent,
            self.order, self.order - self.exponent)

    def __repr__(self):
        return "RootPair(%d, %d)" % (self.order, self.exponent)


def n4_invariant(x, field=None):
    """The squared eigenvalue ratio class of a finite-order X.

    With eigenvalues lambda, lambda^{-1}, the pair {lambda^2, lambda^{-2}}
    is read off the trace: lambda^2 + lambda^{-2} = tr(X)^2 - 2.  The pair
    is insensitive to both conjugation and the overall sign, which is
    exactly the equivalence the loop construction cannot see.
    """
    if field is None:
        fields = [e.field for row in x for e in row
                  if isinstance(e, CycloScalar)]
        field = (max(fields, key=lambda f: f.conductor, default=None)
                 or CycloField.get(DEFAULT_CONDUCTOR))
    mat = _x_matrix(field, x)
    target = (mat[0][0] + mat[1][1]) ** 2 - 2
    n = field.conductor
    for j in range(n // 2 + 1):
        if field.zeta(j) + field.zeta(-j) != target:
            continue
        if j == 0:
            one = field.one()
            for sign in (one, -one):
                if all(mat[r][c] == (sign if r == c else field.zero())
                       for r in range(2) for c in range(2)):
                    return RootPair(n, 0)
            raise DomainError("matrix is unipotent, not of finite order")
        return RootPair(n, j)
    raise DomainError(
        "matrix has no finite order visible at conductor %d" % n)


def pgl2_classes(n, field=None):
    """Invariants of the conjugacy classes of order dividing n in PGL_2.

    Each class of a finite-order element is pinned by {rho, rho^{-1}} with
    rho^n = 1, giving floor(n/2) + 1 distinct pairs.  The pairs need no
    field; a given ``field`` must contain the 2n-th roots so that every
    class has a matrix representative diag(lambda, lambda^{-1}) with
    lambda^2 = rho over it.
    """
    if n < 1:
        raise DomainError("order bound must be positive")
    if n > MAX_PGL2_ORDER:
        raise DomainError("order bound %d is above the bound %d"
                          % (n, MAX_PGL2_ORDER))
    if field is not None and field.conductor % (2 * n):
        raise ConductorError(
            "enumerating classes of order %d needs 2*%d dividing the "
            "conductor %d" % (n, n, field.conductor))
    return [RootPair(n, j) for j in range(n // 2 + 1)]
