"""Morphisms of conformal superalgebras given on generators.

A conformal morphism of A (x) S_m over S_m commutes with the full
derivation and is therefore pinned down by the images of the elements
v (x) 1: the module is free over divided powers of the derivation on
the basis v (x) t^q.  This file carries that unique extension, the
pairwise bracket checker, group operations (compose, invert, order),
and the explicit automorphism families of the N=2 and N=4 algebras.
"""

from fractions import Fraction
from math import lcm

from .algebras import _pauli, make_n2, make_n4
from .core import (ConfElt, _hat_sum, _plain_verdict, lambda_bracket,
                   to_hat_basis)
from .cyclotomic import (DEFAULT_CONDUCTOR, CycloField, _declared_level, _q,
                         _same_field)
from .errors import CsalgError, DomainError
from .laurent import LaurentElt, delta_t
from .linalg import det, mat_inverse_laurent, mat_mul


class GenMorphism:
    """A morphism recorded by its generator images.

    ``images`` maps each generator (by name or index) to the image of
    v (x) 1.  The declared level is the ring S_m the morphism acts
    over and must be a multiple of every level occurring in an image;
    None declares the least such level.
    Equality deliberately ignores the level: the same map seen inside
    a finer ring is still the same map, so for example the square of
    theta_{t^{1/2}} (declared over S_2) equals theta_t (over S_1).
    """

    def __init__(self, algebra, level, images):
        self.algebra = algebra
        imgs = {}
        for ref, elt in images.items():
            i = algebra.gen_index(ref)
            if i in imgs:
                raise DomainError("duplicate image for generator %r" % ref)
            imgs[i] = elt
        missing = [g.name for i, g in enumerate(algebra.generators)
                   if i not in imgs]
        if missing:
            raise DomainError(
                "missing images for generators %s" % ", ".join(missing))
        for i, elt in imgs.items():
            if (not elt.is_zero()
                    and algebra.homogeneous_parity(elt) != algebra.parity(i)):
                raise DomainError("image of %s does not have its parity"
                                  % algebra.generators[i].name)
        self.level = _declared_level(
            level, lcm(1, *(elt.level for elt in imgs.values())), "images")
        self.images = imgs

    def image(self, ref):
        return self.images[self.algebra.gen_index(ref)]

    def is_decorated(self):
        """True when some image has derivation-decorated terms."""
        return any(elt.max_dpow() > 0 for elt in self.images.values())

    def matrix(self):
        """Representing matrix over S_m; column i holds the image of v_i.

        Only defined when every image lies in V (x) S.
        """
        if self.is_decorated():
            raise DomainError(
                "images leave V (x) S; no representing matrix over S_m")
        A = self.algebra
        n = A.ngens()
        cells = [[{} for _ in range(n)] for _ in range(n)]
        for i, elt in self.images.items():
            for (g, _, q), c in elt.terms.items():
                cells[g][i][q] = c
        return [[LaurentElt(A.field, cell) for cell in row] for row in cells]

    def __eq__(self, other):
        if not isinstance(other, GenMorphism):
            return NotImplemented
        return self.algebra == other.algebra and self.images == other.images

    __hash__ = None

    def __repr__(self):
        return "GenMorphism(%s, level %d)" % (self.algebra.name, self.level)


def identity_morphism(A):
    """The identity of A (x) S as a GenMorphism, declared over S_1."""
    return GenMorphism(A, 1, {i: A.elt(i) for i in range(A.ngens())})


def extend_apply(phi, x):
    """Apply the unique conformal extension of phi to an element.

    The element is rewritten on the basis of full-derivation divided
    powers of v (x) t^q; each basis vector maps to the same divided
    power of t^q times the recorded image of v (x) 1.
    """
    A = phi.algebra
    _same_field(x.field, A.field, "element", "morphism")
    return _hat_sum(A, to_hat_basis(A, x), phi.images)


class HomReport:
    """Outcome of a pairwise homomorphism check."""

    def __init__(self):
        self.failures = []
        self.invertible = None
        self.determinant = None

    @property
    def homomorphism(self):
        return not self.failures

    @property
    def ok(self):
        return self.homomorphism and self.invertible is not False

    def lines(self, verdict=_plain_verdict):
        """The report as printed by ``csalg hom`` under its header line;
        ``verdict`` renders a boolean verdict."""
        out = ["  homomorphism: %s" % verdict(self.homomorphism)]
        for pair in self.failures:
            out.append("    bracket mismatch on (%s, %s)" % pair)
        if self.invertible is None:
            out.append("  invertibility: not tested "
                       "(derivation-decorated images)")
        else:
            out.append("  invertible: %s (matrix determinant %s)"
                       % (verdict(self.invertible), self.determinant))
        return out

    def as_json(self):
        """The verdict fields of the ``csalg hom --json`` payload."""
        return {
            "homomorphism": self.homomorphism,
            "invertible": self.invertible,
            "determinant": None if self.determinant is None
            else str(self.determinant),
            "failures": [list(pair) for pair in self.failures],
            "ok": self.ok,
        }

    def __str__(self):
        return "\n".join(self.lines())


def check_hom(A, phi):
    """Verify the bracket condition on every ordered generator pair.

    When the images stay inside V (x) S the representing matrix is
    tested for a unit determinant, which decides invertibility; for
    derivation-decorated images that part of the report stays None.
    """
    if phi.algebra != A:
        raise DomainError("morphism is not over the given algebra")
    report = HomReport()
    for i in range(A.ngens()):
        for j in range(A.ngens()):
            lhs = A.table[(i, j)].map_coeffs(lambda e: extend_apply(phi, e))
            rhs = lambda_bracket(A, phi.images[i], phi.images[j])
            if lhs != rhs:
                report.failures.append(
                    (A.generators[i].name, A.generators[j].name))
    if not phi.is_decorated():
        d = det(phi.matrix(), _one(A.field))
        report.determinant = d
        report.invertible = d.is_unit()
    return report


# -- group operations --------------------------------------------------------


def compose(f, g):
    """The morphism applying g first, then f."""
    if f.algebra != g.algebra:
        raise DomainError("cannot compose morphisms over different algebras")
    images = {i: extend_apply(f, elt) for i, elt in g.images.items()}
    return GenMorphism(f.algebra, lcm(f.level, g.level), images)


def invert(phi):
    """Inverse of a morphism whose images lie in V (x) S.

    The representing matrix is inverted exactly over S_m; a non-unit
    determinant or a derivation-decorated image is rejected.
    """
    A = phi.algebra
    inv = mat_inverse_laurent(phi.matrix(), _one(A.field))
    images = {}
    for i in range(A.ngens()):
        terms = {}
        for g in range(A.ngens()):
            for q, c in inv[g][i].terms.items():
                terms[(g, 0, _q(q))] = c
        images[i] = ConfElt(A.field, terms)
    return GenMorphism(A, phi.level, images)


def order_of(phi, bound):
    """Smallest n in 1..bound with phi^n the identity, else None."""
    ident = identity_morphism(phi.algebra)
    power = phi
    for n in range(1, bound + 1):
        if power == ident:
            return n
        power = compose(phi, power)
    return None


# -- the N=2 family ----------------------------------------------------------


def n2_theta(s, algebra=None):
    """The N=2 automorphism theta_s for a unit s = alpha t^q.

    Images: L to L + q J (x) t^{-1}, J fixed, G+ to G+ (x) s and
    G- to G- (x) s^{-1}.  The declared level is the level of s.
    """
    if not isinstance(s, LaurentElt):
        raise DomainError("theta_s takes a Laurent element")
    if not s.is_unit():
        raise DomainError("theta_s needs a unit monomial, got %s" % s)
    A = algebra if algebra is not None else make_n2(s.field.conductor)
    _same_field(s.field, A.field, "s", "algebra")
    ((q, alpha),) = s.terms.items()
    images = {
        "L": A.elt("L") + A.elt("J", q=-1, coeff=q),
        "J": A.elt("J"),
        "G+": A.elt("G+", q=q, coeff=alpha),
        "G-": A.elt("G-", q=-q, coeff=alpha.inverse()),
    }
    return GenMorphism(A, s.level, images)


def n2_omega(algebra=None):
    """The N=2 involution: J changes sign and G+ swaps with G-.

    An algebra without the generators L, J, G+ and G- is refused with a
    DomainError that names it and the first one missing.
    """
    A = algebra if algebra is not None else make_n2()
    for name in ("L", "J", "G+", "G-"):
        if name not in A.index:
            raise DomainError(
                "omega is the N=2 involution, but algebra %s has no "
                "generator %r" % (A.name, name))
    images = {
        "L": A.elt("L"),
        "J": -A.elt("J"),
        "G+": A.elt("G-"),
        "G-": A.elt("G+"),
    }
    return GenMorphism(A, 1, images)


# -- the N=4 family ----------------------------------------------------------


class SL2MatrixOverS:
    """A 2x2 matrix over S_m with determinant exactly one."""

    def __init__(self, field, entries, level=None):
        rows = [[_laurent(field, entries[r][c]) for c in range(2)]
                for r in range(2)]
        _det_one(rows, _one(field))
        self.field = field
        self.entries = rows
        self.level = _declared_level(
            level, lcm(*(e.level for row in rows for e in row)), "entries")

    @classmethod
    def identity(cls, conductor=None, field=None):
        if field is None:
            field = CycloField.get(
                DEFAULT_CONDUCTOR if conductor is None else conductor)
        return cls(field, [[1, 0], [0, 1]])

    def inverse(self):
        return SL2MatrixOverS(self.field, _adjugate2(self.entries),
                              level=self.level)

    def __mul__(self, other):
        if not isinstance(other, SL2MatrixOverS):
            return NotImplemented
        return SL2MatrixOverS(self.field,
                              mat_mul(self.entries, other.entries))

    def __eq__(self, other):
        if not isinstance(other, SL2MatrixOverS):
            return NotImplemented
        return self.entries == other.entries

    __hash__ = None

    def __repr__(self):
        return "SL2MatrixOverS([[%s, %s], [%s, %s]])" % (
            self.entries[0][0], self.entries[0][1],
            self.entries[1][0], self.entries[1][1])


def _laurent(field, value):
    if isinstance(value, LaurentElt):
        _same_field(value.field, field, "matrix entry", "matrix")
        return value
    return LaurentElt(field, {Fraction(0): value})


def _one(field):
    return LaurentElt(field, {Fraction(0): field.one()})


def _traceless_current(A, m):
    """Read a traceless 2x2 matrix over S into the span of the J^s.

    With J^s = sigma^s / 2 the coordinates of m = sum c_s J^s are
    c_1 = m_{12} + m_{21}, c_2 = i (m_{12} - m_{21}), c_3 = 2 m_{11}.
    """
    trace = m[0][0] + m[1][1]
    if not trace.is_zero():
        raise CsalgError("internal: expected a traceless matrix")
    i_unit = A.field.root_of_unity(4)
    coords = [
        m[0][1] + m[1][0],
        (m[0][1] - m[1][0]) * i_unit,
        m[0][0] * 2,
    ]
    out = A.zero_elt()
    for s, r in enumerate(coords):
        out = out + _gen_times(A, "J%d" % (s + 1), r)
    return out


def _gen_times(A, name, r):
    """The element  generator (x) r  for a Laurent multiplier r."""
    g = A.gen_index(name)
    return ConfElt(A.field, {(g, 0, _q(q)): c for q, c in r.terms.items()})


def n4_auto(Y, X, algebra=None):
    """The N=4 automorphism attached to a pair (Y, X).

    Y is a determinant-one 2x2 matrix over S_m and X = [[c, d], [e, f]]
    a determinant-one scalar matrix.  Images: L picks up the
    logarithmic derivative Y' Y^{-1} read into the J span; each J^s is
    conjugated by Y; the G doublet transforms by the inverse transpose
    of Y and the Gbar doublet by Y itself, while the off-diagonal
    entries of X mix the two doublets through the symplectic rotation
    [[0, 1], [-1, 0]].  The cross-term signs are pinned by requiring
    the pair map to be a group homomorphism (for compose, which applies
    the right factor first) whose kernel is generated by (-I, -I); with
    them, determinant one of X is exactly the bracket-preservation
    condition on the odd part.
    """
    if isinstance(Y, SL2MatrixOverS):
        A = algebra if algebra is not None else make_n4(Y.field.conductor)
    else:
        A = algebra if algebra is not None else make_n4()
        Y = SL2MatrixOverS(A.field, Y)
    field = A.field
    _same_field(Y.field, field, "Y", "algebra")
    (c, d), (e, f) = _x_matrix(field, X)

    ye = Y.entries
    yinv = Y.inverse().entries
    yinv_t = [[yinv[0][0], yinv[1][0]], [yinv[0][1], yinv[1][1]]]
    one = _one(field)
    zero = LaurentElt(field, {})
    rot = [[zero, one], [-one, zero]]

    images = {}
    yprime = [[delta_t(entry) for entry in row] for row in ye]
    images["L"] = A.elt("L") + _traceless_current(A, mat_mul(yprime, yinv))
    half = Fraction(1, 2)
    sigma = _pauli(field)
    for s in range(3):
        jmat = [[_laurent(field, sigma[s][r][k] * half) for k in range(2)]
                for r in range(2)]
        images["J%d" % (s + 1)] = _traceless_current(
            A, mat_mul(mat_mul(ye, jmat), yinv))

    y_rot = mat_mul(ye, rot)
    yinv_t_rot = mat_mul(yinv_t, rot)
    gnames = ("G1", "G2")
    gbnames = ("Gb1", "Gb2")
    for a in range(2):
        img = A.zero_elt()
        for b in range(2):
            img = img + _gen_times(A, gnames[b], yinv_t[b][a] * c)
            img = img + _gen_times(A, gbnames[b], y_rot[b][a] * e)
        images[gnames[a]] = img
        img = A.zero_elt()
        for b in range(2):
            img = img + _gen_times(A, gnames[b], yinv_t_rot[b][a] * (-d))
            img = img + _gen_times(A, gbnames[b], ye[b][a] * f)
        images[gbnames[a]] = img
    return GenMorphism(A, Y.level, images)


def _x_matrix(field, entries):
    """A constant 2x2 matrix over ``field``, checked to have determinant 1."""
    mat = [[field.scalar(entries[r][c]) for c in range(2)]
           for r in range(2)]
    _det_one(mat, field.one())
    return mat


def _det_one(m, one):
    """Refuse a 2x2 matrix whose determinant is not ``one``."""
    d = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    if d != one:
        raise DomainError("matrix determinant is %s, not 1" % d)


def _adjugate2(m):
    """The adjugate of a 2x2 matrix, its inverse when the determinant is
    one."""
    return [[m[1][1], -m[0][1]], [-m[1][0], m[0][0]]]
