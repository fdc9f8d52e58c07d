"""Windowed centroid computation for twisted loop algebras.

The centroid of an algebra is the space of linear maps commuting with every
n-product.  For a twisted loop algebra the expected answer is multiplication
by a base-ring element r in k[t, t^{-1}], and this module checks that
statement at desk scale: it assembles the exact linear system
chi(a_(n) b) = a_(n) chi(b) over a window of exponents, solves it, and
re-bases the solution space so genuine multiplication operators appear as
monic monomials.

Window semantics: constraint pairs a, b are drawn from the undecorated
interior (exponents up to the interior radius), so every product lands
inside the window and no truncation enters a row; the unknown columns are
the interior together with the product closure, the codomain is padded past
the domain range by the table's lambda-degree so that multiplication by a
small power of t stays representable, equations are imposed on all ambient
components, and matrix entries never touched by a constraint are pinned to
zero.  Solutions preserve parity and the exponent cosets, which is what a
graded endomorphism of the loop algebra must do.

Blocks: when the generator weights grade the bracket table and every loop
basis vector has a single weight (``LoopAlgebra.weights``), the key
(alpha, l, q) has degree q - l - wt(alpha) + 1, and every row is
homogeneous in the shift deg(codomain key) - deg(domain key) of its
unknowns.  Each shift is then eliminated in an echelon of its own, and
multiplication by t^j lives in block j alone.  Without weights, or when
the check fails, every unknown gets shift 0 and the system is one block;
the solutions are the same either way.
"""

from fractions import Fraction

from .core import apply_partial_power, lambda_bracket, to_hat_basis
from .cyclotomic import _add_to
from .errors import DomainError
from .laurent import LaurentElt
from .linalg import (_echelon_insert, _null_basis, _reduce_against,
                     adjugate, det)

__all__ = ["CentroidSolution", "centroid_basis", "is_scalar_action"]

#: Most unknowns the windowed system may have, as estimated from the loop
#: basis before anything is built.  The N=2 loop twisted by omega at
#: window 25, interior 10 estimates 33,112 (28,452 actual) and took
#: 38.5 s (single run, CPython 3.11); every case in the tests, demos and
#: benchmark estimates 8,064 or fewer.
MAX_UNKNOWNS = 20000


def _unknowns_estimate(loop, window, interior):
    """An upper bound on the unknowns of the windowed system.

    Every closure exponent lies within R = 2*interior + maxl + maxd, and
    within the window, so each record contributes its domain keys
    (l = 0, 1, |q| <= R) times the codomain keys of its parity and
    residue, which reach maxl further.
    """
    maxl, maxd = loop.base.table_degrees()
    reach = min(window, 2 * interior + maxl + maxd)

    def count(res, radius):
        return 2 * len(loop._exponent_steps(res, -radius, radius)[1])

    codomain = {}
    for res, _, _, parity in loop.basis:
        codomain[(res, parity)] = (codomain.get((res, parity), 0)
                                   + count(res, reach + maxl))
    return sum(count(res, reach) * codomain[(res, parity)]
               for res, _, _, parity in loop.basis)


class _Frame:
    """Shared geometry of one windowed centroid computation."""

    def __init__(self, loop, window, interior):
        self.loop = loop
        A = loop.base
        self.algebra = A
        self.field = A.field
        self.window = Fraction(window)
        self.interior = Fraction(interior)
        if not 0 < self.interior < self.window:
            raise DomainError("interior radius must sit inside the window")

        self.alphas = loop.basis
        if any(parity is None for _, _, _, parity in self.alphas):
            raise DomainError("eigenbasis vector of mixed parity")
        n = A.ngens()
        if len(self.alphas) != n:
            raise DomainError("eigenbasis does not span the generators")
        cols = [a[2] for a in self.alphas]
        ematrix = [[cols[c][r] for c in range(len(cols))] for r in range(n)]
        d = det(ematrix, self.field.one())
        if d.is_zero():
            raise DomainError("eigenbasis does not span the generators")
        dinv = d.inverse()
        adj = adjugate(ematrix, self.field.one())
        # sparse rows of the inverse: (generator index, nonzero entry)
        self._einv = [[(r, e * dinv) for r, e in enumerate(row)
                       if not e.is_zero()]
                      for row in adj]

        self.interior0 = [(ai, 0, q)
                          for ai, (res, _, _, _) in enumerate(self.alphas)
                          for q in loop.exponents(res, -self.interior,
                                                  self.interior)]
        if not self.interior0:
            raise DomainError("interior window contains no basis elements")

        estimate = _unknowns_estimate(loop, self.window, self.interior)
        if estimate > MAX_UNKNOWNS:
            raise DomainError(
                "window %s (interior %s) needs up to %d unknowns, above the "
                "bound %d" % (self.window, self.interior, estimate,
                              MAX_UNKNOWNS))
        self.maxl = A.table_degrees()[0]
        self._hat_cache = {}
        try:
            self.weights = loop.weights()
        except DomainError:
            self.weights = None  # ungraded: the system is one block

    # -- basis bookkeeping -------------------------------------------------

    def hat_elt(self, key):
        """The element Dhat^{(l)} (v_alpha (x) t^q) for key (alpha, l, q)."""
        got = self._hat_cache.get(key)
        if got is None:
            ai, l, q = key
            got = apply_partial_power(
                self.algebra, self.alphas[ai][1].shift_t(q), l)
            self._hat_cache[key] = got
        return got

    def decompose(self, x):
        """Coordinates of x on the keys (alpha, l, q), via the hat basis."""
        zero = self.field.zero()
        grouped = {}
        for (g, l, q), c in to_hat_basis(self.algebra, x).items():
            _add_to(grouped.setdefault((l, q), {}), g, c)
        out = {}
        for (l, q), vec in grouped.items():
            for ai, row in enumerate(self._einv):
                coord = zero
                for r, e in row:
                    v = vec.get(r)
                    if v is not None:
                        coord = coord + e * v
                if not coord.is_zero():
                    out[(ai, l, q)] = coord
        return out

    def degree(self, key):
        """The degree q - l - wt(alpha) + 1 of a key (alpha, l, q); 0 for
        every key when the weights do not grade the loop."""
        if self.weights is None:
            return 0
        ai, l, q = key
        return q - l - self.weights[ai] + 1

    def parity_of(self, key):
        return self.alphas[key[0]][3]

    def residue_of(self, key):
        return self.alphas[key[0]][0]


class CentroidSolution:
    """One solution of the windowed system: a matrix over the loop basis.

    Entries map (domain key, codomain key) to a scalar, with keys of the
    form (eigenvector index, hat degree, exponent).  The endomorphism is
    parity preserving and respects exponent cosets.
    """

    def __init__(self, frame, entries):
        self._frame = frame
        self.entries = {k: v for k, v in entries.items() if not v.is_zero()}

    @property
    def loop(self):
        return self._frame.loop

    @property
    def window(self):
        return self._frame.window

    @property
    def interior(self):
        return self._frame.interior

    def image(self, dkey):
        """The image of a domain basis element, as codomain coordinates."""
        out = {}
        for (d, c), v in self.entries.items():
            if d == dkey:
                out[c] = v
        return out

    def apply(self, x):
        """Apply the endomorphism to an element inside the domain window."""
        frame = self._frame
        coords = frame.decompose(x)
        acc = frame.algebra.zero_elt()
        for dkey, w in coords.items():
            if dkey[1] > 1 or abs(dkey[2]) > frame.window:
                raise DomainError("element leaves the computed window")
            for ckey, v in self.image(dkey).items():
                acc = acc + frame.hat_elt(ckey).scale(v * w)
        return acc

    def replace_entries(self, entries):
        """A sibling solution object with different matrix entries."""
        return CentroidSolution(self._frame, entries)

    def __repr__(self):
        return "CentroidSolution(%d entries on window %s)" % (
            len(self.entries), self._frame.window)


def centroid_basis(L, window, interior):
    """Exact basis of the windowed centroid system of a loop algebra.

    Returns solutions ordered so that every one acting as multiplication by
    a monic monomial t^j comes first (j increasing), followed by whatever
    directions remain, reduced against them.
    """
    frame = _Frame(L, window, interior)
    A = frame.algebra
    field = frame.field
    one = field.one()
    zero = field.zero()

    interior0 = frame.interior0

    # product closure: every component of a_(n) b must stay in the window
    pair_brackets = {}
    domain = {(ai, l, q) for (ai, _, q) in interior0 for l in (0, 1)}
    for a in interior0:
        xa = frame.hat_elt(a)
        for b in interior0:
            xb = frame.hat_elt(b)
            poly = lambda_bracket(A, xa, xb)
            comps = {n: frame.decompose(elt)
                     for n, elt in poly.coeffs.items() if not elt.is_zero()}
            pair_brackets[(a, b)] = comps
            for coords in comps.values():
                for key in coords:
                    if key[1] > 1:
                        raise DomainError(
                            "table depth exceeds the windowed solver: "
                            "[%s lambda %s] reaches hat level %d"
                            % (A.elt_string(xa), A.elt_string(xb), key[1]))
                    domain.add(key)
    reach = max(abs(k[2]) for k in domain)
    if reach > frame.window:
        raise DomainError(
            "window %s too small for the product closure: it reaches "
            "|q| = %s, the smallest window that covers it"
            % (frame.window, reach))
    domain = sorted(domain, key=lambda k: (k[0], k[2], k[1]))
    dlo = min(k[2] for k in domain) - frame.maxl
    dhi = max(k[2] for k in domain) + frame.maxl

    codomain = [(bi, l, q)
                for bi, (res, _, _, _) in enumerate(frame.alphas)
                for q in L.exponents(res, dlo, dhi) for l in (0, 1)]

    # legal matrix positions: same parity, exponent difference an integer
    cod_of = {}
    for dkey in domain:
        sig = (frame.parity_of(dkey), frame.residue_of(dkey))
        if sig not in cod_of:
            cod_of[sig] = [c for c in codomain
                           if frame.parity_of(c) == sig[0]
                           and (c[2] * L.order - sig[1]) % L.order == 0]
    unknowns = {}
    cols = {}  # domain key -> {codomain key: unknown id}
    shift = []  # unknown id -> its block
    for dkey in domain:
        sig = (frame.parity_of(dkey), frame.residue_of(dkey))
        col = cols[dkey] = {}
        ddeg = frame.degree(dkey)
        for ckey in cod_of[sig]:
            col[ckey] = unknowns[(dkey, ckey)] = len(unknowns)
            shift.append(frame.degree(ckey) - ddeg)

    # assemble the strict rows, n running one past the table degree so the
    # vanishing products constrain the unknowns too; each row is homogeneous
    # in the shift and goes to the echelon of its own block
    blocks = {}
    touched = set()
    for a in interior0:
        xa = frame.hat_elt(a)
        minus = {}  # codomain key -> {n: -coordinates of [xa lambda c]_n}
        for b in interior0:
            rhs = []
            for ckey, uid in cols[b].items():
                got = minus.get(ckey)
                if got is None:
                    poly = lambda_bracket(A, xa, frame.hat_elt(ckey))
                    got = minus[ckey] = {
                        m: {k: -v for k, v in frame.decompose(elt).items()}
                        for m, elt in poly.coeffs.items() if not elt.is_zero()}
                rhs.append((uid, got))
            comps_by_n = pair_brackets[(a, b)]
            for n in range(frame.maxl + 2):
                eq = {}
                for dkey, w in comps_by_n.get(n, {}).items():
                    for ckey, uid in cols[dkey].items():
                        _add_to(eq.setdefault(ckey, {}), uid, w)
                for uid, got in rhs:
                    for ekey, v in got.get(n, {}).items():
                        _add_to(eq.setdefault(ekey, {}), uid, v)
                for row in eq.values():
                    if row:
                        touched.update(row)
                        _echelon_insert(
                            blocks.setdefault(shift[next(iter(row))], {}), row)

    pivots = {}
    for block in blocks.values():
        pivots.update(block)
    raw = _null_basis(pivots, touched, one)

    def solution(vec):
        return CentroidSolution(frame, {pos: vec[uid]
                                        for pos, uid in unknowns.items()
                                        if uid in vec})

    def solves(vec):
        """Whether vec meets every pivot relation x_lead = sum m_u x_u."""
        for lead, row in pivots.items():
            acc = zero
            for u, m in row.items():
                v = vec.get(u)
                if v is not None:
                    acc = acc + m * v
            if acc != vec.get(lead, zero):
                return False
        return True

    solutions = []
    chosen = {}
    # t^j carries the domain keys at the extreme exponents past the
    # codomain, which reaches maxl beyond them, unless |j| <= maxl
    for j in range(-frame.maxl, frame.maxl + 1):
        r = LaurentElt(field, {Fraction(j): one})
        entries = {}
        ok = True
        for dkey in domain:
            img = frame.decompose(frame.hat_elt(dkey).mul_laurent(r))
            for ckey, v in img.items():
                uid = cols[dkey].get(ckey)
                if uid is None or uid not in touched:
                    ok = False
                    break
                entries[uid] = v
            if not ok:
                break
        if not ok or not solves(entries):
            continue
        _echelon_insert(chosen, entries)
        solutions.append(solution(entries))

    for vec in raw:
        residue, lead = _reduce_against(chosen, vec)
        if not residue:
            continue
        inv = residue[lead].inverse()
        residue = {u: c * inv for u, c in residue.items()}
        _echelon_insert(chosen, residue)
        solutions.append(solution(residue))
    return solutions


def is_scalar_action(chi):
    """The Laurent element r with chi = multiplication by r, if there is one.

    The test reads a candidate r off the first undecorated interior column
    and then checks the whole interior against exact multiplication; any
    stray component, wrong eigenvector, or mismatch returns None.
    """
    frame = chi._frame
    field = frame.field
    interior0 = frame.interior0

    d0 = interior0[0]
    terms = {}
    for ckey, v in chi.image(d0).items():
        if ckey[0] != d0[0] or ckey[1] != 0:
            return None
        terms[ckey[2] - d0[2]] = v
    r = LaurentElt(field, terms)
    if r.is_zero() and chi.entries:
        return None

    for dkey in interior0:
        for l in (0, 1):
            key = (dkey[0], l, dkey[2])
            want = frame.decompose(frame.hat_elt(key).mul_laurent(r))
            if want != chi.image(key):
                return None
    return r
