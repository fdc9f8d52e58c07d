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
inside the window and no truncation enters a row; the solved domain is
the interior together with every key a product of two interior keys
touches (a Dhat key only when some product has a D term, so the domain
of a current algebra is level 0 alone), the codomain is padded past
the domain range by the table's lambda-degree maxl so that multiplication
by a small power of t stays representable, equations are imposed on all
ambient components, and matrix entries never touched by a constraint are
pinned to zero.  On the graded path (see Shifts) the codomain reaches one
step further down, since t^{-1} sends Dhat(v t^q) to Dhat(v t^{q-1})
- v t^{q-2}; without it an interior of one exponent per coset (interior
1/2 on an untwisted loop) misses t^{-1}.  The ungraded path keeps the
shorter codomain: it solves every shift, and the extra step would admit
t^{-2} there.  Solutions preserve parity and the exponent cosets, which is
what a graded endomorphism of the loop algebra must do.

Shifts: when the generator weights grade the bracket table and every loop
basis vector has a single weight (``LoopAlgebra.weights``), the key
(alpha, l, q) has degree q - l - wt(alpha) + 1, and every row is
homogeneous in the shift deg(codomain key) - deg(domain key) of its
unknowns.  Rows of different shifts then share no column, so one echelon
eliminates every shift: a row reduces only against pivots of its own
shift, and multiplication by t^j lives in shift j alone.  Only the shifts
|s| <= maxl, the range the monomial candidates t^j are drawn from, are
built at all: a dropped shift drops whole rows and leaves the other pivots
as they are, and leftover directions come from the built shifts alone.
Without weights, or when the check fails, every unknown gets shift 0 and
the one system holds every shift, on the shorter codomain: at interior 1/2
it misses the t^{-1} that the graded solve finds.

Key ids: the solve runs on small int ids and int exponents.  A loop's
exponents and degrees lie on the lattice (1/M)Z, M the lcm of the twist
order and the denominators of the generator weights: 2 for the N=2 and
N=4 loops of order at most 2, 6 for order 3, 4 for order 4, the order
alone when the weights do not grade.  ``_Frame`` interns each pair
(l, M q) once, on first sight, and gives the keys (alpha, l, M q) of all
eigenbasis records consecutive ids; ``_Frame.keys`` maps an id back to
its key, and the parity, residue and degree (times M) of each id are read
once, into lists.  An exponent enters the lattice exactly; one off (1/M)Z
is refused with a DomainError that names it.  The exponent q, a Fraction,
comes back only where a caller reads it: the entries and images of a
``CentroidSolution``, its hat elements, the r of ``is_scalar_action`` and
the error texts, and as the factor 1/M of a level-1 term -s w = -(M s) w
/ M of ``times`` that M does not divide; ``_Frame.exponent`` builds one
Fraction per M q and hands it out again.

Coordinates: each pair of t-free record vectors v_alpha, v_beta is
bracketed once, and each lambda-coefficient is decomposed on the ids once;
every other coordinate follows by id arithmetic.  The shift rule
Dhat(v t^q) t^s = Dhat(v t^{q+s}) - s v t^{q+s-1} (``_Frame.times``) with
CS3 on the left slot, [v t^p lambda y] = sum_l C(p, l) d_lambda^{(l)}
[v lambda y] t^{p-l}, gives the brackets of each interior key; with CS3 on
the right slot, [x lambda y t^q] = [x lambda y] t^q, it gives the
product closure, the level-0 columns (beta, 0, q), the images under a
candidate t^j and the check of ``is_scalar_action``.  The derivation rule,
CS1 on the right slot, [x lambda Dhat y] = (Dhat + lambda)[x lambda y],
gives (beta, 1, q) from (beta, 0, q): its lambda^{(m)} component is
Dhat c_m + m c_{m-1}, with Dhat (alpha, l, q) = (l + 1) (alpha, l + 1, q).
The row of component e for the pair a, b and the degree n reads
a_(n) chi(b) - chi(a_(n) b), so the column of a key c is the products
a_(n) c themselves, and only the first side of the product a_(n) b is
negated, once per component.  The column of an interior key b is that
product: ``_columns`` over the interior keys shifts each a_(n) b once,
for the solved domain, and serves those maps again as a's interior
columns, so no coordinate map is shifted twice.  An unknown pinned to 0,
by a row that reduces to it alone or by a substitution that empties its
pivot row, is left out of the later rows (subtracting the pin row keeps
the row space) and of the columns built for them.  A candidate t^j is
tested against the raw null vectors directly (``linalg._in_null_span``).
Only when fewer monomials pass than there are raw vectors are the raw
vectors reduced against the monomials, for the directions left over.

Row order: ``_row_order`` hands the interior keys a to the eliminator by
record weight, and within one weight from the highest exponent down; a
loop without weights keeps the interior order.  The rows of the currents
are short and pin most unknowns before the longer Virasoro rows are
built, so those rows leave the pinned unknowns out and fewer pivots take
a substitution, and more rows are implied by one-term pivots, which the
eliminator refuses before any reduction (see ``linalg``).  No result
depends on the order.  The eliminator keeps the fully reduced solved form
with least-column pivots, a function of the row space and of the order of
the unknown ids alone.  The unknown ids are fixed before any row is
built, and leaving a pinned unknown out of a later row keeps the row
space.  So the pivots, the pins, the null basis and every solution are
the same in any order, entry for entry.

Scalars: the solve runs on Python rationals wherever it can, and on ints
where the table allows.  ``_Frame`` lowers the entries of its eigenbasis
inverse once, and ``_Frame.coords`` lowers each finished rational
coordinate to its ``_q`` value (an int when integral, else a Fraction);
only an irrational one, such as the zeta^6 coefficients of the N=4 table,
stays a ``CycloScalar``.  ``_gauge`` then looks for the basis
u_alpha v_alpha, u_alpha = i^{x_alpha} with x_alpha in {0, 1}, one power
per record, on which every record-pair coordinate is rational: the
coordinate c of [v_alpha lambda v_beta] at a key of record gamma becomes
c u_alpha u_beta / u_gamma, rational when c is rational and x_alpha +
x_beta + x_gamma is even, or when c is a rational multiple of i and the
sum is odd.  One elimination over GF(2), on bit masks of the records
(``_solve_mod2``), solves these parities, and each coordinate becomes r
or -r, its rational part read off its coefficients with no field product
and no inverse.  The N=4 table is a rational form in disguise: J2 times i
makes every structure constant rational, and the solve takes that basis
on every N=4 loop.  Every record keeps u = 1, the solve on the records
themselves, when every coordinate is rational already (every N=2 loop),
when one is neither rational nor a rational multiple of i, or when the
parities are inconsistent.  ``_interior_brackets`` then multiplies the
coordinates by K, the lcm of their denominators (those inside a
``CycloScalar`` too): 2 for the 1/2 and 3/2 of the N=2 and N=4 tables and
of the eigenbasis inverse, 1 for the sl2 current algebra.  Every product,
column and row is linear in these brackets, since both sides of
chi(a_(n) b) = a_(n) chi(b) read them, so each row is K times the
unscaled one on the basis u_alpha v_alpha, whose unknowns are those of
the records scaled by u_rec(c) / u_rec(d).  The eliminator normalizes each
pivot by its lead, and scaling the unknowns moves no pivot and no pin, so
the null space is that of the records' system, scaled back entry by
entry.  No ``CycloScalar`` then reaches a row of an N=4 loop, and on the
N=2 and N=4 loops of order 1 and 2 no Fraction does either; the thirds
and quarters of an order-3 or order-4 shift reach one as Fractions,
through ``times``.
``times``, the columns, the rows and the ``linalg`` eliminator work on
these mixed exact scalars through Python's numeric coercion, and
``_add_to`` and the eliminator keep every integral result an int.  The
eliminator normalizes an int pivot by exact division where its lead
divides the entry, and on a table that keeps irrational coordinates it
lowers a rational product of two of them, so the pivots and the null
vectors read off them hold the same kinds of scalar as the rows.  A
solution maps back to the records' basis: entry (d, c) times
u_rec(c) / u_rec(d) (``_ungauged``).  A monomial t^j has same-record
entries alone and is left as it is; a leftover direction is divided by
the factor at its lead too, so it stays 1 there, as ``_pivot_vector``
normalizes it.  So every solution is the one the records' own system
gives, entry for entry.  ``CentroidSolution`` lifts its entries back
through ``field.scalar``, so the entries a caller reads are
``CycloScalar``s; it lifts each distinct rational once per solution and
shares that lift between the entries that hold it, as CycloScalars are
immutable.

Row loop: a row is a dict {unknown id: scalar} and the loop builds
nothing a row does not keep.  A degree n that a column does not reach is
skipped, not read as an empty map; the unknowns of a domain key are the
codomain keys of its parity and residue whose degree lies within maxl
(times M) of its own, bounds read once per domain key.  Most rows are
short, and two kinds take no reduction in the eliminator (see
``linalg``): in the four perfbench solves, 4,154 of the 7,136 rows are
implied by one-term pivots and refused, and 1,217 are one-entry rows on a
column that is no pivot, which pin that unknown to 0 directly.
"""

import math
from fractions import Fraction

from .core import (_binomials, _hat_sum, apply_partial_power,
                   lambda_bracket, to_hat_basis)
from .cyclotomic import (CycloScalar, _add_to, _denominator, _lower, _q,
                         _ratio)
from .errors import DomainError
from .laurent import LaurentElt
from .linalg import (Echelon, _echelon_insert, _in_null_span, _null_basis,
                     _pivot_vector, adjugate, det, rank)

__all__ = ["CentroidSolution", "centroid_basis", "is_scalar_action"]

#: Most unknowns the windowed system may have, as estimated from the loop
#: basis before anything is built.  The N=2 loop twisted by omega at
#: window 25, interior 10 estimates 33,112; the graded solve builds 1,958
#: of them (shifts |s| <= maxl only) and, with the bound raised, takes
#: about 0.75 s as a whole ``csalg centroid`` process (median of three
#: runs, CPython 3.11).  Every case in the tests, demos and benchmark
#: estimates 8,064 or fewer.
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
        return 2 * loop._exponent_count(res, -radius, radius)

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
            raise DomainError(
                "interior radius %s must sit inside the window %s "
                "(0 < interior < window)" % (self.interior, self.window))

        self.alphas = loop.basis
        for index, (res, _, _, parity) in enumerate(self.alphas):
            if parity is None:
                raise DomainError("eigenbasis vector of mixed parity: "
                                  "record %d (residue %d)" % (index, res))
        n = A.ngens()
        if len(self.alphas) != n:
            raise DomainError(
                "eigenbasis of %d records does not span the %d generators"
                % (len(self.alphas), n))
        cols = [a[2] for a in self.alphas]
        ematrix = [[cols[c][r] for c in range(len(cols))] for r in range(n)]
        d = det(ematrix, self.field.one())
        if d.is_zero():
            raise DomainError(
                "eigenbasis of rank %d does not span the %d generators"
                % (rank(ematrix), n))
        dinv = d.inverse()
        adj = adjugate(ematrix, self.field.one())
        # sparse rows of the inverse: (generator index, nonzero entry)
        self._einv = [[(r, _lower(e * dinv)) for r, e in enumerate(row)
                       if not e.is_zero()]
                      for row in adj]

        # refuse before any key is built: the estimate reads only the
        # records and the lengths of their exponent ranges
        estimate = _unknowns_estimate(loop, self.window, self.interior)
        if estimate > MAX_UNKNOWNS:
            raise DomainError(
                "window %s (interior %s) needs up to %d unknowns, above the "
                "bound %d" % (self.window, self.interior, estimate,
                              MAX_UNKNOWNS))
        self.maxl = A.table_degrees()[0]
        try:
            self.weights = loop.weights()
        except DomainError:
            self.weights = None  # ungraded: every shift is 0
        # the exponent lattice (1/M)Z; a key holds the int M q, and the
        # degree q - l - wt + 1 of record alpha is M q - M l - offset[alpha]
        M = self.scale = math.lcm(loop.order, *(
            Fraction(w).denominator for w in self.weights or ()))
        self._offsets = (None if self.weights is None
                         else [int(M * (w - 1)) for w in self.weights])

        self.keys = []  # id -> (alpha, l, M q)
        self._exponents = {}  # M q -> q, for ``exponent``
        self._entry_keys = {}  # id -> (alpha, l, q), for ``entry_key``
        self._slots = {}  # (l, M q) -> the id of (0, l, M q)
        self.sigs = []  # id -> (parity, residue)
        self.degrees = []  # id -> M * degree, 0 when the weights do not grade
        self.domain = set()  # ids of the solved domain, set by centroid_basis
        # power of i per record of the solved basis, set by _interior_brackets
        self.gauge = [0] * n
        self.interior0 = [self.key_id((ai, 0, q))
                          for ai, (res, _, _, _) in enumerate(self.alphas)
                          for q in loop.exponents(res, -self.interior,
                                                  self.interior)]
        if not self.interior0:
            raise DomainError("interior window contains no basis elements")

    # -- basis bookkeeping -------------------------------------------------

    def _slot(self, l, Q):
        """The id of (0, l, Q); record alpha adds alpha.  The one place the
        system hashes an exponent, an int."""
        base = self._slots.get((l, Q))
        if base is None:
            base = self._slots[(l, Q)] = len(self.keys)
            self.keys.extend((ai, l, Q) for ai in range(len(self.alphas)))
            self.sigs.extend((parity, res)
                             for res, _, _, parity in self.alphas)
            self.degrees.extend(
                [0] * len(self.alphas) if self._offsets is None
                else [Q - l * self.scale - off for off in self._offsets])
        return base

    def _lattice(self, q):
        """The int M q of an exponent q on the lattice (1/M)Z, exactly."""
        Q = q * self.scale
        if Q.__class__ is not int:
            if Q.denominator != 1:
                raise DomainError(
                    "exponent %s lies off the exponent lattice (1/%d)Z of "
                    "the loop" % (q, self.scale))
            Q = Q.numerator
        return Q

    def exponent(self, Q):
        """The exponent q, a Fraction, of the scaled exponent Q = M q; one
        object per Q, built on first sight."""
        q = self._exponents.get(Q)
        if q is None:
            q = self._exponents[Q] = Fraction(Q, self.scale)
        return q

    def entry_key(self, i):
        """The key of id i as a solution shows it: q as a Fraction.  One
        tuple per id, built on first sight."""
        key = self._entry_keys.get(i)
        if key is None:
            ai, l, Q = self.keys[i]
            key = self._entry_keys[i] = (ai, l, self.exponent(Q))
        return key

    def key_id(self, key):
        """The id of a key (alpha, l, q), interned on first sight."""
        ai, l, q = key
        return self._slot(l, self._lattice(q)) + ai

    def hat(self, i):
        """The element Dhat^{(l)} (v_alpha (x) t^q) of the key with id i."""
        ai, l, Q = self.keys[i]
        return apply_partial_power(
            self.algebra, self.alphas[ai][1].shift_t(self.exponent(Q)), l)

    def coords(self, x):
        """Coordinates of x on the key ids, via the hat basis."""
        grouped = {}
        for (g, l, q), c in to_hat_basis(self.algebra, x).items():
            _add_to(grouped.setdefault(self._slot(l, self._lattice(q)), {}),
                    g, c)
        out = {}
        for base, vec in grouped.items():
            for ai, row in enumerate(self._einv):
                coord = None
                for r, e in row:
                    v = vec.get(r)
                    if v is not None:
                        v = v * e
                        coord = v if coord is None else coord + v
                if coord is not None:
                    coord = _lower(coord)
                    if coord:
                        out[base + ai] = coord
        return out

    def times(self, coords, terms):
        """Coordinates of x * sum_s c_s t^s, from the coordinates of x.

        ``terms`` maps the scaled shift S = M s to c_s.  A single shift
        with c_s = 1 is ``shift`` alone; any other sum scales the shift of
        each term.
        """
        if len(terms) == 1:
            ((S, c),) = terms.items()
            if c.__class__ is int and c == 1:
                return self.shift(coords, S)
        out = {}
        for S, c in terms.items():
            for i, v in self.shift(coords, S).items():
                _add_to(out, i, v * c)
        return out

    def shift(self, coords, S):
        """Coordinates of x t^s, S = M s, from the coordinates of x.

        On the hat basis t^s sends (alpha, 0, q) to (alpha, 0, q + s), and
        Dhat(v t^q) t^s = Dhat(v t^{q+s}) - s v t^{q+s-1} sends
        (alpha, 1, q) to (alpha, 1, q + s) minus s (alpha, 0, q + s - 1).
        Exact on hat levels 0 and 1; the product closure refuses any higher
        level.  Like every coordinate map of the solve, ``coords`` holds
        nonzero scalars under the ``_q`` rule, so t^0 copies it.
        """
        if not S:
            return dict(coords)
        keys = self.keys
        slots = self._slots
        M = self.scale
        out = {}
        for i, v in coords.items():
            ai, l, Q = keys[i]
            base = slots.get((l, Q + S))
            if base is None:
                base = self._slot(l, Q + S)
            # t^s is one-to-one on the keys: only a term of the level-1
            # rule below can be there first
            k = base + ai
            if k in out:
                _add_to(out, k, v)
            else:
                out[k] = v
            if l:
                # -s v = -S v / M, an int when M divides it
                x = -S * v
                if x.__class__ is int and not x % M:
                    x //= M
                else:
                    x = x * self.exponent(1)
                base = slots.get((0, Q + S - M))
                if base is None:
                    base = self._slot(0, Q + S - M)
                _add_to(out, base + ai, x)
        return out


class CentroidSolution:
    """One solution of the windowed system: a matrix over the loop basis.

    Entries map (domain key, codomain key) to a nonzero scalar of the
    base field, with keys of the form (eigenvector index, hat degree,
    exponent).  Every value ``field.scalar`` reads (an int, a Fraction, a
    scalar of a subfield) is lifted to one, and a zero value is dropped.
    The endomorphism is parity preserving and respects exponent cosets.
    """

    def __init__(self, frame, entries):
        """``entries`` maps pairs (domain id, codomain id) to scalars."""
        self._frame = frame
        self.entries = {}
        self._images = {}  # domain id -> {codomain id: lowered scalar}
        scalar = frame.field.scalar
        entry_key = frame.entry_key
        # one lift per distinct rational, shared: CycloScalars are immutable
        lifts = {}
        for (d, c), v in entries.items():
            # the lowered value, read once, and its lift
            if v.__class__ is CycloScalar:
                v = scalar(v)
                low = _lower(v)
            else:
                low = _q(v)
                v = lifts.get(low)
                if v is None:
                    v = lifts[low] = scalar(low)
            if low:
                self.entries[entry_key(d), entry_key(c)] = v
                image = self._images.get(d)
                if image is None:
                    image = self._images[d] = {}
                image[c] = low

    @property
    def loop(self):
        return self._frame.loop

    def image(self, dkey):
        """The image of a domain basis element, as codomain coordinates."""
        frame = self._frame
        return {frame.entry_key(c): frame.field.scalar(v) for c, v in
                self._images.get(frame.key_id(dkey), {}).items()}

    def apply(self, x):
        """Apply the endomorphism to an element of the solved domain."""
        frame = self._frame
        coords = {}
        for d, w in frame.coords(x).items():
            if d not in frame.domain:
                raise DomainError(
                    "element leaves the solved domain of window %s "
                    "(interior %s): no column for key (%d, %d, %s)"
                    % ((frame.window, frame.interior) + frame.entry_key(d)))
            for c, v in self._images.get(d, {}).items():
                _add_to(coords, frame.entry_key(c), v * w)
        return _hat_sum(frame.algebra, coords,
                        [vector for _, vector, _, _ in frame.alphas])

    def replace_entries(self, entries):
        """A sibling solution object with different matrix entries."""
        frame = self._frame
        return CentroidSolution(frame, {
            (frame.key_id(dkey), frame.key_id(ckey)): v
            for (dkey, ckey), v in entries.items()})

    def __repr__(self):
        return "CentroidSolution(%d entries on window %s)" % (
            len(self.entries), self._frame.window)


def _solve_mod2(equations, n):
    """One solution x of a linear system over GF(2), as a bit mask with
    every free unknown 0, or None when the system is inconsistent.  Bits
    0 .. n - 1 of an equation mark its unknowns, bit n its right-hand
    side."""
    pivots = {}  # lowest bit -> equation
    for eq in equations:
        while eq:
            low = eq & -eq
            if low >> n:  # the right-hand side alone: 0 = 1
                return None
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = eq
                break
            eq ^= piv
    # every other bit of a pivot lies above its lead, so solve top down
    x = 0
    for low in sorted(pivots, reverse=True):
        eq = pivots[low]
        if (bin(eq & x).count("1") + (eq >> n)) & 1:
            x |= low
    return x


def _gauge(frame, pairs):
    """Powers x_alpha in {0, 1} of i, one per record, on whose basis
    i^{x_alpha} v_alpha every record-pair coordinate is rational; the
    coordinates of ``pairs`` are rewritten on that basis in place.  All 0,
    with ``pairs`` left as they are, when every coordinate is rational
    already, when one is neither rational nor a rational multiple of i, or
    when no choice of powers clears them all (see the module docstring)."""
    keys = frame.keys
    field = frame.field
    n = len(frame.alphas)
    none = [0] * n
    i = None
    # [v_alpha lambda v_beta] has the coordinate c at a key of record
    # gamma; on the new basis it reads c i^{x_alpha + x_beta - x_gamma},
    # rational when c is and x_alpha + x_beta + x_gamma is even, or when c
    # is a rational multiple of i and the sum is odd
    equations = set()
    for (ai, bi), poly in pairs.items():
        for coords in poly.values():
            for k, v in coords.items():
                eq = 1 << ai ^ 1 << bi ^ 1 << keys[k][0]
                if v.__class__ is CycloScalar:
                    if i is None:
                        if field.conductor % 4:
                            return none
                        i = field.zeta(field.conductor // 4)
                    if _ratio(v, i) is None:
                        return none
                    eq |= 1 << n
                equations.add(eq)
    if i is None:
        return none
    x = _solve_mod2(equations, n)
    if x is None:
        return none
    gauge = [x >> ai & 1 for ai in range(n)]
    # c = r i^m times i^s is r i^{m + s}, and m + s is even: r or -r
    for (ai, bi), poly in pairs.items():
        for coords in poly.values():
            for k, v in coords.items():
                s = gauge[ai] + gauge[bi] - gauge[keys[k][0]]
                if v.__class__ is CycloScalar:
                    v, s = _ratio(v, i), s + 1
                coords[k] = v if s % 4 == 0 else -v
    return gauge


def _interior_brackets(frame):
    """(brackets, K): brackets[a][beta][n] is K times the coordinates of
    [hat(a) lambda v_beta]_n for interior keys a and records beta, on the
    basis i^{x_alpha} v_alpha, x = ``frame.gauge`` as ``_gauge`` sets it,
    derived from one bracket per record pair by CS3 on the left slot (see
    the module docstring).  K is the lcm of the denominators of the
    record-pair coordinates, those inside a CycloScalar included.  Every
    product and column of the solve is a t-shift of these, or derived."""
    records = sorted({frame.keys[b][0] for b in frame.interior0})
    pairs = {(ai, bi): {n: frame.coords(e) for n, e in lambda_bracket(
                frame.algebra, frame.alphas[ai][1],
                frame.alphas[bi][1]).coeffs.items()}
             for ai in records for bi in records}
    frame.gauge = _gauge(frame, pairs)
    K = math.lcm(*(_denominator(v) for poly in pairs.values()
                   for coords in poly.values() for v in coords.values()))
    if K > 1:
        for poly in pairs.values():
            for coords in poly.values():
                for i, v in coords.items():
                    coords[i] = _q(v * K)
    M = frame.scale
    brackets = {}
    for a in frame.interior0:
        ai, _, P = frame.keys[a]
        brackets[a] = {}
        for bi in records:
            got = {}
            for n, coords in pairs[ai, bi].items():
                for l, w in enumerate(_binomials(P, M, n)):
                    shifted = frame.times(coords, {P - l * M: w})
                    for i, v in shifted.items():
                        _add_to(got.setdefault(n - l, {}), i, v)
            brackets[a][bi] = {n: comps for n, comps in got.items() if comps}
    return brackets, K


def _ungauged(frame, unknowns, vec, lead):
    """The null vector ``vec`` of the system on the basis of ``_gauge``,
    on the records' own basis: entry (d, c) times i^{x_rec(c) - x_rec(d)},
    x = ``frame.gauge``, and the whole divided by that factor at ``lead``,
    so it stays 1 there, as ``_pivot_vector`` normalizes it."""
    keys, gauge = frame.keys, frame.gauge
    i = frame.field.zeta(frame.field.conductor // 4)
    units = (1, i, -1, -i)  # i^s, s mod 4

    def power(uid):
        d, c = unknowns[uid]
        return gauge[keys[c][0]] - gauge[keys[d][0]]

    s0 = power(lead)
    return {uid: v * units[(power(uid) - s0) % 4] for uid, v in vec.items()}


def _columns(frame, brackets, products, wanted):
    """The coordinates of [x lambda hat(c)]_n, for each id c in ``wanted``
    and for the level-0 sibling of each.

    ``brackets[beta]`` holds the coordinates of the lambda-coefficients of
    [x lambda v_beta], and ``products[b]`` those of [x lambda hat(b)] for
    each interior key b, the product closure's own maps, which are served
    as they are.  Any other level-0 column (beta, 0, q) shifts brackets by
    t^q; its sibling (beta, 1, q) is derived from it by the derivation
    rule.
    """
    keys = frame.keys
    slot = frame._slot
    out = dict(products)
    for c in wanted:
        bi, l, Q = keys[c]
        base = slot(0, Q) + bi
        if base not in out:
            out[base] = {n: frame.shift(coords, Q)
                         for n, coords in brackets[bi].items()}
        if not l:
            continue
        # [x lambda Dhat y] = (Dhat + lambda)[x lambda y]: component m is
        # Dhat c_m + m c_{m-1}, with Dhat (alpha, l, q) = (l + 1)
        # (alpha, l + 1, q) on the hat basis
        col = {}
        for n, comps in out[base].items():
            dcol = col.setdefault(n, {})
            up = col.setdefault(n + 1, {})
            for i, v in comps.items():
                ai, l, p = keys[i]
                _add_to(dcol, slot(l + 1, p) + ai, v * (l + 1) if l else v)
                _add_to(up, i, v * (n + 1) if n else v)
        out[c] = {n: comps for n, comps in col.items() if comps}
    return out


def _row_order(frame):
    """The interior keys a in the order their rows reach the eliminator:
    by record weight, then highest exponent first, so the short rows of
    the currents come before the Virasoro rows; the interior order when
    the weights do not grade.  Any order gives the same solutions (see
    the module docstring)."""
    if frame.weights is None:
        return frame.interior0
    keys, weights = frame.keys, frame.weights
    return sorted(frame.interior0,
                  key=lambda a: (weights[keys[a][0]], -keys[a][2]))


def centroid_basis(L, window, interior):
    """Exact basis of the windowed centroid system of a loop algebra.

    Returns solutions ordered so that every one acting as multiplication by
    a monic monomial t^j (|j| <= maxl, the table's lambda-degree) comes
    first (j increasing), followed by whatever directions remain, reduced
    against them.  A graded loop is solved on the shifts |s| <= maxl only,
    so its leftover directions come from those shifts, and its codomain
    reaches one step further down than an ungraded one (see the module
    docstring).
    """
    frame = _Frame(L, window, interior)
    A = frame.algebra
    M = frame.scale
    keys = frame.keys
    interior0 = frame.interior0

    # K times the brackets on the gauged basis: every row below is K times
    # the unscaled one, with the same pivots, and its null space maps back
    # to the records' own basis entry by entry
    brackets, _ = _interior_brackets(frame)

    # product closure: the solved domain is the interior and every
    # component of a_(n) b, which must stay in the window; the maps
    # a_(n) b stay, as the interior columns of a's rows
    closure = {a: _columns(frame, brackets[a], {}, interior0)
               for a in interior0}
    domain = set(interior0)
    for a, products in closure.items():
        for b, product in products.items():
            for coords in product.values():
                for i in coords:
                    if keys[i][1] > 1:
                        raise DomainError(
                            "table depth exceeds the windowed solver: "
                            "[%s lambda %s] reaches hat level %d"
                            % (A.elt_string(frame.hat(a)),
                               A.elt_string(frame.hat(b)), keys[i][1]))
                    domain.add(i)
    reach = max(abs(keys[i][2]) for i in domain)
    if reach > frame.window * M:
        raise DomainError(
            "window %s too small for the product closure: it reaches "
            "|q| = %s, the smallest window that covers it"
            % (frame.window, frame.exponent(reach)))
    domain = sorted(domain, key=lambda i: (keys[i][0], keys[i][2],
                                           keys[i][1]))
    frame.domain = set(domain)
    # graded: one step further down, where t^{-1} sends the lowest Dhat
    # key; the shift bound below keeps out the t^{-2} it would also admit
    dlo = frame.exponent(min(keys[i][2] for i in domain)
                         - (frame.maxl + (frame.weights is not None)) * M)
    dhi = frame.exponent(max(keys[i][2] for i in domain) + frame.maxl * M)

    codomain = [frame.key_id((bi, l, q))
                for bi, (res, _, _, _) in enumerate(frame.alphas)
                for q in L.exponents(res, dlo, dhi) for l in (0, 1)]

    # legal matrix positions: same parity, and the same residue, so the
    # exponent difference is an integer, and a shift |s| <= maxl, the range
    # a candidate t^j can live in (every shift is 0 when ungraded); shifts
    # are scaled by M, like the degrees
    sigs = frame.sigs
    degrees = frame.degrees
    bound = frame.maxl * M
    cod_of = {}
    for d in domain:
        if sigs[d] not in cod_of:
            cod_of[sigs[d]] = [c for c in codomain if sigs[c] == sigs[d]]
    unknowns = []  # unknown id -> (domain id, codomain id)
    cols = {}  # domain id -> {codomain id: unknown id}, the unpinned ones
    for d in domain:
        col = cols[d] = {}
        lo = degrees[d] - bound
        hi = degrees[d] + bound
        for c in cod_of[sigs[d]]:
            if lo <= degrees[c] <= hi:
                col[c] = len(unknowns)
                unknowns.append((d, c))

    # assemble the strict rows, n running one past the table degree so the
    # vanishing products constrain the unknowns too: [a lambda Dhat y] has
    # lambda^(maxl+1) coefficient (maxl+1) a_(maxl) y, and only these rows
    # see it, so without them the Dhat components of chi(b) go free (the
    # sl2 current loop then solves to a non-scalar direction beside r = 1);
    # each row is homogeneous in the shift, so rows of different shifts
    # share no column and one echelon holds them all; ``cols`` drops each
    # unknown an insert pins to 0, at the row that reduces to it alone or
    # at a substitution that empties its pivot row (``Echelon.pins``)
    pivots = Echelon()
    pins = pivots.pins
    for a in _row_order(frame):
        # b is its own level-0 column, for the product a_(n) b
        wanted = set(interior0)
        for b in interior0:
            wanted.update(cols[b])
        columns = _columns(frame, brackets[a], closure.pop(a), wanted)
        # a degree no column reaches gives only empty rows
        reached = set().union(*columns.values())
        degrees = [n for n in range(frame.maxl + 2) if n in reached]
        for b in interior0:
            product = columns[b]
            colb = cols[b]
            for n in degrees:
                eq = {}
                get = eq.get
                # row e reads a_(n) chi(b) - chi(a_(n) b): each unknown
                # (d, e) of chi(a_(n) b) meets it once, and so does each
                # unknown (b, c) of a_(n) chi(b), which the first side
                # holds too only when b is a component of a_(n) b
                comps = product.get(n)
                if comps is not None:
                    for d, w in comps.items():
                        w = -w
                        for c, uid in cols[d].items():
                            row = get(c)
                            if row is None:
                                eq[c] = {uid: w}
                            else:
                                row[uid] = w
                for c, uid in colb.items():
                    comps = columns[c].get(n)
                    if comps is None:
                        continue
                    for e, v in comps.items():
                        row = get(e)
                        if row is None:
                            eq[e] = {uid: v}
                        elif uid in row:
                            _add_to(row, uid, v)
                        else:
                            row[uid] = v
                for row in eq.values():
                    if row:
                        _echelon_insert(pivots, row)
                        if pins:
                            for lead in pins:
                                d, c = unknowns[lead]
                                del cols[d][c]
                            pins.clear()
        del columns  # free these columns before the next key's

    # the columns the rows mention are the leads and the keys of users, so
    # raw lives on them: its span solves every row, the others 0
    raw = _null_basis(pivots, pivots.users)

    def solution(vec):
        return CentroidSolution(frame, {unknowns[uid]: vec[uid]
                                        for uid in sorted(vec)})

    solutions = []
    accepted = []
    # t^j carries the domain keys at the extreme exponents past the
    # codomain, which reaches maxl beyond them, unless |j| <= maxl
    for j in range(-frame.maxl, frame.maxl + 1):
        try:
            entries = {cols[d][c]: v for d in domain
                       for c, v in frame.shift({d: 1}, j * M).items()}
        except KeyError:  # the image leaves the codomain or meets a pin
            continue
        if _in_null_span(raw, entries):
            accepted.append(entries)
            solutions.append(solution(entries))

    if len(accepted) < len(raw):
        # the monomials miss some directions: reduce the raw vectors against
        # them, and the ones left over are the remaining solutions
        chosen = Echelon()
        for entries in accepted:
            _echelon_insert(chosen, entries)
        for vec in raw.values():
            lead = _echelon_insert(chosen, vec)
            if lead is not None:
                vec = _pivot_vector(chosen, lead)
                if any(frame.gauge):
                    vec = _ungauged(frame, unknowns, vec, lead)
                solutions.append(solution(vec))
    return solutions


def is_scalar_action(chi):
    """The Laurent element r with chi = multiplication by r, if there is one.

    The test reads a candidate r off the first undecorated interior column
    and then checks every key of the solved domain, the interior and its
    product closure, against exact multiplication; any stray component,
    wrong eigenvector, or mismatch returns None.
    """
    frame = chi._frame
    keys = frame.keys
    images = chi._images

    d0 = frame.interior0[0]
    a0, _, Q0 = keys[d0]
    terms = {}  # scaled shift -> coefficient
    for c, v in images.get(d0, {}).items():
        ai, l, Q = keys[c]
        if ai != a0 or l != 0:
            return None
        terms[Q - Q0] = v
    r = LaurentElt(frame.field, {frame.exponent(S): v
                                 for S, v in terms.items()})
    if r.is_zero() and chi.entries:
        return None

    for i in frame.domain:
        if frame.times({i: 1}, terms) != images.get(i, {}):
            return None
    return r
