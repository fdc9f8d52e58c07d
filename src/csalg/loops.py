"""Twisted loop algebras and their algebras of modes.

A finite-order automorphism sigma of a conformal superalgebra A splits the
generator space V into eigenspaces A_i for the m-th roots of unity, and the
twisted loop algebra collects the pieces A_i (x) t^{i/m} inside A (x) S_m.
Quotienting the loop algebra by the image of (D + d/dt) leaves an ordinary
(non-conformal) superalgebra spanned by modes v_mu with mu in (1/m)Z; its
bracket is the lambda^(0) coefficient of ``lambda_bracket`` on the loop
elements, reduced modulo that image, which expands to

    [a_mu, b_nu] = sum_j  C(mu, j) (a_(j) b)_{mu + nu - j},

with C the generalized binomial.  The reduction reads the level-0
coordinates of ``core.to_hat_basis``: the image of Dhat = D + d/dt is
spanned by the hat basis vectors of positive level, so its hat
representation is the one home of the rule (D^{(j)} v)_mu =
(-1)^j C(mu, j) v_{mu-j}.  The module provides the eigenspace
splitting, membership and split-form checks for the loop algebra, and exact
mode arithmetic including the spectrum of the Virasoro mode L_1 acting on a
window of modes, whose fractional parts separate the twists.
"""

import math
from fractions import Fraction

from .core import (EVEN, ODD, ConfElt, find_virasoro, lambda_bracket,
                   to_hat_basis)
from .cyclotomic import _add_to, _q, _same_field, _scaled_terms, _signed_sum
from .errors import DomainError
from .linalg import _echelon, _reduce_against, null_space, rank, solve

__all__ = [
    "AlgElt",
    "L0Spectrum",
    "LoopAlgebra",
    "SplitReport",
    "alg_bracket",
    "alg_reduce",
    "bracket_closure",
    "eigenspaces",
    "l0_spectrum",
    "loop_membership",
    "split_check",
]

#: Most modes ``l0_spectrum`` brackets in one call.  It costs one mode
#: bracket per mode, so time grows linearly with the window: the odd
#: spectrum of the N=2 loop twisted by omega takes about 2.2 s at
#: W = 2499, which is 9,997 modes (``csalg loop n2.csa --auto omega
#: --window 2499``, whole process, median of three runs, CPython 3.11).
MAX_SPECTRUM_MODES = 10000


def _plain_vector(A, x, what):
    """Coordinates of a bare V (x) 1 element on the generator basis.

    ``what`` names x in the error, e.g. "image of L".
    """
    vec = [A.field.zero()] * A.ngens()
    for (g, j, q), c in x.terms.items():
        if j or q:
            raise DomainError(
                "%s: expected an element of the generator span, got a term "
                "with D-power %d and exponent %s" % (what, j, q))
        vec[g] = vec[g] + c
    return vec


class LoopAlgebra:
    """Eigenspace data of a twisted loop algebra L(A, sigma).

    ``eigenbasis[i]`` spans the xi_m^i eigenspace of the twist inside the
    generator span; the piece at exponent q of the loop algebra is the
    eigenspace for residue m*q mod m.  For a cocycle u this is L(u) when
    the twist is u(1)^{-1} (see ``eigenspaces``).  ``basis`` lists the
    same vectors flat, in eigenbasis order, as records (residue, element,
    coordinate list on the generators, parity), the parity None for a
    mixed vector.
    The class stores only V-level data: the twist commutes with D, so the
    D-closure is implied.
    """

    def __init__(self, base, order, eigenbasis):
        if order < 1:
            raise DomainError("twist order must be positive")
        if len(eigenbasis) != order:
            raise DomainError(
                "expected %d eigenspace lists, got %d"
                % (order, len(eigenbasis)))
        self.base = base
        self.order = order
        self.eigenbasis = [list(piece) for piece in eigenbasis]
        self.basis = []
        # one solved-form echelon per residue, for span membership
        self._spans = []
        for res, piece in enumerate(self.eigenbasis):
            rows = []
            for x in piece:
                if x.is_zero():
                    raise DomainError("zero vector in an eigenbasis")
                vec = _plain_vector(base, x, "eigenbasis record %d (residue "
                                    "%d)" % (len(self.basis), res))
                self.basis.append((res, x, vec, base.homogeneous_parity(x)))
                rows.append(vec)
            self._spans.append(_echelon(rows))

    def __repr__(self):
        dims = [len(piece) for piece in self.eigenbasis]
        return "LoopAlgebra(%s, order=%d, dims=%s)" % (
            self.base.name, self.order, dims)

    def piece_contains(self, i, vec):
        """Whether sparse coordinates lie in the residue-i eigenspace.

        ``vec`` maps generator indices to nonzero scalars.
        """
        return not _reduce_against(self._spans[i % self.order], vec)[0]

    def weights(self):
        """The conformal weight of every ``basis`` record, in record order.

        The weights must grade the base table: every term x^(n) D^(k) c
        of [a x b] has wt(c) + n + k = wt(a) + wt(b) - 1.  Raises
        DomainError naming the first generator without a weight, the
        first pair with a term of another weight, or a record whose
        generators carry different weights.
        """
        A = self.base
        names = [g.name for g in A.generators]
        wt = [g.weight for g in A.generators]
        if None in wt:
            raise DomainError("generator %s has no conformal weight"
                              % names[wt.index(None)])
        for (a, b) in sorted(A.table):
            want = wt[a] + wt[b] - 1
            for n, elt in A.table[(a, b)].coeffs.items():
                for (c, k, _) in elt.terms:
                    if wt[c] + n + k != want:
                        raise DomainError(
                            "[%s lambda %s] is not graded by the weights: "
                            "its term x^(%d) D^(%d) %s has weight %s, not %s"
                            % (names[a], names[b], n, k, names[c],
                               wt[c] + n + k, want))
        out = []
        for _, x, _, _ in self.basis:
            weights = {wt[g] for (g, _, _) in x.terms}
            if len(weights) != 1:
                raise DomainError("loop basis vector %s has no single "
                                  "conformal weight" % A.elt_string(x))
            out.append(weights.pop())
        return out

    def residue_of(self, mu):
        """The eigenvalue residue carried by the exponent mu, or None."""
        scaled = mu * self.order
        if scaled.denominator != 1:
            return None
        return int(scaled) % self.order

    def _exponent_steps(self, res, lo, hi):
        """(res/m, the range of k with lo <= res/m + k <= hi)."""
        start = _q(Fraction(res, self.order))
        return start, range(math.ceil(lo - start), math.floor(hi - start) + 1)

    def _exponent_count(self, res, lo, hi):
        """How many exponents ``exponents(res, lo, hi)`` lists, counted in
        int arithmetic: ``len`` refuses a range past ``sys.maxsize``."""
        steps = self._exponent_steps(res, lo, hi)[1]
        return max(0, steps.stop - steps.start)

    def exponents(self, res, lo, hi):
        """The exponents res/m + k with lo <= q <= hi, in increasing order."""
        start, steps = self._exponent_steps(res, lo, hi)
        return [start + k for k in steps]

    def mode(self, ref, mu, coeff=1):
        """The single mode  coeff * v_mu  as an AlgElt."""
        g = self.base.gen_index(ref)
        return AlgElt(self, {(g, mu): coeff})


def eigenspaces(A, sigma, m):
    """Split the generator span of A under an order-m twist.

    The images of the twist must lie inside V (x) 1; a twist that genuinely
    needs a t or a D term (a loop-dependent gauge) is refused by the image
    it names, since the eigenspace picture lives over the base ring.  The
    declared level is not read: a constant cocycle value keeps the level of
    the element that made it, such as a coboundary by t^{1/3}.

    The result pairs the xi^i-eigenspace of ``sigma`` with t^{i/m}, so it
    is the loop L(u) = {x : u(1)(gamma x) = x} of the cocycle u with
    u(1) = sigma^{-1}, gamma as in ``LaurentElt.galois``: v t^{p/m} is
    fixed exactly when u(1) v = xi^{-p} v.  The loop of u is built from
    the inverse of u(1).
    """
    if sigma.algebra != A:
        raise DomainError("morphism is defined on a different algebra")
    field = A.field
    n = A.ngens()
    cols = [_plain_vector(A, sigma.images[i],
                          "image of %s" % A.generators[i].name)
            for i in range(n)]
    if m < 1:
        raise DomainError("twist order must be positive")
    # The conductor bounds the order before any null space is built.
    xi = field.root_of_unity(m)

    # x^m - 1 has distinct roots in characteristic 0, so sigma^m = 1
    # exactly when the xi^i-eigenspaces, i < m, fill V.
    matrix = [[cols[c][r] for c in range(n)] for r in range(n)]
    eigenbasis = []
    for i in range(m):
        shift = xi ** i
        rows = [list(row) for row in matrix]
        for r in range(n):
            rows[r][r] = matrix[r][r] - shift
        basis = null_space(rows, n, field.zero())
        eigenbasis.append([ConfElt(field, {(g, 0, 0): c
                                           for g, c in enumerate(vec)})
                           for vec in basis])
    if sum(len(piece) for piece in eigenbasis) != n:
        raise DomainError("automorphism does not have order dividing %d" % m)
    return LoopAlgebra(A, m, eigenbasis)


def loop_membership(L, x):
    """Whether x in A (x) S lies in the twisted loop algebra.

    Works on the hat basis: each component Dhat^{(l)} (v (x) t^q) must have
    its V-part inside the eigenspace for residue m*q mod m.  Exponents off
    the (1/m)Z lattice fail immediately.
    """
    A = L.base
    _same_field(x.field, A.field, "element", "loop")
    grouped = {}
    for (g, l, q), c in to_hat_basis(A, x).items():
        _add_to(grouped.setdefault((l, q), {}), g, c)
    for (l, q), vec in grouped.items():
        i = L.residue_of(q)
        if i is None:
            return False
        if not L.piece_contains(i, vec):
            return False
    return True


def bracket_closure(L):
    """Whether the loop algebra is closed under the lambda-bracket.

    Brackets every pair of eigenbasis vectors, each at the lowest exponent
    i/m of its residue, and tests that every coefficient of the result
    lies in the loop algebra again.
    """
    A = L.base
    m = L.order
    for i, v, _, _ in L.basis:
        for j, w, _, _ in L.basis:
            poly = lambda_bracket(A, v.shift_t(Fraction(i, m)),
                                  w.shift_t(Fraction(j, m)))
            for elt in poly.coeffs.values():
                if not loop_membership(L, elt):
                    return False
    return True


class SplitReport:
    """Outcome of the split-form check on a window of exponents."""

    def __init__(self, window, injective, missed):
        self.window = window
        self.injective = injective
        self.missed = list(missed)

    @property
    def surjective(self):
        return not self.missed

    @property
    def bijective(self):
        return self.injective and self.surjective

    def _missed_strings(self):
        return ["%s (x) t^{%s}" % (name, q) for name, q in self.missed]

    def lines(self):
        out = ["multiplication map on window %s:" % self.window]
        out.append("  injective: %s" % ("yes" if self.injective else "NO"))
        if self.missed:
            out.append("  surjective: NO, missed:")
            out.extend("    " + m for m in self._missed_strings())
        else:
            out.append("  surjective: yes")
        return out

    def as_json(self):
        """The ``split`` part of the ``csalg loop --json`` payload."""
        return {"injective": self.injective, "surjective": self.surjective,
                "missed": self._missed_strings()}

    def __str__(self):
        return "\n".join(self.lines())


def split_check(L, window):
    """Check that base change to S_m flattens the loop algebra.

    The multiplication map sends each generator a (x) t^{i/m} (x) t^{l/m}
    of L (x)_R S_m to a (x) t^{(i+l)/m}; on a window of target exponents it
    is onto iff the eigenspaces jointly span V, and one-to-one iff their
    concatenated bases are independent.  Both are decided by exact rank.
    """
    W = Fraction(window)
    if W <= 0:
        raise DomainError("window must be positive")
    A = L.base
    field = A.field
    n = A.ngens()
    columns = [vec for _, _, vec, _ in L.basis]
    rows = [[col[r] for col in columns] for r in range(n)]
    injective = rank(rows) == len(columns)

    missing_gens = []
    for g in range(n):
        rhs = [field.one() if r == g else field.zero() for r in range(n)]
        if solve(rows, rhs, len(columns), field.zero()) is None:
            missing_gens.append(g)

    top = math.floor(W * L.order)
    missed = [(A.generators[g].name, Fraction(j, L.order))
              for j in range(-top, top + 1) for g in missing_gens] \
        if missing_gens else []
    return SplitReport(W, injective, missed)


class AlgElt:
    """A finite sum of modes  c * v_mu  in the algebra of a twisted loop.

    Terms are stored on the generator basis in reduced form (no D powers);
    construction checks that the vector sitting at each exponent lies in
    the eigenspace its coset prescribes, so ill-formed modes fail early.
    """

    __slots__ = ("loop", "terms")

    def __init__(self, loop, terms):
        base = loop.base
        clean = {}
        for (g, mu), c in terms.items():
            _add_to(clean, (base.gen_index(g), _q(mu)),
                    base.field.scalar(c))
        self.loop = loop
        self.terms = clean
        self._check_cosets()

    @classmethod
    def _trusted(cls, loop, terms):
        """An element on ``terms`` as given, for callers whose terms are
        normalized and in their eigenspaces; skips all of ``__init__``."""
        self = object.__new__(cls)
        self.loop = loop
        self.terms = terms
        return self

    def _check_cosets(self):
        grouped = {}
        for (g, mu), c in self.terms.items():
            _add_to(grouped.setdefault(mu, {}), g, c)
        for mu, vec in grouped.items():
            i = self.loop.residue_of(mu)
            if i is not None and self.loop.piece_contains(i, vec):
                continue
            mode = AlgElt._trusted(self.loop, {
                k: c for k, c in self.terms.items() if k[1] == mu})
            if i is None:
                raise DomainError(
                    "mode %s is outside the exponent lattice (1/%d)Z"
                    % (mode, self.loop.order))
            raise DomainError(
                "mode %s misses its eigenspace: the loop has no t^{%s} "
                "mode in that direction (residue %d)" % (mode, mu, i))

    def is_zero(self):
        return not self.terms

    def _merge(self, other, flip):
        if not isinstance(other, AlgElt):
            return NotImplemented
        if other.loop is not self.loop:
            raise DomainError("modes belong to different loop algebras")
        terms = dict(self.terms)
        for k, c in other.terms.items():
            _add_to(terms, k, -c if flip else c)
        return AlgElt._trusted(self.loop, terms)

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = self.loop.base.field.scalar(c)
        if c.is_zero():
            return AlgElt._trusted(self.loop, {})
        return AlgElt._trusted(self.loop,
                               {k: v * c for k, v in self.terms.items()})

    __mul__ = scale
    __rmul__ = scale

    def __eq__(self, other):
        if not isinstance(other, AlgElt):
            return NotImplemented
        return self.loop is other.loop and self.terms == other.terms

    __hash__ = None

    def __str__(self):
        names = self.loop.base.generators
        parts = []
        for (g, mu) in sorted(self.terms):
            parts.extend(_scaled_terms(self.terms[(g, mu)],
                                       "%s[%s]" % (names[g].name, mu)))
        return _signed_sum(parts)

    def __repr__(self):
        return "AlgElt(%s)" % self


def alg_reduce(L, raw):
    """Normalize decorated modes: (D^{(j)} v)_mu = (-1)^j C(mu,j) v_{mu-j}.

    ``raw`` maps (generator, D-power, mode) to a scalar; a negative
    D-power is refused.  Killing the image of Dhat = D + d/dt leaves the
    level-0 coordinates of the hat basis, so the raw terms are lifted to
    an element and read off ``to_hat_basis``, which holds the decoration
    rule.
    """
    base = L.base
    terms = {}
    for (g, j, mu), c in raw.items():
        g = base.gen_index(g)
        if j < 0:
            raise DomainError("negative D-power %s on %s[%s]"
                              % (j, base.generators[g].name, mu))
        _add_to(terms, (g, j, _q(mu)), base.field.scalar(c))
    hat = to_hat_basis(base, ConfElt._trusted(base.field, terms))
    return AlgElt(L, {(g, mu): c for (g, l, mu), c in hat.items() if not l})


def alg_bracket(L, x, y):
    """The mode bracket: the lambda^(0) coefficient of the loop bracket.

    x and y lift to their loop elements sum c v_g (x) t^mu; the 0-th
    product of the lifts, reduced modulo the image of (D + d/dt), is
    [x, y].  It expands to [a_mu, b_nu] = sum_j C(mu,j) (a_(j) b)_{mu+nu-j}.
    """
    if x.loop is not L or y.loop is not L:
        raise DomainError("modes belong to a different loop algebra")
    A = L.base
    x, y = (ConfElt(A.field, {(g, 0, mu): c
                              for (g, mu), c in z.terms.items()})
            for z in (x, y))
    return alg_reduce(L, lambda_bracket(A, x, y).get(0).terms)


class L0Spectrum:
    """Exact eigenvalues of the Virasoro mode L_1 on a mode window."""

    def __init__(self, eigenvalues):
        self.eigenvalues = frozenset(eigenvalues)
        self.fractional_parts = frozenset(
            v - math.floor(v) for v in self.eigenvalues)

    def __repr__(self):
        return "L0Spectrum(%s)" % sorted(self.eigenvalues)


def l0_spectrum(L, parity, window):
    """Spectrum of x -> [L_1, x] on one parity's modes within a window.

    Each eigenbasis vector of weight h contributes eigenvalues h - 1 - mu
    over its coset of modes; only the fractional parts survive widening the
    window, so they are the invariant worth comparing between twists.
    """
    if parity in ("even", EVEN):
        parity = EVEN
    elif parity in ("odd", ODD):
        parity = ODD
    else:
        raise DomainError("parity must be even or odd")
    W = Fraction(window)
    vira = find_virasoro(L.base)
    if vira is None:
        raise DomainError("algebra has no Virasoro generator")
    if not L.piece_contains(0, {vira: L.base.field.one()}):
        raise DomainError("twist does not fix the Virasoro generator")

    chosen = [(i, a) for i, a, _, par in L.basis if par == parity]
    count = sum(L._exponent_count(i, -W, W) for i, _ in chosen)
    if count > MAX_SPECTRUM_MODES:
        raise DomainError(
            "window %s holds %d modes, above the bound %d"
            % (W, count, MAX_SPECTRUM_MODES))

    lmode = L.mode(vira, 1)
    values = set()
    zero = L.base.field.zero()
    for i, a in chosen:
        # every mode of a record has the record's first coefficient first
        (g0, _, _), c0 = next(iter(a.terms.items()))
        inverse = c0.inverse()
        for mu in L.exponents(i, -W, W):
            am = AlgElt._trusted(
                L, {(g, mu): c for (g, _, _), c in a.terms.items()})
            image = alg_bracket(L, lmode, am)
            if image.is_zero():
                values.add(Fraction(0))
                continue
            # a zero ratio scales am to zero, which the nonzero image is not
            ratio = image.terms.get((g0, mu), zero) * inverse
            if image != am.scale(ratio):
                raise DomainError(
                    "L_1 action is not diagonal on the mode basis: "
                    "[L_1, %s] = %s" % (am, image))
            val = ratio.as_rational()
            if val is None:
                raise DomainError(
                    "non-rational Virasoro eigenvalue %s on the mode %s"
                    % (ratio, am))
            values.add(val)
    return L0Spectrum(values)
