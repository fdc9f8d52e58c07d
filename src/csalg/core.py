"""Conformal superalgebra elements and the lambda-bracket evaluator.

An algebra is presented by finitely many generators and a bracket table
on generator pairs.  Elements of the base-changed algebra A (x) S_m are
sparse sums  c * D^{(j)} v (x) t^q  where D is the algebra derivation in
divided powers.  Brackets of decorated elements are evaluated through
three layers:

  * table lookup on generator pairs,
  * the sesquilinearity rules for D-decorated arguments,
  * the base-change rule for t-decorated arguments, which trades powers
    of t for derivatives in lambda.

All lambda-polynomials are kept in divided powers, so every coefficient
that the built-in algebras produce stays an exact rational or cyclotomic
number.

One kernel, ``_bracket_terms``, applies all three.  The bracket of two
decorated generators is built once per algebra in closed form from the
table (``_decorated_pair``) and cached as tuples.  The kernel works on
lowered scalars: a rational coefficient is held as its ``_q`` value (an
int or a Fraction) and only an irrational one stays a ``CycloScalar``.
Exponents sit on the integer lattice (1/M)Z, M the lcm of the exponent
denominators of both arguments, as the ints M q, and the base-change
weights C(q, l) sit over one denominator S per bracket, as ints.
``lambda_bracket`` lifts the kernel's maps once into ``ConfElt``s and a
``LambdaPoly``.  The CS1-CS3 spot checks of ``check_axioms`` run on one
fixed list of trials; CS1 and CS3 read the kernel's maps as they are,
against one public bracket per trial.  Its Jacobi sweep has only t-free
arguments, so it sums the cached decorated pairs directly, read flat as
int polynomials in zeta, into one difference map per triple.  Under
skew-symmetry J_abc(lambda, mu) = -p(a, b) J_bac(mu, lambda), so every
nonzero cell lies inside the vanishing bound maxl + maxd + 2 in lambda,
and a skew-symmetric table first has one ordering of each generator
multiset checked; each skew-symmetry pair is first checked in one
orientation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial, lcm

from .cyclotomic import (CycloScalar, _add_to, _denominator, _lower, _q,
                         _scaled_terms, _signed_sum)
from .errors import CsalgError, DomainError, TableInconsistencyError
from .laurent import binom_frac

__all__ = [
    "EVEN",
    "ODD",
    "AlgebraDef",
    "AxiomReport",
    "ConfElt",
    "Generator",
    "LambdaPoly",
    "apply_partial",
    "apply_partial_algebra",
    "check_axioms",
    "complete_table_cs4",
    "find_virasoro",
    "from_hat_basis",
    "lambda_bracket",
    "n_product",
    "to_hat_basis",
]

EVEN = 0
ODD = 1


class Generator:
    """A generator: name, parity, and optional conformal weight."""

    __slots__ = ("name", "parity", "weight")

    def __init__(self, name, parity, weight=None):
        self.name = name
        self.parity = parity
        self.weight = None if weight is None else Fraction(weight)

    def __eq__(self, other):
        if not isinstance(other, Generator):
            return NotImplemented
        return (self.name == other.name and self.parity == other.parity
                and self.weight == other.weight)

    __hash__ = None

    def __repr__(self):
        tag = "odd" if self.parity else "even"
        if self.weight is not None:
            tag += ", weight %s" % self.weight
        return "Generator(%s: %s)" % (self.name, tag)


class ConfElt:
    """A sparse element of A (x) S_m.

    ``terms`` maps (generator index, divided D-power, exponent of t) to
    a nonzero cyclotomic scalar.  The exponent follows the ``_q`` rule of
    ``cyclotomic``: an ``int`` when integral, a ``Fraction`` otherwise, so
    the keys hash fast; an integral ``Fraction`` key still compares and
    hashes equal to its ``int``.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        self.field = field
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    @classmethod
    def _trusted(cls, field, terms):
        """An element on ``terms`` as given, for callers that hold no zero
        scalar; skips the zero filter of ``__init__``."""
        self = object.__new__(cls)
        self.field = field
        self.terms = terms
        return self

    # -- queries ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    @property
    def level(self):
        """The lcm of the exponent denominators, 1 when every one is an int."""
        m = 1
        for k in self.terms:
            if k[2].__class__ is not int:
                m = lcm(m, k[2].denominator)
        return m

    def max_dpow(self):
        return max((k[1] for k in self.terms), default=0)

    # -- linear structure ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ConfElt):
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            _add_to(out, k, v)
        return ConfElt(self.field, out)

    def __neg__(self):
        return ConfElt._trusted(self.field,
                                {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not c:
            return ConfElt._trusted(self.field, {})
        return ConfElt._trusted(self.field,
                                {k: v * c for k, v in self.terms.items()})

    __mul__ = scale
    __rmul__ = scale

    def shift_t(self, dq):
        """Multiply by the monomial t^{dq}."""
        if not dq:
            return self
        return ConfElt._trusted(self.field,
                                {(g, j, _q(q + dq)): c
                                 for (g, j, q), c in self.terms.items()})

    def mul_laurent(self, r):
        """Multiply by an arbitrary Laurent element (into the t slot)."""
        out = ConfElt(self.field, {})
        for q, c in r.terms.items():
            out = out + self.shift_t(q).scale(c)
        return out

    def apply_dpow(self, l):
        """Apply the divided power D^{(l)} of the algebra derivation only."""
        if l == 0:
            return self
        out = {}
        for (g, j, q), c in self.terms.items():
            out[(g, j + l, q)] = c * binom_frac(j + l, j)
        return ConfElt._trusted(self.field, out)

    def __eq__(self, other):
        if not isinstance(other, ConfElt):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        return "<ConfElt %d terms>" % len(self.terms)


class LambdaPoly:
    """A polynomial in divided powers of lambda with ConfElt coefficients."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = {n: e for n, e in coeffs.items() if not e.is_zero()}

    @classmethod
    def _trusted(cls, field, coeffs):
        """A polynomial on ``coeffs`` as given, for callers that hold no
        zero coefficient; skips the zero filter of ``__init__``."""
        self = object.__new__(cls)
        self.field = field
        self.coeffs = coeffs
        return self

    def is_zero(self):
        return not self.coeffs

    def max_degree(self):
        return max(self.coeffs, default=0)

    def get(self, n):
        got = self.coeffs.get(n)
        return got if got is not None else ConfElt(self.field, {})

    def __add__(self, other):
        out = dict(self.coeffs)
        for n, e in other.coeffs.items():
            _add_to(out, n, e)
        return LambdaPoly(self.field, out)

    def __neg__(self):
        return LambdaPoly._trusted(self.field,
                                   {n: -e for n, e in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return LambdaPoly(self.field,
                          {n: e.scale(c) for n, e in self.coeffs.items()})

    def map_coeffs(self, f):
        return LambdaPoly(self.field,
                          {n: f(e) for n, e in self.coeffs.items()})

    def lambda_shift(self, j):
        """Multiply by lambda^{(j)}; divided powers give binomial factors."""
        if j == 0:
            return self
        return LambdaPoly._trusted(self.field,
                                   {n + j: e.scale(binom_frac(n + j, j))
                                    for n, e in self.coeffs.items()})

    def lambda_deriv(self, l):
        """Apply (d/d lambda)^l, which simply drops the index by l."""
        if l == 0:
            return self
        return LambdaPoly._trusted(self.field,
                                   {n - l: e for n, e in self.coeffs.items()
                                    if n >= l})

    def __eq__(self, other):
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def __repr__(self):
        return "<LambdaPoly degrees %s>" % sorted(self.coeffs)


class AlgebraDef:
    """A conformal superalgebra given by generators and a bracket table.

    The table maps ordered generator index pairs to LambdaPoly entries
    whose coefficients are t-free.  Factories and the parser complete
    partially given tables through skew-symmetry before constructing
    instances meant for computation.
    """

    def __init__(self, name, field, generators, table):
        self.name = name
        self.field = field
        self.generators = list(generators)
        self.table = dict(table)
        names = [g.name for g in self.generators]
        self.index = {n: i for i, n in enumerate(names)}
        if len(self.index) != len(names):
            dup = next(n for k, n in enumerate(names) if n in names[:k])
            raise CsalgError("duplicate generator name %r in %r" % (dup, name))
        self._pair_cache = {}
        self._hat_cache = {}

    # -- basic access ---------------------------------------------------

    def ngens(self):
        return len(self.generators)

    def gen_index(self, ref):
        if isinstance(ref, int):
            if not 0 <= ref < len(self.generators):
                raise CsalgError("unknown generator index %r" % ref)
            return ref
        got = self.index.get(ref)
        if got is None:
            raise CsalgError("unknown generator %r" % ref)
        return got

    def parity(self, i):
        return self.generators[i].parity

    def parity_sign(self, i, j):
        return -1 if self.parity(i) and self.parity(j) else 1

    def zero_elt(self):
        return ConfElt(self.field, {})

    def elt(self, ref, dpow=0, q=0, coeff=1):
        """One decorated term  coeff * D^{(dpow)} gen (x) t^q."""
        i = self.gen_index(ref)
        if dpow < 0:
            raise DomainError("negative D-power %s on %s"
                              % (dpow, self.generators[i].name))
        return ConfElt(self.field,
                       {(i, dpow, _q(q)): self.field.scalar(coeff)})

    def zero_poly(self):
        return LambdaPoly(self.field, {})

    def table_degrees(self):
        """(max lambda degree, max D degree) over the stored table."""
        maxl = 0
        maxd = 0
        for poly in self.table.values():
            for n, elt in poly.coeffs.items():
                maxl = max(maxl, n)
                maxd = max(maxd, elt.max_dpow())
        return maxl, maxd

    def homogeneous_parity(self, x):
        """0/1 for homogeneous nonzero elements, None for mixed or zero."""
        parities = {self.parity(g) for (g, _, _) in x.terms}
        if len(parities) == 1:
            return parities.pop()
        return None

    def __eq__(self, other):
        if not isinstance(other, AlgebraDef):
            return NotImplemented
        return (self.name == other.name
                and self.field is other.field
                and self.generators == other.generators
                and self.table == other.table)

    __hash__ = None

    def __repr__(self):
        return "AlgebraDef(%s, %d generators)" % (self.name, self.ngens())

    # -- printing ---------------------------------------------------------

    def elt_string(self, x):
        parts = []
        for (g, j, q) in sorted(x.terms):
            symbols = []
            if j == 1:
                symbols.append("D")
            elif j > 1:
                symbols.append("D^(%d)" % j)
            symbols.append(self.generators[g].name)
            if q:
                symbols.append("t^{%s}" % q)
            parts.extend(_scaled_terms(x.terms[(g, j, q)], " ".join(symbols)))
        return _signed_sum(parts)

    def poly_string(self, poly):
        if poly.is_zero():
            return "0"
        parts = []
        for n in sorted(poly.coeffs):
            body = self.elt_string(poly.coeffs[n])
            if n == 0:
                parts.append(body)
            else:
                head = "x" if n == 1 else "x^(%d)" % n
                parts.append("%s*(%s)" % (head, body))
        return " + ".join(parts)


# -- the derivation ----------------------------------------------------


def apply_partial_algebra(A, x):
    """Apply D_A (x) 1 only: raises the divided D-power."""
    return x.apply_dpow(1)


def apply_partial(A, x):
    """The full derivation of A (x) S: D_A (x) 1 + 1 (x) d/dt."""
    return ConfElt._trusted(x.field, _partial_terms(x.terms))


def _partial_terms(terms, unit=1):
    """The full derivation on a map {(g, j, Q): c} whose exponents are
    Q = unit * q: D^{(j)} v t^q goes to (j + 1) D^{(j+1)} v t^q +
    q D^{(j)} v t^{q-1}.  The scalars may be lowered; none of the result
    is zero.  An int c takes c q = c Q / unit by exact int division where
    unit divides c Q, and as one Fraction only where it does not."""
    acc = {}
    for (g, j, Q), c in terms.items():
        _add_to(acc, (g, j + 1, Q), c * (j + 1))
        if Q:
            if unit == 1:
                cq = c * Q
            elif c.__class__ is int:
                cq = c * Q
                cq = cq // unit if not cq % unit else Fraction(cq, unit)
            else:
                cq = c * _q(Fraction(Q, unit))
            _add_to(acc, (g, j, _q(Q - unit)), cq)
    return acc


def apply_partial_power(A, x, l):
    """Divided power of the full derivation."""
    out = x
    for i in range(l):
        out = apply_partial(A, out).scale(Fraction(1, i + 1))
    return out


# -- bracket evaluation --------------------------------------------------


def _table_poly(A, g1, g2):
    got = A.table.get((g1, g2))
    if got is None:
        raise CsalgError(
            "bracket table has no entry for (%s, %s); complete the table first"
            % (A.generators[g1].name, A.generators[g2].name))
    return got


def _decorated_pair(A, g1, j1, g2, j2):
    """[D^{(j1)} v_{g1}  lambda  D^{(j2)} v_{g2}] with t-free arguments, as
    a tuple of (n, ((g, j, c), ...)) for c lambda^{(n)} D^{(j)} v_g, each c
    lowered under the ``_q`` rule; memoized in ``A._pair_cache``.

    The undecorated pair (j1 = j2 = 0) is the table entry with its scalars
    lowered, built with no multiplication.  A decorated pair decorates the
    cached undecorated one, whose scalars are lowered already.
    Sesquilinearity gives (-lambda)^{(j1)} (D + lambda)^{(j2)} [v_{g1}
    lambda v_{g2}] with (D + lambda)^{(j2)} = sum_{u+w=j2} D^{(u)}
    lambda^{(w)}, and divided powers multiply as lambda^{(a)} lambda^{(b)}
    = C(a+b, a) lambda^{(a+b)}, likewise for D.  So the term
    c lambda^{(n)} D^{(j)} v lands at lambda^{(n+w+j1)} D^{(j+u)} v with
    weight (-1)^{j1} C(n+w, w) C(n+w+j1, j1) C(j+u, u).
    """
    key = (g1, j1, g2, j2)
    got = A._pair_cache.get(key)
    if got is not None:
        return got
    if not (j1 or j2):
        got = A._pair_cache[key] = tuple(
            (n, tuple((g, j, _lower(c)) for (g, j, _), c in e.terms.items()))
            for n, e in _table_poly(A, g1, g2).coeffs.items() if e.terms)
        return got
    base = _decorated_pair(A, g1, 0, g2, 0)
    sign = -1 if j1 % 2 else 1
    acc = {}  # n -> {(g, j): c}
    for u in range(j2 + 1):
        w = j2 - u
        for n, terms in base:
            f = sign * comb(n + w, w) * comb(n + w + j1, j1)
            out = acc.setdefault(n + w + j1, {})
            for g, j, c in terms:
                wt = f * comb(j + u, u)
                _add_to(out, (g, j + u), c if wt == 1 else c * wt)
    got = A._pair_cache[key] = tuple(
        (n, tuple((g, j, c) for (g, j), c in terms.items()))
        for n, terms in acc.items() if terms)
    return got


def _binomials(Q, M, top, S=1):
    """S C(Q/M, l) for l = 0..top under the ``_q`` rule, each from the one
    before; the list stops short of the first zero (Q/M a smaller
    nonnegative integer).

    With S = T! M^T and top <= T every entry is an int, S C(Q/M, l) =
    P_l (T!/l!) M^(T-l) with P_l = prod_{i<l} (Q - i M), and so is every
    entry for an integral Q/M, whatever S and top; each step is then an
    exact int division.
    """
    out = [S]
    w = S
    for l in range(1, top + 1):
        num, den = w * (Q - (l - 1) * M), l * M
        if w.__class__ is int and not num % den:
            w = num // den
        else:
            w = _q(Fraction(num, den))
        if not w:
            break
        out.append(w)
    return out


def _bracket_terms(A, x, y):
    """The lambda-bracket [x lambda y] as ({n: {(g, j, Q): c}}, M).

    The kernel of ``lambda_bracket`` and of the CS1 and CS3 spot checks.
    Scalars are lowered once under the ``_q`` rule, and exponents ride on
    the lattice (1/M)Z, M the lcm of the exponent denominators of x and y,
    as the ints Q = M q.  The base-change rule weighs the
    lambda-derivatives of a left term c1 D^{(j1)} v t^{q1} by C(q1, l).
    All weights of one bracket share the denominator S = T! M^T, T the top
    lambda-degree over the left terms whose exponent is off Z: each
    weight S C(q1, l) is an int (``_binomials``), and each output
    coefficient is divided by S once at the end, by exact int division
    where S divides it.  When every left exponent is integral S = 1 and
    nothing is divided.  A degree whose terms cancel maps to an empty dict.
    """
    M = lcm(x.level, y.level)
    right = [(g2, j2, q2.numerator * (M // q2.denominator), _lower(c2))
             for (g2, j2, q2), c2 in y.terms.items()]
    lefts = []
    T = 0
    for (g1, j1, q1), c1 in x.terms.items():
        Q1 = q1.numerator * (M // q1.denominator)
        c1 = _lower(c1)
        left_unit = c1.__class__ is int and c1 == 1
        pairs = []
        for g2, j2, Q2, c2 in right:
            pair = _decorated_pair(A, g1, j1, g2, j2)
            if pair:
                pairs.append((pair, Q1 + Q2,
                              c2 if left_unit else _lower(c1 * c2)))
        top = max((n for pair, _, _ in pairs for n, _ in pair),
                  default=0) if Q1 else 0
        lefts.append((Q1, top, pairs))
        if Q1 % M and top > T:
            T = top
    S = factorial(T) * M ** T
    acc = {}  # n -> {(g, j, Q): S times the coefficient}
    for Q1, top, pairs in lefts:
        # base-change rule: powers of t on the left argument turn into
        # lambda-derivatives with the weights S C(q1, l)
        weights = _binomials(Q1, M, top, S)
        for pair, Q, c in pairs:
            for l, w in enumerate(weights):
                cw = c * w if w != 1 else c
                unit = cw.__class__ is int and cw == 1  # v * 1 is v
                dQ = Q - l * M
                for n, terms in pair:
                    if n < l:
                        continue
                    out = acc.setdefault(n - l, {})
                    for g, j, v in terms:
                        _add_to(out, (g, j, dQ), v if unit else v * cw)
    if S != 1:
        inverse = Fraction(1, S)
        for terms in acc.values():
            for k, c in terms.items():
                if c.__class__ is not int:
                    terms[k] = c * inverse
                elif c % S:
                    terms[k] = Fraction(c, S)
                else:
                    terms[k] = c // S
    return acc, M


def lambda_bracket(A, x, y):
    """Full lambda-bracket of two (possibly decorated) elements: the result
    of ``_bracket_terms`` lifted once, rationals to ``CycloScalar`` and
    lattice exponents back to q, into elements known to hold no zero."""
    acc, M = _bracket_terms(A, x, y)
    field = A.field
    coeffs = {}
    for n, terms in acc.items():
        if not terms:
            continue
        lifted = {}
        for (g, j, Q), v in terms.items():
            if v.__class__ is not CycloScalar:
                v = CycloScalar(field, {0: v})
            if M != 1:
                Q = Q // M if not Q % M else Fraction(Q, M)
            lifted[(g, j, Q)] = v
        coeffs[n] = ConfElt._trusted(field, lifted)
    return LambdaPoly._trusted(field, coeffs)


def n_product(A, x, y, n):
    """The n-th product: coefficient of lambda^{(n)} in the bracket."""
    return lambda_bracket(A, x, y).get(n)


# -- skew-symmetry completion ---------------------------------------------


def cs4_transform(A, i, j):
    """The bracket [v_i lambda v_j] that skew-symmetry derives from (j, i).

    With [v_j lambda v_i] = sum_m lambda^{(m)} e_m, skew-symmetry reads
    [v_i lambda v_j] = -p(i, j) sum_m (-lambda - D)^{(m)} e_m, and
    (-lambda - D)^{(m)} = (-1)^m sum_{l=0}^{m} lambda^{(m-l)} D^{(l)}, so
    each term adds -p(i, j) (-1)^m D^{(l)} e_m at degree m - l.
    """
    src = _table_poly(A, j, i)
    p = A.parity_sign(i, j)
    out = {}
    for m, e in sorted(src.coeffs.items()):
        negate = p == (-1) ** m  # -p(i, j) (-1)^m = -1
        for n in range(m + 1):
            acc = out.setdefault(n, {})
            for k, v in e.apply_dpow(m - n).terms.items():
                _add_to(acc, k, -v if negate else v)
    return LambdaPoly(A.field, {n: ConfElt._trusted(A.field, terms)
                                for n, terms in out.items()})


def complete_table_cs4(A):
    """Fill missing table orientations via skew-symmetry; verify given ones.

    Returns a new AlgebraDef with a total table; a pair given in neither
    orientation is 0.  Raises TableInconsistencyError when both
    orientations of a pair are present but contradict each other (this
    includes diagonal pairs, which must be self-consistent).
    """
    table = dict(A.table)
    n = len(A.generators)
    for i in range(n):
        for j in range(i, n):
            # on the diagonal both orientations are the one key (i, i)
            have_ij = (i, j) in A.table
            have_ji = (j, i) in A.table
            if have_ij and have_ji:
                bad = _cs4_mismatch(A, i, j)
                if bad is not None:
                    raise TableInconsistencyError(
                        (A.generators[i].name, A.generators[j].name), bad)
            elif have_ji:
                table[(i, j)] = cs4_transform(A, i, j)
            elif have_ij:
                table[(j, i)] = cs4_transform(A, j, i)
            else:
                table[(i, j)] = A.zero_poly()
                table[(j, i)] = A.zero_poly()
    return AlgebraDef(A.name, A.field, A.generators, table)


def _cs4_mismatch(A, i, j):
    """The lowest degree where the stored (i, j) and the transform of
    (j, i) differ, or None."""
    expect = cs4_transform(A, i, j)
    stored = _table_poly(A, i, j)
    if stored == expect:
        return None
    return min(n for n in set(stored.coeffs) | set(expect.coeffs)
               if stored.get(n) != expect.get(n))


# -- axiom verification ----------------------------------------------------


class AxiomFailure:
    __slots__ = ("axiom", "location", "detail")

    def __init__(self, axiom, location, detail=""):
        self.axiom = axiom
        self.location = location
        self.detail = detail

    def __repr__(self):
        return "AxiomFailure(%s at %s%s)" % (
            self.axiom, self.location,
            ": " + self.detail if self.detail else "")


def _plain_verdict(ok):
    return "pass" if ok else "FAIL"


class AxiomReport:
    """Outcome of check_axioms: per-axiom verdicts plus failure details."""

    def __init__(self, name):
        self.name = name
        self.verdicts = {}
        self.failures = []
        self.counts = {}

    @property
    def ok(self):
        return all(self.verdicts.values())

    def fail(self, axiom, location, detail=""):
        self.failures.append(AxiomFailure(axiom, location, detail))
        self.verdicts[axiom] = False

    def lines(self, verdict=_plain_verdict):
        """The report as printed by ``csalg check``: a header, one line per
        axiom, and the first ten failures.  ``verdict`` renders a boolean
        verdict."""
        out = ["algebra %s:" % self.name]
        for axiom in sorted(self.verdicts):
            count = self.counts.get(axiom)
            suffix = " (%s)" % count if count else ""
            out.append("  %s: %s%s" % (axiom, verdict(self.verdicts[axiom]),
                                       suffix))
        for f in self.failures[:10]:
            out.append("    %s at %s %s" % (f.axiom, f.location, f.detail))
        return out

    def as_json(self):
        """The ``csalg check --json`` payload."""
        return {
            "algebra": self.name,
            "ok": self.ok,
            "verdicts": dict(self.verdicts),
            "counts": {k: str(v) for k, v in self.counts.items()},
            "failures": [{"axiom": f.axiom, "location": str(f.location),
                          "detail": f.detail} for f in self.failures],
        }

    def __str__(self):
        return "\n".join(self.lines())


#: The CS1-CS3 trials of ``check_axioms``, one row each: the terms of x
#: and of y, each (generator offset, D-power, exponent, coefficient), and
#: a shift q of t.
_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)
_TRIALS = (
    (((0, 0, 0, 1),), ((5, 0, 0, 1),), 1),
    (((0, 1, 1, -2), (2, 0, _HALF, 1)), ((5, 1, _HALF, 1),), -1),
    (((0, 2, -1, 1),), ((5, 2, 1, 3), (1, 0, 0, -1)), 2),
    (((0, 0, _THIRD, 3), (3, 1, 2, 1)), ((5, 0, _HALF, -2),), -2),
    (((0, 1, -_HALF, 1),), ((5, 1, -1, 1),), 1),
    (((0, 2, 2, -1), (6, 0, -1, 2)), ((5, 2, 0, 1),), -1),
    (((0, 0, _HALF, 2),), ((5, 1, 1, 1), (2, 2, -1, -1)), 2),
    (((0, 1, 0, 1), (4, 2, _THIRD, -1)), ((5, 0, -1, 2),), -2),
)


def _trials(A):
    """The rows of ``_TRIALS`` on A as (x, y, q), x and y on int scalars as
    the kernel lowers them.  Row k puts a term on generator k + offset
    modulo the generator count; A without generators has no trials."""
    n = A.ngens()

    def elt(k, terms):
        return ConfElt._trusted(A.field, {((k + s) % n, j, q): c
                                          for s, j, q, c in terms})

    return [(elt(k, left), elt(k, right), q)
            for k, (left, right, q) in enumerate(_TRIALS if n else ())]


def _integral(A):
    """A with every table entry scaled by D, the lcm of the denominators of
    the table's rational coefficients, or A itself when D = 1.  Every
    table scalar of the result is an int or has int coefficients."""
    D = lcm(*(_denominator(v) for poly in A.table.values()
              for e in poly.coeffs.values() for v in e.terms.values()))
    if D == 1:
        return A
    field = A.field
    table = {
        pair: LambdaPoly._trusted(field, {
            n: ConfElt._trusted(field, {
                k: v * D for k, v in e.terms.items()})
            for n, e in poly.coeffs.items()})
        for pair, poly in A.table.items()}
    return AlgebraDef(A.name, field, A.generators, table)


def check_axioms(A, seed=0):
    """Verify the conformal superalgebra axioms on an algebra definition.

    The checks run on the integral table ``_integral(A)``, D times the
    table with D the lcm of its denominators, so the scalars they
    multiply are ints or have int coefficients.  CS1-CS4 are linear in
    the table and CS5 is quadratic, so every verdict, count and failure
    location is that of A itself.

    CS0, CS2 and CS3 hold by construction of the evaluator and CS1 is an
    evaluator law: they fail only when the code is wrong, never because of
    a table, so they are spot-checked on the eight fixed trials of
    ``_TRIALS``; ``seed`` is ignored.  The laws are linear in x and y, and
    the evaluator branches on the D-power, exponent and coefficient of a
    term, not on its generator, so the trials reach each branch on each
    slot: every generator (of at most eight), D-powers 0-2, left exponents
    0, 1, 2 (where C(q, l) stops early), -1, +-1/2 and 1/3, right exponents
    0, +-1 and 1/2, unit and other coefficients, and the lattices (1/M)Z
    for M = 1, 2, 3 and 6.  A trial brackets (x, y) once through the public
    ``lambda_bracket``; CS1 and CS3 build each right-hand side on that
    base, lowered onto the kernel's lattice (1/M)Z, and compare it with the
    derived bracket from the kernel ``_bracket_terms``: D and integer powers
    of t keep exponent denominators, so one M serves a trial.  CS2 checks
    ``apply_partial`` on x lifted to public scalars.  CS4 and CS5 are
    swept over every generator pair and triple.  CS5 (``_sweep_cs5``)
    sums the three Jacobi terms of a triple into one difference map of
    unreduced int polynomials in zeta, with zeta^e for e >= N/2 folded to
    -zeta^{e-N/2} when the conductor N is even, and reports its nonzero
    cells n-major, m-minor.  It stops at the vanishing bound maxl + maxd
    + 2 in lambda.  Only the middle term reaches past it, and under CS4
    those cells are zero: J_abc(lambda, mu) = -p(a, b) J_bac(mu, lambda),
    whose every term has lambda-degree at most maxl + maxd.

    Both sweeps first ask each unordered case once.  ``cs4_transform`` is
    an involution, so CS4 holds on (j, i) when it holds on (i, j): the
    pairs i <= j are checked first, and the pairs i > j only when one of
    them fails.  Skew-symmetry turns the Jacobi identity of (a, b, c)
    into that of each permutation, by the substitution mu -> -lambda -
    mu - D, so CS5 first checks one ordering a <= b <= c of each
    generator multiset.  That needs CS1-CS4 to have passed in this report
    (skew-symmetry and a sesquilinear evaluator) and a table whose every
    entry (i, j) lies in parity p(i) + p(j).  No lambda-degree is asked
    for: by the identity above, every ordering has all its nonzero cells
    inside the bound (see ``_sweep_cs5``).  A failing multiset sends CS5
    through every ordered triple, whose failures alone are reported.  So
    every verdict, count and failure, and their order, is that of a sweep
    over every ordered pair and triple.
    """
    A = _integral(A)
    report = AxiomReport(A.name)
    field = A.field

    def base_bracket(x, y):
        """The public [x lambda y] lowered onto the kernel's lattice (1/M)Z,
        M = lcm(x.level, y.level), and M."""
        M = lcm(x.level, y.level)
        return {n: {(g, j, q.numerator * (M // q.denominator)): _lower(c)
                    for (g, j, q), c in e.terms.items()}
                for n, e in lambda_bracket(A, x, y).coeffs.items()}, M

    def kernel_bracket(x, y):
        """[x lambda y] from the kernel without its empty degrees."""
        acc, _ = _bracket_terms(A, x, y)
        return {n: terms for n, terms in acc.items() if terms}

    # CS0: finiteness is structural; confirm the table is finite in lambda.
    report.verdicts["CS0"] = True
    report.counts["CS0"] = "%d table entries" % len(A.table)

    # one public bracket per trial serves both slots of CS1 and of CS3
    trials = [(x, y, q) + base_bracket(x, y) for x, y, q in _trials(A)]

    # CS1: bracket with the full derivation on either slot.
    report.verdicts.setdefault("CS1", True)
    for x, y, _, base, M in trials:
        # -lambda [x lambda y]; lambda lambda^{(n)} = (n + 1) lambda^{(n+1)}
        rhs = {n + 1: {k: c * -(n + 1) for k, c in terms.items()}
               for n, terms in base.items()}
        lhs = kernel_bracket(ConfElt._trusted(field, _partial_terms(x.terms)),
                             y)
        if lhs != rhs:
            report.fail("CS1", "left slot", "spot check")
        # (D + lambda) [x lambda y]
        rhs = {n: _partial_terms(terms, M) for n, terms in base.items()}
        for n, terms in base.items():
            out = rhs.setdefault(n + 1, {})
            for k, c in terms.items():
                _add_to(out, k, c * (n + 1))
        lhs = kernel_bracket(x,
                             ConfElt._trusted(field, _partial_terms(y.terms)))
        if lhs != {n: terms for n, terms in rhs.items() if terms}:
            report.fail("CS1", "right slot", "spot check")
    report.counts["CS1"] = "%d spot checks" % (2 * len(trials))

    # CS2: Leibniz rule of the derivation against scalar multiplication.
    report.verdicts.setdefault("CS2", True)
    for x, _, q, _, _ in trials:
        x = x.scale(field.one())  # on public scalars
        lhs = apply_partial(A, x.shift_t(q))
        rhs = apply_partial(A, x).shift_t(q) + x.shift_t(q - 1).scale(q)
        if lhs != rhs:
            report.fail("CS2", "t^%s" % q, "spot check")
    report.counts["CS2"] = "%d spot checks" % len(trials)

    # CS3: sesquilinearity over the Laurent base on both slots.
    report.verdicts.setdefault("CS3", True)
    for x, y, q, base, M in trials:
        # [x lambda y t^q] = [x lambda y] t^q
        rhs = {n: {(g, j, Q + M * q): c for (g, j, Q), c in terms.items()}
               for n, terms in base.items()}
        if kernel_bracket(x, y.shift_t(q)) != rhs:
            report.fail("CS3", "right slot", "spot check")
        # [x t^q lambda y] = sum_l C(q, l) (d/dlambda)^l [x lambda y] t^{q-l}
        weights = _binomials(q, 1, max(base, default=0))
        rhs = {}
        for n, terms in base.items():
            for l, w in enumerate(weights[:n + 1]):
                out = rhs.setdefault(n - l, {})
                dQ = M * (q - l)
                for (g, j, Q), c in terms.items():
                    _add_to(out, (g, j, Q + dQ), c * w)
        if kernel_bracket(x.shift_t(q), y) != \
                {n: terms for n, terms in rhs.items() if terms}:
            report.fail("CS3", "left slot", "spot check")
    report.counts["CS3"] = "%d spot checks" % (2 * len(trials))

    _sweep_cs4(A, report)
    _sweep_cs5(A, report)
    return report


def _sweep_cs4(A, report):
    """CS4 (skew-symmetry) on every ordered generator pair, into ``report``.

    ``cs4_transform`` is an involution: a stored (i, j) equal to the
    transform of (j, i) has (j, i) equal to the transform of (i, j).  So
    the pairs i <= j are asked first, and only when one of them fails are
    the pairs i > j asked too, and the failures reported in the order of
    all ordered pairs.  The pairs i <= j read every entry, each first
    where the ordered pairs read it, so a missing entry is named as a
    sweep over the ordered pairs names it.
    """
    ngen = A.ngens()
    report.verdicts.setdefault("CS4", True)
    found = {(i, j): _cs4_mismatch(A, i, j)
             for i in range(ngen) for j in range(i, ngen)}
    if any(n is not None for n in found.values()):
        for i in range(ngen):
            for j in range(ngen):
                n = found[i, j] if i <= j else _cs4_mismatch(A, i, j)
                if n is not None:
                    report.fail("CS4",
                                (A.generators[i].name, A.generators[j].name),
                                "n=%d" % n)
    report.counts["CS4"] = "%d pairs" % (ngen * ngen)


def _jacobi_triples(ngen, reduced):
    """The triples (a, b, c) that the CS5 sweep checks, in order: every
    ordered triple for the full sweep, and for the reduced one a single
    ordering a <= b <= c of each generator multiset."""
    if reduced:
        return list(combinations_with_replacement(range(ngen), 3))
    return list(product(range(ngen), repeat=3))


def _parity_graded(A):
    """Whether each table entry (i, j) lies in parity p(i) + p(j)."""
    return all(A.parity(g) == A.parity(i) ^ A.parity(j)
               for (i, j), poly in A.table.items()
               for e in poly.coeffs.values() for g, _, _ in e.terms)


class _FlatPairs(dict):
    """``_decorated_pair`` of A keyed (g1, j1, g2, j2), each flattened on
    first use into a list of (n, g, j, e, c) for c zeta^e lambda^{(n)}
    D^{(j)} v_g: a scalar sum_e c_e zeta^e of Q(zeta_N), or of a subfield
    embedded through ``A.field.scalar``, gives one entry per (e, c_e)."""

    def __init__(self, A):
        super().__init__()
        self.A = A

    def __missing__(self, key):
        A = self.A
        scalar = A.field.scalar
        got = self[key] = [
            (n, g, j, e, c)
            for n, terms in _decorated_pair(A, *key)
            for g, j, v in terms
            for e, c in (scalar(v).coeffs.items()
                         if v.__class__ is CycloScalar else ((0, v),))]
        return got


def _sweep_cs5(A, report):
    """CS5 (Jacobi) on every ordered generator triple, both lambda and mu
    degrees up to the vanishing bound, into ``report``.

    Every argument is t-free, so no base change enters and each of the
    three Jacobi terms is a sum of ``_decorated_pair`` brackets, each
    weighted by a table scalar s, itself read from the cached, lowered
    pair of two undecorated generators: [a_(m) [b_(n) c]] with weight +s,
    [[a_(jj) b]_(k) c] with -C(m, jj) s on every m + n = jj + k, m >= jj,
    and [b_(n) [a_(m) c]] with -p(a, b) s.  The pairs are read flat
    (``_FlatPairs``), as int coefficients c of zeta^e on an ``_integral``
    table, and every product adds in place into one difference map per
    triple, keyed (n, m, g, j, e1 + e2), whose values are sums of
    unreduced int products.  For an even conductor N a product exponent
    e1 + e2 >= N/2 is folded to e1 + e2 - N/2 with the product negated,
    as zeta^{N/2} = -1, so such products cancel raw against rational
    ones; an odd N is not folded.  The cells (n, m) that one middle
    product feeds, with their weights C(m, jj), are listed once per sweep
    for each (jj, k).

    A map whose values are all zero has no failing cell.  Otherwise a cell
    (m, n) is called nonzero only after each of its coefficients at
    D^{(j)} v_g is reduced modulo the cyclotomic polynomial once, by
    ``CycloField.reduce_terms``.  The nonzero cells are the failures,
    reported in (a, b, c) order, n-major, m-minor within a triple.

    Only the middle term reaches past the bound maxl + maxd + 2, up to
    m = 2 maxl + maxd, and those cells are left out.  Under CS4 they are
    zero: with a sesquilinear evaluator D acts as -(lambda + mu) in the
    outer bracket, so [[a_lambda b]_{lambda+mu} c] = -p(a, b)
    [[b_mu a]_{lambda+mu} c] and J_abc(lambda, mu) = -p(a, b)
    J_bac(mu, lambda).  Every term of J_bac(mu, lambda) has lambda-degree
    at most maxl + maxd, so every nonzero cell of J_abc lies inside the
    bound, whatever maxl is.

    The triples come from ``_jacobi_triples``.  By skew-symmetry the
    identity of (a, b, c) is that of every permutation, under a
    substitution of lambda and mu that moves cells, all of them inside
    the bound.  So when skew-symmetry, a sesquilinear evaluator and a
    parity-graded table hold (``check_axioms``), that is when CS1-CS4
    have passed in ``report`` and ``_parity_graded`` holds, the reduced
    sweep runs first: one ordering a <= b <= c of each generator
    multiset, stopping at the first failing one.  When it finds a
    failure, the full ordered sweep runs and reports.
    """
    ngen = A.ngens()
    report.verdicts.setdefault("CS5", True)
    maxl, maxd = A.table_degrees()
    bound = maxl + maxd + 2
    names = [g.name for g in A.generators]
    field = A.field
    N = field.conductor
    # flat exponents stay below phi(N), so an odd N, with 2 N, folds nothing
    half = N // 2 if N % 2 == 0 else 2 * N
    flats = _FlatPairs(A)
    # (jj, k) -> the cells of the middle term, m + n = jj + k and
    # jj <= m <= bound, as (n, m, C(m, jj))
    spans = {(jj, k): [(jj + k - m, m, comb(m, jj))
                       for m in range(jj, min(jj + k, bound) + 1)]
             for jj in range(maxl + 1) for k in range(maxl + maxd + 1)}

    def nested(x, y, c, out, w, swap):
        """Add w [x_(m) [y_(n) c]] into ``out`` keyed (n, m, g, j, e), or
        (m, n, g, j, e) when ``swap``."""
        get = out.get
        for n, g, j, e1, c1 in flats[y, 0, c, 0]:
            c1 *= w
            for m, g2, j2, e2, c2 in flats[x, 0, g, j]:
                e = e1 + e2
                v = c1 * c2
                if e >= half:
                    e -= half
                    v = -v
                key = (m, n, g2, j2, e) if swap else (n, m, g2, j2, e)
                out[key] = get(key, 0) + v

    def middle(a, b, c, out):
        """Subtract sum_jj C(m, jj) [[a_(jj) b]_(m+n-jj) c] from ``out``:
        [[a_(jj) b]_(k) c] feeds the cells of ``spans``."""
        get = out.get
        for jj, g, j, e1, c1 in flats[a, 0, b, 0]:
            c1 = -c1
            for k, g2, j2, e2, c2 in flats[g, j, c, 0]:
                e = e1 + e2
                v = c1 * c2
                if e >= half:
                    e -= half
                    v = -v
                for n, m, f in spans[jj, k]:
                    key = (n, m, g2, j2, e)
                    out[key] = get(key, 0) + f * v

    def failing(diff):
        """The nonzero cells (m, n) of a difference map, n-major."""
        if not any(diff.values()):
            return []
        cells = {}
        for (n, m, g, j, e), x in diff.items():
            if x:
                cells.setdefault((n, m), {}).setdefault((g, j), {})[e] = x
        return [(m, n) for n, m in sorted(cells)
                if any(map(field.reduce_terms, cells[n, m].values()))]

    def sweep(reduced):
        """{triple: its failing cells (m, n)} in sweep order, or None when
        the reduced sweep meets a failing triple."""
        failed = {}
        for a, b, c in _jacobi_triples(ngen, reduced):
            diff = {}
            nested(a, b, c, diff, 1, False)
            nested(b, a, c, diff, -A.parity_sign(a, b), True)
            middle(a, b, c, diff)
            bad = failing(diff)
            if bad:
                if reduced:
                    return None
                failed[a, b, c] = bad
        return failed

    failed = None
    if (all(report.verdicts.get("CS%d" % k) for k in range(1, 5))
            and _parity_graded(A)):
        failed = sweep(True)
    if failed is None:
        failed = sweep(False)
    for (a, b, c), cells in failed.items():
        for m, n in cells:
            report.fail("CS5", (names[a], names[b], names[c]),
                        "m=%d n=%d" % (m, n))
    report.counts["CS5"] = "%d triples" % ngen ** 3


# -- hat basis (full-derivation divided powers) -----------------------------


def _hat_rep(A, g, j, q):
    """Represent D_A^{(j)} v_g (x) t^q on the hat basis; memoized.

    D_A = Dhat - d/dt with commuting parts, so
    D_A^{(j)} (v (x) t^q) = sum_{i<=j} (-1)^{j-i} C(q, j-i)
    Dhat^{(i)} (v (x) t^{q-(j-i)}).
    """
    key = (g, j, q)
    got = A._hat_cache.get(key)
    if got is not None:
        return got
    rep = {key: 1}
    for i in range(j):
        w = binom_frac(q, j - i)
        if w:
            rep[(g, i, _q(q - (j - i)))] = _q(-w if (j - i) % 2 else w)
    A._hat_cache[key] = rep
    return rep


def to_hat_basis(A, x):
    """Coordinates of x on the basis Dhat^{(l)} (v (x) t^q)."""
    out = {}
    for (g, j, q), c in x.terms.items():
        for k, w in _hat_rep(A, g, j, q).items():
            _add_to(out, k, c * w)
    return out


def from_hat_basis(A, mapping):
    """Inverse of to_hat_basis."""
    return _hat_sum(A, mapping, [A.elt(g) for g in range(A.ngens())])


def _hat_sum(A, coords, vectors):
    """The element sum c Dhat^{(l)} (vectors[g] t^q) over the entries
    (g, l, q): c of ``coords``: hat coordinates back to an element, with
    vectors[g] in place of v_g (x) 1."""
    acc = {}
    for (g, l, q), c in coords.items():
        hat = apply_partial_power(A, vectors[g].shift_t(q), l)
        for k, v in hat.terms.items():
            _add_to(acc, k, v * c)
    return ConfElt._trusted(A.field, acc)


def _primary(field, g, weight):
    """(D + weight lambda) v_g, the bracket [L lambda v_g] of a primary."""
    return LambdaPoly(field, {
        0: ConfElt(field, {(g, 1, 0): field.scalar(1)}),
        1: ConfElt(field, {(g, 0, 0): field.scalar(weight)})})


def find_virasoro(A):
    """Index of the generator acting as the Virasoro element, or None.

    Detected from the table: an even generator with
    [v lambda v] = (D + 2 lambda) v.
    """
    for i, g in enumerate(A.generators):
        if g.parity == EVEN and A.table.get((i, i)) == _primary(A.field, i, 2):
            return i
    return None
