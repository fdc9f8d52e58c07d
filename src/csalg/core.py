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
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cyclotomic import _add_to, _q, _scaled_terms, _signed_sum
from .errors import CsalgError, TableInconsistencyError
from .laurent import binom_frac

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

    # -- queries ------------------------------------------------------

    def is_zero(self):
        return not self.terms

    @property
    def level(self):
        return lcm(1, *(k[2].denominator for k in self.terms)) \
            if self.terms else 1

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
        return ConfElt(self.field, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if isinstance(c, (int, Fraction)) and not c:
            return ConfElt(self.field, {})
        return ConfElt(self.field, {k: v * c for k, v in self.terms.items()})

    __mul__ = scale
    __rmul__ = scale

    def shift_t(self, dq):
        """Multiply by the monomial t^{dq}."""
        if not dq:
            return self
        return ConfElt(self.field,
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
        return ConfElt(self.field, out)

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
        return LambdaPoly(self.field, {n: -e for n, e in self.coeffs.items()})

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
        return LambdaPoly(self.field,
                          {n + j: e.scale(binom_frac(n + j, j))
                           for n, e in self.coeffs.items()})

    def lambda_deriv(self, l):
        """Apply (d/d lambda)^l, which simply drops the index by l."""
        if l == 0:
            return self
        return LambdaPoly(self.field,
                          {n - l: e for n, e in self.coeffs.items() if n >= l})

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
        self.index = {g.name: i for i, g in enumerate(self.generators)}
        if len(self.index) != len(self.generators):
            raise CsalgError("duplicate generator names in %r" % name)
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
    acc = {}
    for (g, j, q), c in x.terms.items():
        _add_to(acc, (g, j + 1, q), c * (j + 1))
        if q:
            _add_to(acc, (g, j, _q(q - 1)), c * q)
    return ConfElt(x.field, acc)


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
    """[D^{(j1)} v_{g1}  lambda  D^{(j2)} v_{g2}] with t-free arguments."""
    key = (g1, j1, g2, j2)
    got = A._pair_cache.get(key)
    if got is not None:
        return got
    poly = _table_poly(A, g1, g2)
    if j2:
        # (D + lambda)^{(j2)} = sum over u+w=j2 of D^{(u)} lambda^{(w)}
        acc = A.zero_poly()
        for u in range(j2 + 1):
            w = j2 - u
            acc = acc + poly.map_coeffs(
                lambda e, _u=u: e.apply_dpow(_u)).lambda_shift(w)
        poly = acc
    if j1:
        poly = poly.lambda_shift(j1)
        if j1 % 2:
            poly = -poly
    A._pair_cache[key] = poly
    return poly


def lambda_bracket(A, x, y):
    """Full lambda-bracket of two (possibly decorated) elements."""
    acc = {}  # n -> {(g, j, q): coefficient}
    for (g1, j1, q1), c1 in x.terms.items():
        for (g2, j2, q2), c2 in y.terms.items():
            base = _decorated_pair(A, g1, j1, g2, j2)
            if base.is_zero():
                continue
            c = c1 * c2
            # base-change rule: powers of t on the left argument turn
            # into lambda-derivatives with generalized binomial weights
            # C(q1, l), all zero past l = 0 when q1 = 0
            for l in range(base.max_degree() + 1 if q1 else 1):
                if l:
                    w = binom_frac(q1, l)
                    if not w:
                        continue
                    cw = c * w
                else:
                    cw = c
                dq = _q(q1 + q2 - l) if q1 else q2
                for n, e in base.coeffs.items():
                    if n < l:
                        continue
                    out = acc.setdefault(n - l, {})
                    if dq:
                        for (g, j, q), v in e.terms.items():
                            _add_to(out, (g, j, _q(q + dq)), v * cw)
                    else:
                        for k, v in e.terms.items():
                            _add_to(out, k, v * cw)
    field = A.field
    return LambdaPoly(field, {n: ConfElt(field, terms)
                              for n, terms in acc.items()})


def n_product(A, x, y, n):
    """The n-th product: coefficient of lambda^{(n)} in the bracket."""
    return lambda_bracket(A, x, y).get(n)


# -- skew-symmetry completion ---------------------------------------------


def cs4_transform(A, i, j):
    """The bracket [v_i lambda v_j] that skew-symmetry derives from (j, i)."""
    src = _table_poly(A, j, i)
    maxn = src.max_degree()
    sign_p = A.parity_sign(i, j)
    out = {}
    for n in range(maxn + 1):
        acc = A.zero_elt()
        for l in range(maxn - n + 1):
            piece = src.get(n + l)
            if piece.is_zero():
                continue
            piece = piece.apply_dpow(l)
            if (l + n) % 2:
                piece = -piece
            acc = acc + piece
        acc = -acc if sign_p > 0 else acc
        if not acc.is_zero():
            out[n] = acc
    return LambdaPoly(A.field, out)


def complete_table_cs4(A):
    """Fill missing table orientations via skew-symmetry; verify given ones.

    Returns a new AlgebraDef with a total table.  Raises
    TableInconsistencyError when both orientations of a pair are present
    but contradict each other (this includes diagonal pairs, which must
    be self-consistent).
    """
    table = dict(A.table)
    n = len(A.generators)
    work = AlgebraDef(A.name, A.field, A.generators, table)
    for i in range(n):
        for j in range(i, n):
            have_ij = (i, j) in table
            have_ji = (j, i) in table
            if not have_ij and not have_ji:
                table[(i, j)] = A.zero_poly()
                table[(j, i)] = A.zero_poly()
                continue
            if i == j:
                derived = cs4_transform(work, i, i)
                if derived != table[(i, i)]:
                    bad = _first_mismatch(derived, table[(i, i)])
                    raise TableInconsistencyError(
                        (A.generators[i].name, A.generators[i].name), bad)
                continue
            if have_ij and have_ji:
                derived = cs4_transform(work, i, j)
                if derived != table[(i, j)]:
                    bad = _first_mismatch(derived, table[(i, j)])
                    raise TableInconsistencyError(
                        (A.generators[i].name, A.generators[j].name), bad)
            elif have_ji:
                table[(i, j)] = cs4_transform(work, i, j)
            else:
                table[(j, i)] = cs4_transform(work, j, i)
    return AlgebraDef(A.name, A.field, A.generators, table)


def _first_mismatch(p1, p2):
    for n in sorted(set(p1.coeffs) | set(p2.coeffs)):
        if p1.get(n) != p2.get(n):
            return n
    return -1


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


def _sample_elt(A, rng, max_dpow=2, exponents=(0, 1, -1, Fraction(1, 2))):
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        g = rng.randrange(A.ngens())
        j = rng.randrange(max_dpow + 1)
        q = _q(rng.choice(exponents))
        terms[(g, j, q)] = A.field.rational(rng.randrange(-3, 4))
    return ConfElt(A.field, terms)


def check_axioms(A, seed=0):
    """Verify the conformal superalgebra axioms on an algebra definition.

    CS0, CS2 and CS3 hold by construction of the evaluator and are
    exercised through randomized spot checks on decorated elements; CS1
    is spot-checked as an evaluator law; the skew-symmetry (CS4) and
    Jacobi (CS5) axioms are swept exhaustively over generator pairs and
    triples up to the vanishing bound.  CS5 visits only the nonzero
    lambda/mu coefficients of its three terms within that bound, and
    reports failures n-major, m-minor.
    """
    import random

    rng = random.Random(seed)
    report = AxiomReport(A.name)

    # CS0: finiteness is structural; confirm the table is finite in lambda.
    report.verdicts["CS0"] = True
    report.counts["CS0"] = "%d table entries" % len(A.table)

    # CS1: bracket with the full derivation on either slot.
    report.verdicts.setdefault("CS1", True)
    trials = 8
    for _ in range(trials):
        x = _sample_elt(A, rng)
        y = _sample_elt(A, rng)
        base = lambda_bracket(A, x, y)
        lhs = lambda_bracket(A, apply_partial(A, x), y)
        if lhs != -base.lambda_shift(1):
            report.fail("CS1", "left slot", "random spot check")
        lhs = lambda_bracket(A, x, apply_partial(A, y))
        rhs = base.map_coeffs(lambda e: apply_partial(A, e)) \
            + base.lambda_shift(1)
        if lhs != rhs:
            report.fail("CS1", "right slot", "random spot check")
    report.counts["CS1"] = "%d spot checks" % (2 * trials)

    # CS2: Leibniz rule of the derivation against scalar multiplication.
    report.verdicts.setdefault("CS2", True)
    for _ in range(trials):
        x = _sample_elt(A, rng)
        q = rng.randrange(-2, 3)
        lhs = apply_partial(A, x.shift_t(q))
        rhs = apply_partial(A, x).shift_t(q) + x.shift_t(q - 1).scale(q)
        if lhs != rhs:
            report.fail("CS2", "t^%s" % q, "random spot check")
    report.counts["CS2"] = "%d spot checks" % trials

    # CS3: sesquilinearity over the Laurent base on both slots.
    report.verdicts.setdefault("CS3", True)
    for _ in range(trials):
        x = _sample_elt(A, rng)
        y = _sample_elt(A, rng)
        q = rng.choice((1, -1, 2))
        base = lambda_bracket(A, x, y)
        if lambda_bracket(A, x, y.shift_t(q)) != \
                base.map_coeffs(lambda e: e.shift_t(q)):
            report.fail("CS3", "right slot", "random spot check")
        lhs = lambda_bracket(A, x.shift_t(q), y)
        rhs = A.zero_poly()
        for l in range(base.max_degree() + 1):
            w = binom_frac(q, l)
            if w:
                rhs = rhs + base.lambda_deriv(l).scale(w).map_coeffs(
                    lambda e, _l=l: e.shift_t(q - _l))
        if lhs != rhs:
            report.fail("CS3", "left slot", "random spot check")
    report.counts["CS3"] = "%d spot checks" % (2 * trials)

    _sweep_cs4(A, report)
    _sweep_cs5(A, report)
    return report


def _sweep_cs4(A, report):
    """CS4 (skew-symmetry) on every ordered generator pair, into ``report``."""
    ngen = A.ngens()
    report.verdicts.setdefault("CS4", True)
    for i in range(ngen):
        for j in range(ngen):
            expect = cs4_transform(A, i, j)
            stored = _table_poly(A, i, j)
            if stored != expect:
                n = _first_mismatch(stored, expect)
                report.fail("CS4",
                            (A.generators[i].name, A.generators[j].name),
                            "n=%d" % n)
    report.counts["CS4"] = "%d pairs" % (ngen * ngen)


def _sweep_cs5(A, report):
    """CS5 (Jacobi) on every ordered generator triple, both lambda and mu
    degrees up to the vanishing bound, into ``report``.  Each side is a map
    {(m, n): terms} built from its nonzero coefficients alone; failures
    come n-major, m-minor."""
    ngen = A.ngens()
    report.verdicts.setdefault("CS5", True)
    maxl, maxd = A.table_degrees()
    bound = maxl + maxd + 2
    gen_elts = [A.elt(i) for i in range(ngen)]
    bracket_cache = {}

    def gen_bracket(g, elt, key):
        got = bracket_cache.get((g, key))
        if got is None:
            got = bracket_cache[(g, key)] = lambda_bracket(A, gen_elts[g], elt)
        return got

    def add_into(acc, m, n, terms, w=1):
        if m <= bound and n <= bound:
            out = acc.setdefault((m, n), {})
            for k, v in terms.items():
                _add_to(out, k, v if w == 1 else v * w)

    triples = 0
    for a in range(ngen):
        for b in range(ngen):
            p_ab = A.parity_sign(a, b)
            poly_ab = _table_poly(A, a, b)
            for c in range(ngen):
                triples += 1
                lhs, rhs = {}, {}
                for n, bcn in _table_poly(A, b, c).coeffs.items():
                    for m, e in gen_bracket(a, bcn, (b, c, n)).coeffs.items():
                        add_into(lhs, m, n, e.terms)
                for jj, ab in poly_ab.coeffs.items():
                    # [[a_(jj) b]_(k) c] feeds every m + n = jj + k, m >= jj
                    abc = lambda_bracket(A, ab, gen_elts[c])
                    for k, e in abc.coeffs.items():
                        for m in range(jj, jj + k + 1):
                            add_into(rhs, m, jj + k - m, e.terms,
                                     binom_frac(m, jj))
                for m, acm in _table_poly(A, a, c).coeffs.items():
                    for n, e in gen_bracket(b, acm, (a, c, m)).coeffs.items():
                        add_into(rhs, m, n, (e if p_ab > 0 else -e).terms)
                for m, n in sorted(lhs.keys() | rhs.keys(),
                                   key=lambda mn: (mn[1], mn[0])):
                    if lhs.get((m, n), {}) != rhs.get((m, n), {}):
                        report.fail(
                            "CS5",
                            (A.generators[a].name, A.generators[b].name,
                             A.generators[c].name),
                            "m=%d n=%d" % (m, n))
    report.counts["CS5"] = "%d triples" % triples


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
    out = A.zero_elt()
    for (g, l, q), c in mapping.items():
        out = out + apply_partial_power(A, A.elt(g, q=q), l).scale(c)
    return out


def find_virasoro(A):
    """Index of the generator acting as the Virasoro element, or None.

    Detected from the table: an even generator with
    [v lambda v] = (D + 2 lambda) v.
    """
    for i, g in enumerate(A.generators):
        if g.parity != EVEN:
            continue
        expect = LambdaPoly(A.field, {
            0: A.elt(i, dpow=1),
            1: A.elt(i).scale(2),
        })
        if A.table.get((i, i)) == expect:
            return i
    return None
