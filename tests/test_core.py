import random
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, count, product
from math import comb, factorial, lcm

import pytest

from csalg import core
from csalg.algebras import make_current, make_n2, make_n4, sl2_constants
from csalg.core import (
    EVEN,
    ODD,
    AlgebraDef,
    ConfElt,
    Generator,
    LambdaPoly,
    apply_partial,
    _hat_rep,
    apply_partial_algebra,
    apply_partial_power,
    check_axioms,
    complete_table_cs4,
    cs4_transform,
    find_virasoro,
    from_hat_basis,
    lambda_bracket,
    n_product,
    to_hat_basis,
)
from csalg.cyclotomic import CycloField, CycloScalar, _add_to, _lower, _q
from csalg.dsl import parse_algebra
from csalg.errors import ConductorError, CsalgError, TableInconsistencyError
from csalg.laurent import binom_frac
from test_dsl import data_text, random_algebra

N2 = make_n2()
HALF = Fraction(1, 2)


def poly(entries):
    """Shorthand: {n: ConfElt} -> LambdaPoly over the N2 field."""
    return LambdaPoly(N2.field, entries)


def test_apply_partial_leibniz():
    x = N2.elt("L", q=1)
    assert apply_partial(N2, x) == N2.elt("L", dpow=1, q=1) + N2.elt("L")
    # divided-power bookkeeping: D D^{(1)} = 2 D^{(2)}
    y = N2.elt("L", dpow=1)
    assert apply_partial(N2, y) == N2.elt("L", dpow=2, coeff=2)
    z = N2.elt("J", q=HALF)
    assert apply_partial(N2, z) == \
        N2.elt("J", dpow=1, q=HALF) + N2.elt("J", q=-HALF, coeff=HALF)


def test_bracket_table_lookup():
    got = lambda_bracket(N2, N2.elt("L"), N2.elt("L"))
    assert got == poly({0: N2.elt("L", dpow=1), 1: N2.elt("L", coeff=2)})


def test_bracket_with_t_decoration():
    # [(L (x) t) lambda (L (x) 1)] = DL (x) t + 2 L (x) 1 + lambda 2 L (x) t
    got = lambda_bracket(N2, N2.elt("L", q=1), N2.elt("L"))
    assert got == poly({
        0: N2.elt("L", dpow=1, q=1) + N2.elt("L", coeff=2),
        1: N2.elt("L", q=1, coeff=2),
    })


def test_bracket_with_d_decoration():
    # [(DL) lambda L] = -lambda (D + 2 lambda) L; note lambda^2 = 2 lambda^{(2)}
    got = lambda_bracket(N2, N2.elt("L", dpow=1), N2.elt("L"))
    assert got == poly({
        1: N2.elt("L", dpow=1, coeff=-1),
        2: N2.elt("L", coeff=-4),
    })


@lru_cache(maxsize=None)
def _gbinom(q, l):
    """C(q, l) as a product of Fractions."""
    out = Fraction(1)
    for i in range(l):
        out *= (Fraction(q) - i) / (i + 1)
    return out


def _accumulate(acc, key, value):
    s = acc.get(key)
    s = value if s is None else s + value
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def _reference_sesquilinear(A, g1, j1, g2, j2):
    """[D^{(j1)} v_{g1} lambda D^{(j2)} v_{g2}] in ordinary powers, as
    {(n, g, j): coefficient of lambda^n D^j v_g}.  The table term
    c lambda^{(n)} D^{(j)} v is c lambda^n D^j v / (n! j!), and
    sesquilinearity multiplies by (-lambda)^{j1} (D + lambda)^{j2} /
    (j1! j2!)."""
    ordinary = {}
    for n, e in A.table[(g1, g2)].coeffs.items():
        for (g, j, _), c in e.terms.items():
            for u in range(j2 + 1):
                w = Fraction((-1) ** j1 * comb(j2, u),
                             factorial(n) * factorial(j) * factorial(j1)
                             * factorial(j2))
                _accumulate(ordinary, (n + j1 + j2 - u, g, j + u), c * w)
    return ordinary


def _reference_base_change(ordinary, q1, q2):
    """The bracket with v_{g1} t^{q1} and v_{g2} t^{q2} as {n: {(g, j, q):
    scalar}} in divided powers: base change applies sum_l C(q1, l)
    t^{q1+q2-l} (d/dlambda)^l, which takes lambda^n to n! lambda^{(n-l)},
    and D^j v is j! D^{(j)} v."""
    out = {}
    for (n, g, j), c in ordinary.items():
        for l in range(n + 1):
            w = _gbinom(q1, l)
            if w:
                _accumulate(out.setdefault(n - l, {}),
                            (g, j, _exponent(q1 + q2 - l)),
                            c * (w * factorial(n) * factorial(j)))
    return {n: terms for n, terms in out.items() if terms}


@lru_cache(maxsize=None)
def _exponent(q):
    return Fraction(q)


def _assert_bracket_is_clean(A, got):
    """No empty lambda-degree, no zero coefficient, every coefficient a
    scalar of the algebra's field and every exponent under the _q rule."""
    for e in got.coeffs.values():
        assert e.terms
        for (_, _, q), v in e.terms.items():
            assert v.__class__ is CycloScalar and v.field is A.field
            assert not v.is_zero()
            assert (q.__class__ is int) is (q.denominator == 1)


def test_lambda_bracket_matches_a_reference_evaluator():
    # exponent lattices M = 1, 2, 3 and 6 all occur on both grids; the
    # right exponent only shifts the result, so it takes fewer values
    qs = (0, 1, -1, HALF, Fraction(-3, 2), Fraction(1, 3))
    n4 = make_n4()
    grids = [(N2, range(3), range(3), qs, (0, -1, HALF, Fraction(1, 3))),
             (n4, (0, 1), (0, 2), (HALF, -1), (0, Fraction(1, 3)))]
    for A, j1s, j2s, q1s, q2s in grids:
        for g1 in range(A.ngens()):
            for g2 in range(A.ngens()):
                for j1 in j1s:
                    for j2 in j2s:
                        ordinary = _reference_sesquilinear(A, g1, j1, g2, j2)
                        for q1 in q1s:
                            for q2 in q2s:
                                got = lambda_bracket(A, A.elt(g1, j1, q1),
                                                     A.elt(g2, j2, q2))
                                _assert_bracket_is_clean(A, got)
                                assert {n: e.terms for n, e in
                                        got.coeffs.items()} == \
                                    _reference_base_change(ordinary, q1, q2)


def test_lambda_bracket_drops_a_cancelled_degree():
    # [d(L t) lambda J] = -lambda [L t lambda J]: the lambda^(0) parts of
    # D L t and L cancel
    x = N2.elt("L", q=1)
    got = lambda_bracket(N2, apply_partial(N2, x), N2.elt("J"))
    _assert_bracket_is_clean(N2, got)
    assert 0 not in got.coeffs
    assert got == -lambda_bracket(N2, x, N2.elt("J")).lambda_shift(1)


def _decorated_pair_by_composition(A, g1, j1, g2, j2):
    """[D^{(j1)} v_{g1} lambda D^{(j2)} v_{g2}] composed on LambdaPoly:
    (D + lambda)^{(j2)} through apply_dpow and lambda_shift, then
    (-lambda)^{(j1)}."""
    poly = A.table[(g1, g2)]
    if j2:
        acc = A.zero_poly()
        for u in range(j2 + 1):
            acc = acc + poly.map_coeffs(
                lambda e, _u=u: e.apply_dpow(_u)).lambda_shift(j2 - u)
        poly = acc
    if j1:
        poly = poly.lambda_shift(j1)
        if j1 % 2:
            poly = -poly
    return poly


def test_decorated_pair_closed_form_matches_the_lambda_poly_route():
    for A in (N2, make_n4()):
        F = A.field
        for g1, g2 in A.table:
            for j1 in range(5):
                for j2 in range(5):
                    got = core._decorated_pair(A, g1, j1, g2, j2)
                    want = _decorated_pair_by_composition(A, g1, j1, g2, j2)
                    assert len({n for n, _ in got}) == len(got)
                    for _, terms in got:
                        assert terms
                        for _, _, c in terms:
                            # lowered: a rational under the _q rule, an
                            # irrational scalar as it is
                            if c.__class__ is CycloScalar:
                                assert c.as_rational() is None
                            else:
                                assert c and (c.__class__ is int
                                              or c.denominator != 1)
                    assert {n: {(g, j, 0): F.scalar(c) for g, j, c in terms}
                            for n, terms in got} == \
                        {n: e.terms for n, e in want.coeffs.items()}


def test_t_free_pairs_multiply_no_scalar(monkeypatch):
    # every table term of a t-free pair (j1 = j2 = 0) has weight 1, so the
    # closed form keeps the table scalar as it is; the decorated pairs
    # still multiply their zeta^6 coefficients by the weights
    callers = []
    mul = CycloScalar.__mul__

    def recorded(self, other):
        callers.append(sys._getframe(1).f_code.co_name)
        return mul(self, other)

    monkeypatch.setattr(CycloScalar, "__mul__", recorded)
    A = make_n4()
    pairs = {(g1, g2): core._decorated_pair(A, g1, 0, g2, 0)
             for g1, g2 in A.table}
    assert "_decorated_pair" not in callers
    for (g1, g2), got in pairs.items():
        assert got == tuple(
            (n, tuple((g, j, _lower(c)) for (g, j, _), c in e.terms.items()))
            for n, e in A.table[g1, g2].coeffs.items())
    for g1, g2 in A.table:
        core._decorated_pair(A, g1, 1, g2, 1)
    assert "_decorated_pair" in callers


def test_decorated_pairs_decorate_the_cached_undecorated_pair(monkeypatch):
    # every decorated pair reads the table through its undecorated pair,
    # so the table is read, and its scalars lowered, once per generator
    # pair however many decorations are built
    A = make_n4()
    read = []
    table_poly = core._table_poly
    lowered = []
    lower = core._lower

    def recorded_read(B, g1, g2):
        read.append((g1, g2))
        return table_poly(B, g1, g2)

    def recorded_lower(v):
        lowered.append(v)
        return lower(v)

    monkeypatch.setattr(core, "_table_poly", recorded_read)
    monkeypatch.setattr(core, "_lower", recorded_lower)
    for j1 in (2, 1, 0):
        for j2 in (0, 3, 1):
            for g1, g2 in A.table:
                core._decorated_pair(A, g1, j1, g2, j2)
    assert sorted(read) == sorted(A.table)
    assert len(lowered) == sum(len(e.terms) for p in A.table.values()
                               for e in p.coeffs.values())


def _partial_terms_by_fractions(terms, unit):
    """``core._partial_terms`` with every factor q = Q / unit built as a
    Fraction first."""
    acc = {}
    for (g, j, Q), c in terms.items():
        _add_to(acc, (g, j + 1, Q), c * (j + 1))
        if Q:
            _add_to(acc, (g, j, _q(Q - unit)), c * _q(Fraction(Q, unit)))
    return acc


@pytest.mark.parametrize("q", [2, HALF, Fraction(1, 3), Fraction(-5, 6)],
                         ids=["2", "1/2", "1/3", "-5/6"])
def test_partial_terms_match_the_fraction_route(q):
    zeta = make_n4().field.zeta(6)
    coefficients = [1, -3, 4, 6, HALF, Fraction(-2, 3), zeta,
                    zeta * Fraction(3, 2)]
    q = Fraction(q)
    for unit in (1, q.denominator, 6):
        Q = q * unit
        if unit > 1:
            Q = Q.numerator  # on the lattice (1/unit)Z, as an int
        for c in coefficients:
            terms = {(0, 0, Q): c, (1, 2, Q): c}
            got = core._partial_terms(terms, unit)
            want = _partial_terms_by_fractions(terms, unit)
            assert got == want, (q, unit, c)
            assert [v.__class__ for v in got.values()] == \
                [v.__class__ for v in want.values()], (q, unit, c)


def test_n_products_match_table():
    gp, gm = N2.elt("G+"), N2.elt("G-")
    assert n_product(N2, gp, gm, 1) == N2.elt("J")
    assert n_product(N2, gp, gm, 0) == \
        N2.elt("L") + N2.elt("J", dpow=1, coeff=HALF)
    assert n_product(N2, N2.elt("J"), N2.elt("J"), 0).is_zero()
    assert n_product(N2, gp, gm, 5).is_zero()


def test_unknown_generator_rejected():
    with pytest.raises(CsalgError):
        N2.elt("Q")
    with pytest.raises(CsalgError):
        N2.gen_index(17)


def test_duplicate_generator_names_are_named():
    # the first name seen twice, as the parser and StructureConstants
    # report it
    gens = [Generator("a", EVEN), Generator("b", EVEN), Generator("b", EVEN),
            Generator("a", EVEN)]
    with pytest.raises(CsalgError) as err:
        AlgebraDef("X", N2.field, gens, {})
    assert str(err.value) == "duplicate generator name 'b' in 'X'"


def test_cs4_completion_derives_missing_pairs():
    # from [J lambda G+] = G+ the completion must produce
    # G+_{(0)} J = -G+ and nothing in higher lambda degree
    derived = cs4_transform(N2, N2.gen_index("G+"), N2.gen_index("J"))
    assert derived == poly({0: N2.elt("G+", coeff=-1)})
    assert N2.table[(N2.gen_index("G+"), N2.gen_index("J"))] == derived


def _skew_oracle(entry, p):
    """-p sum_m (-lambda - D)^{(m)} e_m on the raw terms of [b lambda a] =
    sum_m lambda^{(m)} e_m: D^{(l)} D^{(j)} v = C(j + l, l) D^{(j+l)} v."""
    out = {}
    for m, e in entry.coeffs.items():
        for (g, j, q), c in e.terms.items():
            for l in range(m + 1):
                _add_to(out.setdefault(m - l, {}), (g, j + l, q),
                        c * (-p * (-1) ** m * comb(j + l, l)))
    return LambdaPoly(entry.field, {n: ConfElt(entry.field, terms)
                                    for n, terms in out.items()})


def test_cs4_transform_matches_the_skew_symmetry_expansion():
    # entries of lambda-degree up to 3 and D-powers up to 2 on the
    # even-even pair (a, b), the even-odd pairs (a, c), (d, b) and the
    # odd-odd pair (c, d), each given in one orientation only
    field = N2.field
    gens = [Generator("a", EVEN), Generator("b", EVEN), Generator("c", ODD),
            Generator("d", ODD)]
    rng = random.Random(35)
    for _ in range(10):
        table = {}
        for i, j in ((0, 1), (0, 2), (3, 1), (2, 3)):
            parity = (gens[i].parity + gens[j].parity) % 2
            targets = [g for g in range(4) if gens[g].parity == parity]
            table[(i, j)] = LambdaPoly(field, {
                m: ConfElt(field, {
                    (rng.choice(targets), rng.randint(0, 2), 0):
                        field.rational(Fraction(rng.randint(-3, 3), 2))
                        * field.zeta(rng.randrange(24))
                    for _ in range(3)})
                for m in range(rng.randint(1, 4))})
        A = AlgebraDef("X", field, gens, table)
        for (i, j), given in table.items():
            derived = cs4_transform(A, j, i)
            assert derived == _skew_oracle(given, A.parity_sign(i, j))
            # the transform of the derived orientation gives back the entry
            back = AlgebraDef("Y", field, gens, {(j, i): derived})
            assert cs4_transform(back, i, j) == given


def test_cs4_transform_is_an_involution_on_every_pair():
    # the CS4 sweep asks only the pairs i <= j when they all pass, which
    # is sound because the transform undoes itself on every entry
    rng = random.Random(39)
    tables = [N2, make_n4(), make_current(sl2_constants())] + [
        random_algebra(rng, tag) for tag in range(20)]
    for A in tables:
        for (i, j), entry in A.table.items():
            there = cs4_transform(A, j, i)  # from the entry (i, j)
            B = AlgebraDef(A.name, A.field, A.generators,
                           {**A.table, (j, i): there})
            assert cs4_transform(B, i, j) == entry


def _cs4_failures_by_ordered_pairs(A):
    """The CS4 failures of every ordered pair, in order, each at the
    lowest degree where the stored entry and its transform differ."""
    failures = []
    for i, j in product(range(A.ngens()), repeat=2):
        stored, derived = A.table[(i, j)], cs4_transform(A, i, j)
        if stored != derived:
            n = min(n for n in set(stored.coeffs) | set(derived.coeffs)
                    if stored.get(n) != derived.get(n))
            failures.append(((A.generators[i].name, A.generators[j].name),
                             "n=%d" % n))
    return failures


def test_cs4_sweep_matches_a_loop_over_ordered_pairs():
    tables = [N2, make_n4(), make_current(sl2_constants())]
    mutants = [M for A in tables for M in _times_three_mutants(A)]
    assert len(mutants) == 23 + 85 + 6
    for M in tables + mutants:
        report = core.AxiomReport(M.name)
        core._sweep_cs4(M, report)
        want = _cs4_failures_by_ordered_pairs(M)
        assert [(f.location, f.detail) for f in report.failures] == want
        assert report.verdicts == {"CS4": not want}
        assert report.counts == {"CS4": "%d pairs" % M.ngens() ** 2}
        assert bool(want) is (M not in tables)


def test_completion_idempotent_on_complete_table():
    again = complete_table_cs4(N2)
    assert again == N2


def test_corrupted_diagonal_is_rejected():
    bad_table = dict(N2.table)
    L = N2.gen_index("L")
    bad_table[(L, L)] = poly({0: N2.elt("L", dpow=1), 1: N2.elt("L", coeff=3)})
    bad = AlgebraDef("N2", N2.field, N2.generators, bad_table)
    with pytest.raises(TableInconsistencyError) as err:
        complete_table_cs4(bad)
    assert err.value.pair == ("L", "L")
    assert err.value.n == 0


def test_check_axioms_passes_on_n2():
    report = check_axioms(N2)
    assert report.ok
    assert report.verdicts["CS4"] and report.verdicts["CS5"]


def test_axiom_report_renders_itself():
    report = check_axioms(N2)
    lines = report.lines(lambda ok: "yes" if ok else "no")
    assert lines[0] == "algebra N2:"
    assert lines[5] == "  CS4: yes (16 pairs)"
    assert str(report).splitlines()[6] == "  CS5: pass (64 triples)"
    payload = report.as_json()
    assert payload["algebra"] == "N2" and payload["ok"] is True
    assert payload["counts"]["CS5"] == "64 triples"
    assert payload["failures"] == []


def test_check_axioms_detects_skew_mutation():
    bad_table = dict(N2.table)
    L = N2.gen_index("L")
    bad_table[(L, L)] = poly({0: N2.elt("L", dpow=1), 1: N2.elt("L", coeff=3)})
    bad = AlgebraDef("N2", N2.field, N2.generators, bad_table)
    report = check_axioms(bad)
    assert not report.verdicts["CS4"]
    locations = {f.location for f in report.failures if f.axiom == "CS4"}
    assert ("L", "L") in locations
    details = {f.detail for f in report.failures
               if f.axiom == "CS4" and f.location == ("L", "L")}
    assert "n=0" in details


def test_check_axioms_detects_jacobi_mutation():
    # dropping the constant term of [G+ lambda G-] keeps CS4 on that pair
    # intact only if both orientations are mutated consistently; do so and
    # watch CS5 fail on (J, G+, G-)
    bad_table = dict(N2.table)
    gp, gm = N2.gen_index("G+"), N2.gen_index("G-")
    mutated = poly({1: N2.table[(gp, gm)].get(1)})
    bad_table[(gp, gm)] = mutated
    shell = AlgebraDef("N2", N2.field, N2.generators, bad_table)
    bad_table[(gm, gp)] = cs4_transform(shell, gm, gp)
    bad = AlgebraDef("N2", N2.field, N2.generators, bad_table)
    report = check_axioms(bad)
    assert not report.verdicts["CS5"]
    locations = {f.location for f in report.failures if f.axiom == "CS5"}
    assert ("J", "G+", "G-") in locations


_KERNEL = core._bracket_terms
_DECORATED_PAIR = core._decorated_pair


def _kernel_without_base_change(A, x, y):
    """A mutant of ``_bracket_terms``: each term of x is bracketed without
    its t^q and the result shifted by t^q, so it drops the C(q, l)
    lambda-derivatives of the base-change rule."""
    M = lcm(x.level, y.level)
    acc = {}
    for (g, j, q), c in x.terms.items():
        got, m = _KERNEL(A, ConfElt._trusted(A.field, {(g, j, 0): c}), y)
        dQ = q.numerator * (M // q.denominator)
        for n, terms in got.items():
            out = acc.setdefault(n, {})
            for (g2, j2, Q), v in terms.items():
                _add_to(out, (g2, j2, Q * (M // m) + dQ), v)
    return acc, M


def _lift_with_unscaled_exponents(A, x, y):
    """A mutant of ``lambda_bracket`` that lifts the kernel's maps but keeps
    the lattice exponent Q = M q where q belongs."""
    acc, _ = core._bracket_terms(A, x, y)
    return LambdaPoly(A.field, {
        n: ConfElt(A.field, {k: A.field.scalar(v) for k, v in terms.items()})
        for n, terms in acc.items()})


def test_check_axioms_detects_an_evaluator_without_base_change(monkeypatch):
    # the kernel mutant drops the C(q, l) lambda-derivatives that CS1 and
    # CS3 exercise on the left slot; generators carry no t, so the CS4 and
    # CS5 sweeps see the true table
    monkeypatch.setattr(core, "_bracket_terms", _kernel_without_base_change)
    for A in (N2, make_n4()):
        report = check_axioms(A)
        assert not report.verdicts["CS1"] and not report.verdicts["CS3"]
        assert report.verdicts["CS4"] and report.verdicts["CS5"]
        where = {(f.axiom, f.location) for f in report.failures}
        assert where == {("CS1", "left slot"), ("CS1", "right slot"),
                         ("CS3", "left slot")}, A.name


def test_check_axioms_detects_a_lift_with_unscaled_exponents(monkeypatch):
    # only the public bracket is wrong: its lowered base no longer agrees
    # with the derived brackets, which come from the kernel
    monkeypatch.setattr(core, "lambda_bracket", _lift_with_unscaled_exponents)
    for A in (N2, make_n4()):
        report = check_axioms(A)
        failed = {ax for ax, ok in report.verdicts.items() if not ok}
        assert failed == {"CS1", "CS3"}, A.name


def test_check_axioms_detects_a_derivation_without_d_dt(monkeypatch):
    # D_A (x) 1 alone breaks the Leibniz rule against t^q exactly when
    # q != 0; CS1 and CS3 build their derivations from _partial_terms and
    # the sweeps never call apply_partial, so only CS2 sees the mutant
    monkeypatch.setattr(core, "apply_partial", apply_partial_algebra)
    for A in (N2, make_n4()):
        report = check_axioms(A)
        failed = {ax for ax, ok in report.verdicts.items() if not ok}
        assert failed == {"CS2"}, A.name
        where = {f.location for f in report.failures}
        assert where and where <= {"t^-2", "t^-1", "t^1", "t^2"}, A.name


def _snap(x):
    """x with every exponent moved to the nearest point of (1/2)Z."""
    terms = {}
    for (g, j, q), c in x.terms.items():
        _add_to(terms, (g, j, _q(Fraction(round(2 * q), 2))), c)
    return ConfElt._trusted(x.field, terms)


def _kernel_on_half_integers(A, x, y):
    """A mutant of ``_bracket_terms`` that brackets on (1/2)Z alone: t^{1/3}
    goes to t^{1/2}, as a lattice fixed at (1/2)Z would send it."""
    return _KERNEL(A, _snap(x), _snap(y))


def test_check_axioms_detects_a_kernel_on_half_integers(monkeypatch):
    monkeypatch.setattr(core, "_bracket_terms", _kernel_on_half_integers)
    for A in (N2, make_n4()):
        report = check_axioms(A)
        failed = {ax for ax, ok in report.verdicts.items() if not ok}
        assert failed == {"CS1", "CS3"}, A.name


def test_check_axioms_detects_a_pair_wrong_only_at_d2(monkeypatch):
    # every decorated pair with a D^{(2)} argument doubled; the trials
    # reach D^{(2)} directly and as D of a D^{(1)} term
    def doubled_at_d2(A, g1, j1, g2, j2):
        pair = _DECORATED_PAIR(A, g1, j1, g2, j2)
        if 2 not in (j1, j2):
            return pair
        return tuple((n, tuple((g, j, 2 * c) for g, j, c in terms))
                     for n, terms in pair)

    monkeypatch.setattr(core, "_decorated_pair", doubled_at_d2)
    for A in (N2, make_n4()):
        report = check_axioms(A)
        assert not report.verdicts["CS1"], A.name


def test_spot_checks_read_the_lattice_of_their_samples(monkeypatch):
    # on trials with exponents in (1/6)Z the spot checks still pass on true
    # tables and still catch the kernel without base change; a lattice
    # fixed at (1/2)Z sends t^{1/3} to t^0
    third, sixth = Fraction(1, 3), Fraction(-5, 6)
    trials = tuple(
        (((0, j, q1, 2), (1, 2 - j, sixth, -1)), ((3, j, q2, 1),), q)
        for j, q1, q2, q in [(0, third, HALF, 1), (1, sixth, -1, -1),
                             (2, -third, third, 2), (1, 1, sixth, -2)])
    monkeypatch.setattr(core, "_TRIALS", trials)
    for A in (N2, make_n4()):
        report = check_axioms(A)
        assert report.ok and report.counts["CS1"] == "8 spot checks", A.name
    monkeypatch.setattr(core, "_bracket_terms", _kernel_without_base_change)
    for A in (N2, make_n4()):
        report = check_axioms(A)
        failed = {ax for ax, ok in report.verdicts.items() if not ok}
        assert failed == {"CS1", "CS3"}, A.name


@pytest.mark.parametrize("make", [make_n2, make_n4], ids=["N2", "N4"])
def test_the_trials_reach_every_branch_on_each_slot(make):
    A = make()
    trials = core._trials(A)
    assert len(trials) == 8
    for slot in (0, 1):
        keys = [k for trial in trials for k in trial[slot].terms]
        assert 1 <= min(len(t[slot].terms) for t in trials)
        assert max(len(t[slot].terms) for t in trials) <= 2
        assert {g for g, _, _ in keys} == set(range(A.ngens()))
        assert {j for _, j, _ in keys} == {0, 1, 2}
        exponents = {q for _, _, q in keys}
        if slot == 0:
            assert exponents == {0, 1, -1, 2, HALF, -HALF, Fraction(1, 3)}
            assert {Fraction(q).denominator for q in exponents} == {1, 2, 3}
        else:
            assert exponents == {0, HALF, 1, -1}
    assert {lcm(x.level, y.level) for x, y, _ in trials} == {1, 2, 3, 6}
    assert {q for _, _, q in trials} == {1, -1, 2, -2}
    # the seed is ignored
    want = check_axioms(A)
    for seed in range(4):
        got = check_axioms(A, seed)
        assert str(got) == str(want)
        assert got.as_json() == want.as_json()


def test_an_algebra_without_generators_passes_vacuously():
    report = check_axioms(AlgebraDef("E", CycloField.get(24), [], {}))
    assert report.ok
    assert str(report) == "\n".join([
        "algebra E:",
        "  CS0: pass (0 table entries)",
        "  CS1: pass (0 spot checks)",
        "  CS2: pass (0 spot checks)",
        "  CS3: pass (0 spot checks)",
        "  CS4: pass (0 pairs)",
        "  CS5: pass (0 triples)"])


def _public_sample(A, rng, exponents=(0, 1, -1, HALF)):
    """A random element: 1-3 terms, each D-power at most 2, each exponent
    from ``exponents`` and each coefficient an int in [-3, 3]."""
    terms = {}
    for _ in range(rng.randrange(1, 4)):
        g = rng.randrange(A.ngens())
        j = rng.randrange(3)
        q = rng.choice(exponents)
        terms[(g, j, q)] = A.field.rational(rng.randrange(-3, 4))
    return ConfElt(A.field, terms)


def _spot_checks_on_public_objects(A):
    """The CS1-CS3 verdicts and failure locations of check_axioms, from the
    laws written on LambdaPoly and ConfElt, on the trials of check_axioms
    lifted to public scalars, and every bracket taken through the public
    lambda_bracket."""
    one = A.field.one()
    trials = [(x.scale(one), y.scale(one), q) for x, y, q in core._trials(A)]
    verdicts = {"CS1": True, "CS2": True, "CS3": True}
    failures = []

    def fail(axiom, location):
        verdicts[axiom] = False
        failures.append((axiom, location))

    for x, y, _ in trials:
        base = lambda_bracket(A, x, y)
        if lambda_bracket(A, apply_partial(A, x), y) != -base.lambda_shift(1):
            fail("CS1", "left slot")
        rhs = base.map_coeffs(lambda e: apply_partial(A, e)) \
            + base.lambda_shift(1)
        if lambda_bracket(A, x, apply_partial(A, y)) != rhs:
            fail("CS1", "right slot")
    for x, _, q in trials:
        rhs = apply_partial(A, x).shift_t(q) + x.shift_t(q - 1).scale(q)
        if apply_partial(A, x.shift_t(q)) != rhs:
            fail("CS2", "t^%s" % q)
    for x, y, q in trials:
        base = lambda_bracket(A, x, y)
        if lambda_bracket(A, x, y.shift_t(q)) != \
                base.map_coeffs(lambda e: e.shift_t(q)):
            fail("CS3", "right slot")
        rhs = A.zero_poly()
        for l in range(base.max_degree() + 1):
            w = binom_frac(q, l)
            if w:
                rhs = rhs + base.lambda_deriv(l).scale(w).map_coeffs(
                    lambda e, _l=l: e.shift_t(q - _l))
        if lambda_bracket(A, x.shift_t(q), y) != rhs:
            fail("CS3", "left slot")
    return verdicts, failures


@pytest.mark.parametrize("kernel", [_KERNEL, _kernel_without_base_change],
                         ids=["true", "without_base_change"])
def test_spot_checks_match_the_laws_on_public_objects(monkeypatch, kernel):
    monkeypatch.setattr(core, "_bracket_terms", kernel)
    failing = 0
    for A in (N2, make_n4()):
        report = check_axioms(A)
        verdicts, failures = _spot_checks_on_public_objects(A)
        assert {ax: report.verdicts[ax] for ax in verdicts} == verdicts
        assert [(f.axiom, f.location) for f in report.failures
                if f.axiom in verdicts] == failures, A.name
        failing += bool(failures)
    assert failing == (0 if kernel is _KERNEL else 2)


def _cs5_failures_by_dense_sweep(A, bound=None):
    """The CS5 failures of check_axioms from a visit to every (m, n) cell
    up to ``bound``, by default the vanishing bound maxl + maxd + 2, each
    side built as a ConfElt:
    [a_(m) [b_(n) c]] = sum_jj C(m, jj) [[a_(jj) b]_(m+n-jj) c]
                        + p(a, b) [b_(n) [a_(m) c]]."""
    ngen = A.ngens()
    maxl, maxd = A.table_degrees()
    if bound is None:
        bound = maxl + maxd + 2
    gens = [A.elt(i) for i in range(ngen)]
    names = [g.name for g in A.generators]
    failures = []
    for a in range(ngen):
        for b in range(ngen):
            poly_ab = A.table[(a, b)]
            for c in range(ngen):
                abj_c = [lambda_bracket(A, poly_ab.get(jj), gens[c])
                         for jj in range(poly_ab.max_degree() + 1)]
                b_amc = [lambda_bracket(A, gens[b], A.table[(a, c)].get(m))
                         for m in range(bound + 1)]
                for n in range(bound + 1):
                    lhs = lambda_bracket(A, gens[a], A.table[(b, c)].get(n))
                    for m in range(bound + 1):
                        # a missing degree adds nothing, so it is skipped
                        rhs = A.zero_elt()
                        for jj in range(min(m, len(abj_c) - 1) + 1):
                            term = abj_c[jj].coeffs.get(m + n - jj)
                            if term is not None:
                                rhs = rhs + term.scale(comb(m, jj))
                        term = b_amc[m].coeffs.get(n)
                        if term is not None:
                            rhs = rhs + term.scale(A.parity_sign(a, b))
                        if lhs.get(m) != rhs:
                            failures.append(
                                ((names[a], names[b], names[c]),
                                 "m=%d n=%d" % (m, n)))
    return failures


def _times_three_mutants(A, keep=lambda i, v: True):
    """A copy of A for each table coefficient v with keep(i, v), i its
    index in table order, with that one tripled."""
    index = count()
    for pair, entry in sorted(A.table.items()):
        for n, e in sorted(entry.coeffs.items()):
            for k, v in sorted(e.terms.items()):
                if not keep(next(index), v):
                    continue
                tripled = ConfElt(A.field, {**e.terms, k: 3 * v})
                table = dict(A.table)
                table[pair] = LambdaPoly(A.field,
                                         {**entry.coeffs, n: tripled})
                yield AlgebraDef(A.name, A.field, A.generators, table)


def _cs5_failures(report):
    return [(f.location, f.detail) for f in report.failures
            if f.axiom == "CS5"]


def test_sparse_jacobi_sweep_matches_the_dense_sweep():
    n4 = make_n4()
    n2_mutants = list(_times_three_mutants(N2))
    # every 17th N4 coefficient, and every one that holds zeta^6, an
    # irrational scalar
    n4_mutants = list(_times_three_mutants(
        n4, lambda i, v: i % 17 == 0 or 6 in v.coeffs))
    assert len(n2_mutants) == 23 and len(n4_mutants) == 26
    failing = 0
    for A in [N2, n4] + n2_mutants + n4_mutants:
        report = check_axioms(A)
        want = _cs5_failures_by_dense_sweep(A)
        assert _cs5_failures(report) == want
        assert report.verdicts["CS5"] is not bool(want)
        assert report.counts["CS5"] == "%d triples" % A.ngens() ** 3
        failing += bool(want)
    assert failing == 49


def test_jacobi_triples_cover_each_ordered_triple_or_multiset_once():
    for ngen, heads in ((0, 0), (1, 1), (4, 20), (8, 120)):
        reduced = core._jacobi_triples(ngen, True)
        assert len(reduced) == heads
        assert sorted(tuple(sorted(t)) for t in reduced) == \
            list(combinations_with_replacement(range(ngen), 3))
        # the full sweep checks every ordered triple once, in order
        assert core._jacobi_triples(ngen, False) == \
            list(product(range(ngen), repeat=3))


def _sweeps_taken(monkeypatch):
    """The ``reduced`` flag of each CS5 sweep run from now on, in order."""
    taken = []
    triples = core._jacobi_triples

    def recorded(ngen, reduced):
        taken.append(reduced)
        return triples(ngen, reduced)

    monkeypatch.setattr(core, "_jacobi_triples", recorded)
    return taken


def _full_sweep_failures(A):
    """The CS5 failures of the full ordered sweep alone: a report holding
    no CS1-CS4 verdicts never takes the reduced sweep."""
    report = core.AxiomReport(A.name)
    core._sweep_cs5(core._integral(A), report)
    return _cs5_failures(report)


def _skew_mutants(A):
    """For each coefficient of an entry (i, j) with i < j, a copy of A with
    it tripled, (j, i) dropped and the table completed by skew-symmetry,
    so CS4 holds on each."""
    for (i, j), entry in sorted(A.table.items()):
        if i >= j:
            continue
        for n, e in sorted(entry.coeffs.items()):
            for k, v in sorted(e.terms.items()):
                table = dict(A.table)
                tripled = ConfElt(A.field, {**e.terms, k: 3 * v})
                table[(i, j)] = LambdaPoly(A.field,
                                           {**entry.coeffs, n: tripled})
                del table[(j, i)]
                yield complete_table_cs4(
                    AlgebraDef(A.name, A.field, A.generators, table))


def test_reduced_jacobi_sweep_on_skew_symmetric_mutants(monkeypatch):
    # each mutant passes CS1-CS4, so the sweep asks one ordering of each
    # generator multiset first; every one fails there, and the full
    # ordered sweep then reports, matching the dense sweep on N2 and the
    # full sweep alone on a slice of N4
    n4 = make_n4()
    n2_mutants = list(_skew_mutants(N2))
    n4_mutants = list(_skew_mutants(n4))
    assert (len(n2_mutants), len(n4_mutants)) == (11, 43)
    taken = _sweeps_taken(monkeypatch)
    for A in [N2, n4] + n2_mutants + n4_mutants[::3]:
        if A.ngens() == 4:
            want = _cs5_failures_by_dense_sweep(A)
        else:
            want = _full_sweep_failures(A)
        taken.clear()
        report = check_axioms(A)
        assert report.verdicts["CS4"]
        assert _cs5_failures(report) == want
        assert taken == ([True, False] if want else [True])
        assert bool(want) is (A not in (N2, n4))


def test_reduced_jacobi_sweep_on_random_tables(monkeypatch):
    # random skew-symmetric tables of lambda-degree at most 2, graded by
    # parity: the reduced sweep settles every passing one alone
    rng = random.Random(3939)
    taken = _sweeps_taken(monkeypatch)
    passing = failing = 0
    for tag in range(60):
        A = random_algebra(rng, tag)
        want = _full_sweep_failures(A)
        taken.clear()
        report = check_axioms(A)
        assert _cs5_failures(report) == want
        assert taken == ([True, False] if want else [True])
        failing += bool(want)
        passing += not want and any(
            e.terms for p in A.table.values() for e in p.coeffs.values())
    assert (passing, failing) == (7, 34)


def _with_lambda_degree(A, rng, degree):
    """A copy of A with the lowest coefficient of one random entry (i, j),
    i < j, repeated at lambda^(degree) and (j, i) completed by
    skew-symmetry, or None when no such entry is nonzero."""
    upper = sorted((i, j) for (i, j), entry in A.table.items()
                   if i < j and entry.coeffs)
    if not upper:
        return None
    i, j = rng.choice(upper)
    entry = A.table[(i, j)]
    table = dict(A.table)
    lowest = entry.coeffs[min(entry.coeffs)]
    table[(i, j)] = LambdaPoly(A.field, {**entry.coeffs, degree: lowest})
    del table[(j, i)]
    return complete_table_cs4(
        AlgebraDef(A.name, A.field, A.generators, table))


def _h3():
    """A, B even of weight 2, C even of weight 0, [A lambda B] =
    lambda^(3) C.  Every bracket lands in the span of the D^(k) C, which
    bracket to zero, so CS5 holds."""
    F = CycloField.get(24)
    return complete_table_cs4(AlgebraDef(
        "H3", F, [Generator("A", EVEN, 2), Generator("B", EVEN, 2),
                  Generator("C", EVEN, 0)],
        {(0, 1): LambdaPoly(F, {3: ConfElt(F, {(2, 0, 0): F.rational(1)})})}))


def test_lambda_degree_three_takes_the_reduced_jacobi_sweep_first(
        monkeypatch):
    # a lambda^(3) term puts middle-term cells past the vanishing bound,
    # which the sweep leaves out; under skew-symmetry they are zero, so
    # the reduced sweep runs first and the report is that of the full one
    rng = random.Random(393)
    taken = _sweeps_taken(monkeypatch)
    tables = 0
    for tag in range(40):
        A = _with_lambda_degree(random_algebra(rng, tag), rng, 3)
        if A is None:
            continue
        assert A.table_degrees()[0] == 3
        want = _full_sweep_failures(A)
        taken.clear()
        report = check_axioms(A)
        assert report.verdicts["CS4"]
        assert _cs5_failures(report) == want
        assert taken == ([True, False] if want else [True])
        tables += 1
    assert tables > 20


def test_no_jacobi_failure_lies_past_the_vanishing_bound():
    # under CS4, J_abc(lambda, mu) = -p(a, b) J_bac(mu, lambda), whose
    # every term has lambda-degree at most maxl + maxd: the dense sweep
    # raised to 2 maxl + maxd, where the middle term stops, finds the
    # failures of the vanishing bound and no more (the cells up to the
    # vanishing bound are visited as by the default sweep, and in order).
    # The middle term reaches maxl - 2 cells past the bound whatever maxd
    # is, so to keep the dense sweeps small, tables with maxd > maxl are
    # skipped and those of lambda-degree 4 and 5 have two generators
    report = check_axioms(_h3())
    assert report.ok
    assert (report.counts["CS4"], report.counts["CS5"]) == \
        ("9 pairs", "27 triples")
    rng = random.Random(4040)
    tables = [_h3()]
    while len(tables) < 21:
        degree = 3 + len(tables) % 3
        A = random_algebra(rng, len(tables))
        if A.ngens() <= (3 if degree == 3 else 2):
            A = _with_lambda_degree(A, rng, degree)
            if A is not None and A.table_degrees()[1] <= degree:
                tables.append(A)
    failing = 0
    for A in tables:
        maxl, maxd = A.table_degrees()
        report = check_axioms(A)
        assert report.verdicts["CS4"]
        bound = maxl + maxd + 2
        raised = _cs5_failures_by_dense_sweep(A, 2 * maxl + maxd)
        # a cell reads "m=<m> n=<n>"
        want = [(triple, cell) for triple, cell in raised
                if all(int(part[2:]) <= bound for part in cell.split())]
        assert raised == want
        assert _cs5_failures(report) == want
        failing += bool(want)
    assert failing == 15
    assert {A.table_degrees()[0] for A in tables} == {3, 4, 5}


def test_a_table_off_its_parity_grading_takes_the_full_jacobi_sweep(
        monkeypatch):
    # [E lambda A] = 2E with E even and A odd: the entry lies in the wrong
    # parity, skew-symmetry then carries the Jacobi identity from one
    # ordering to another only up to a sign, and the reduced sweep alone
    # would pass a table whose other orderings fail
    F = CycloField.get(24)
    A = complete_table_cs4(AlgebraDef(
        "X", F, [Generator("E", EVEN), Generator("A", ODD)],
        {(0, 1): LambdaPoly(F, {0: ConfElt(F, {(0, 0, 0): F.rational(2)})})}))
    taken = _sweeps_taken(monkeypatch)
    report = check_axioms(A)
    want = _cs5_failures_by_dense_sweep(A)
    assert want and _cs5_failures(report) == want
    assert taken == [False]
    assert all(report.verdicts["CS%d" % k] for k in range(1, 5))
    monkeypatch.setattr(core, "_parity_graded", lambda A: True)
    assert check_axioms(A).verdicts["CS5"]


def _scaled(A, s):
    """A with every table entry multiplied by the rational s."""
    return AlgebraDef(A.name, A.field, A.generators,
                      {pair: p.scale(A.field.rational(s))
                       for pair, p in A.table.items()})


@pytest.mark.parametrize("make", [make_n2, make_n4], ids=["N2", "N4"])
def test_reports_are_homogeneous_in_the_table(make):
    # CS1-CS4 are linear in the table and CS5 is quadratic, so scaling
    # every entry by a nonzero rational changes no verdict, count or
    # failure location
    A = make()
    for M in [A] + list(_times_three_mutants(A)):
        want = check_axioms(M)
        for S in [_scaled(M, Fraction(7, 3)), _scaled(M, -2)]:
            got = check_axioms(S)
            assert str(got) == str(want)
            assert got.as_json() == want.as_json()


def _rescaled(A, powers):
    """A on the basis w_g = zeta^{powers[g]} v_g, a name missing from
    ``powers`` keeping v_g: [w_a lambda w_b] = u_a u_b [v_a lambda v_b],
    so the coefficient c at D^{(j)} v_k becomes c u_a u_b / u_k."""
    F = A.field
    s = [powers.get(g.name, 0) for g in A.generators]
    return AlgebraDef(A.name, F, A.generators, {
        (a, b): LambdaPoly(F, {
            n: ConfElt(F, {(k, j, q): c * F.zeta(s[a] + s[b] - s[k])
                           for (k, j, q), c in e.terms.items()})
            for n, e in p.coeffs.items()})
        for (a, b), p in A.table.items()})


def test_jacobi_sweep_is_covariant_under_roots_of_unity():
    # the rescaling is a change of basis, so every verdict, count and
    # failure location is that of the table it rescales; products of the
    # rescaled scalars (zeta^1, zeta^5, zeta^7, ...) reach exponents past
    # phi(24) = 8 before the sweep reduces them
    n4 = make_n4()
    powers = {"G1": 1, "J1": 5}
    # table indices 18, 27 and 72 hold zeta^6, 9 and 45 are rational
    mutants = list(_times_three_mutants(
        n4, lambda i, v: i in (9, 18, 27, 45, 72)))
    assert len(mutants) == 5
    failing = 0
    for M in [n4] + mutants:
        R = _rescaled(M, powers)
        assert any(max(v.coeffs) >= 4 for p in R.table.values()
                   for e in p.coeffs.values() for v in e.terms.values())
        want = check_axioms(M)
        got = check_axioms(R)
        assert str(got) == str(want)
        assert got.as_json() == want.as_json()
        failing += not want.ok
    assert failing == 5


def test_jacobi_sweep_on_an_odd_conductor():
    # zeta_15 has no power equal to -1, so the sweep may fold no product
    # exponent; the rescaled table holds scalars such as zeta^{-1}, whose
    # reduced form reaches zeta^7, so products reach past 15/2
    R = _rescaled(make_n2(15), {"G+": 1, "J": 2})
    assert R.field.conductor == 15
    assert any(max(v.coeffs) >= 7 for p in R.table.values()
               for e in p.coeffs.values() for v in e.terms.values())
    mutants = list(_times_three_mutants(R))
    assert len(mutants) == 23
    failing = 0
    for M in [R] + mutants:
        report = check_axioms(M)
        want = _cs5_failures_by_dense_sweep(M)
        assert _cs5_failures(report) == want
        assert report.verdicts["CS5"] is not bool(want)
        failing += bool(want)
    assert failing == 23


def test_integral_table_clears_the_denominators():
    sl2 = make_current(sl2_constants())
    assert core._integral(sl2) is sl2
    for A in (N2, make_n4()):
        got = core._integral(A)
        assert got.name == A.name and got.generators == A.generators
        assert got.table == _scaled(A, 2).table
        assert all(r.__class__ is int
                   for p in got.table.values() for e in p.coeffs.values()
                   for v in e.terms.values() for r in v.coeffs.values())


def test_a_subfield_scalar_in_the_table_is_read_in_its_own_field():
    # N4 with every irrational table scalar, a rational multiple of
    # zeta_24^6 = i, held as the same scalar of Q(zeta_4): the same
    # algebra, with D = 2
    n4 = make_n4()
    qi = CycloField.get(4)

    def narrow(v):
        if 6 in v.coeffs and len(v.coeffs) == 1:
            return qi.element({1: v.coeffs[6]})
        return v

    table = {pair: LambdaPoly(n4.field, {
        n: ConfElt(n4.field, {k: narrow(v) for k, v in e.terms.items()})
        for n, e in p.coeffs.items()}) for pair, p in n4.table.items()}
    A = AlgebraDef(n4.name, n4.field, n4.generators, table)
    held = [v for p in A.table.values() for e in p.coeffs.values()
            for v in e.terms.values() if v.field is qi]
    assert len(held) == 22
    assert any(r.__class__ is Fraction for v in held
               for r in v.coeffs.values())
    want = check_axioms(n4)
    got = check_axioms(A)
    assert str(got) == str(want)
    assert got.as_json() == want.as_json()


#: N2 on the generators L, 3J, G+, G-: [J lambda G+-] = +-3 G+- and
#: [G+ lambda G-] = L + 1/6 DJ + lambda (1/3 J), so the table's
#: denominators are 2, 3 and 6.
N2J3_SOURCE = """\
algebra N2J3
cyclotomic 24

generator L parity=even weight=2
generator J parity=even weight=1
generator G+ parity=odd weight=3/2
generator G- parity=odd weight=3/2

bracket L L = D L + x*(2*L)
bracket L J = D J + x*(J)
bracket L G+ = D G+ + x*(3/2*G+)
bracket L G- = D G- + x*(3/2*G-)
bracket J G+ = 3*G+
bracket J G- = -3*G-
bracket G+ G- = L + 1/6*D J + x*(1/3*J)
"""


def test_a_rescaled_generator_clears_a_denominator_of_six():
    A = parse_algebra(N2J3_SOURCE)
    # rescaling a generator is an isomorphism, so every axiom holds
    report = check_axioms(A)
    assert report.verdicts == {"CS%d" % i: True for i in range(6)}
    assert core._integral(A).table == _scaled(A, 6).table
    mutants = list(_times_three_mutants(A))
    assert len(mutants) == 23
    failing = 0
    for M in mutants:
        want = _cs5_failures_by_dense_sweep(M)
        assert _cs5_failures(check_axioms(M)) == want
        failing += bool(want)
    assert failing == 23


def test_a_missing_table_entry_is_named():
    table = dict(N2.table)
    del table[(N2.gen_index("J"), N2.gen_index("G+"))]
    A = AlgebraDef("N2", N2.field, N2.generators, table)
    message = r"^bracket table has no entry for \(J, G\+\); complete"
    with pytest.raises(CsalgError, match=message):
        check_axioms(A)
    with pytest.raises(CsalgError, match=message):
        core._sweep_cs5(core._integral(A), core.AxiomReport("N2"))


def test_hat_basis_examples():
    got = to_hat_basis(N2, N2.elt("L", dpow=1, q=1))
    L = N2.gen_index("L")
    assert set(got) == {(L, 1, Fraction(1)), (L, 0, Fraction(0))}
    assert got[(L, 1, Fraction(1))] == 1
    assert got[(L, 0, Fraction(0))] == -1
    # Dhat(L t) - L = DL t + L - L: the cancelled term leaves no key
    assert from_hat_basis(N2, got) == N2.elt("L", dpow=1, q=1)
    for name in ("L", "J", "G+", "G-"):
        g = N2.gen_index(name)
        elt = N2.elt(name, q=Fraction(-3, 2))
        assert to_hat_basis(N2, elt) == \
            {(g, 0, Fraction(-3, 2)): N2.field.one()}


def test_hat_basis_round_trip():
    rng = random.Random(2024)
    for _ in range(30):
        terms = {}
        for _ in range(rng.randrange(1, 5)):
            g = rng.randrange(N2.ngens())
            j = rng.randrange(5)
            q = Fraction(rng.randrange(-6, 7), rng.choice((1, 2)))
            terms[(g, j, q)] = N2.field.rational(rng.randrange(-3, 4))
        from csalg.core import ConfElt

        x = ConfElt(N2.field, terms)
        assert from_hat_basis(N2, to_hat_basis(N2, x)) == x


def _hat_rep_by_recursion(g, j, q, memo):
    """D_A^{(j)} v_g (x) t^q on the hat basis, from
    D_A^{(j)} = Dhat^{(j)} - sum_{i<j} (d/dt)^{(j-i)} D_A^{(i)}."""
    key = (g, j, q)
    if key in memo:
        return memo[key]
    rep = {key: Fraction(1)}
    for i in range(j):
        w = binom_frac(q, j - i)
        if not w:
            continue
        for k, c in _hat_rep_by_recursion(g, i, q - (j - i), memo).items():
            s = rep.get(k, Fraction(0)) - w * c
            if s:
                rep[k] = s
            else:
                rep.pop(k, None)
    memo[key] = rep
    return rep


def test_hat_rep_closed_form_matches_the_recursion():
    A = make_n2()
    memo = {}
    for g in range(A.ngens()):
        for j in range(7):
            for k in range(-18, 19):
                q = Fraction(k, 6)
                want = _hat_rep_by_recursion(g, j, q, memo)
                # same keys, values and insertion order
                assert list(_hat_rep(A, g, j, q).items()) == \
                    list(want.items())


def test_hat_elements_are_unit_vectors_on_the_hat_basis():
    one = N2.field.one()
    for g in range(N2.ngens()):
        for l in range(5):
            for k in range(-12, 13):
                q = Fraction(k, 6)
                hat = apply_partial_power(N2, N2.elt(g, q=q), l)
                assert to_hat_basis(N2, hat) == {(g, l, q): one}


def test_cs1_evaluator_laws():
    rng = random.Random(5)
    for _ in range(15):
        x = _public_sample(N2, rng)
        y = _public_sample(N2, rng)
        base = lambda_bracket(N2, x, y)
        # full-derivation forms hold for arbitrary decorated elements
        assert lambda_bracket(N2, apply_partial(N2, x), y) == \
            -base.lambda_shift(1)
        assert lambda_bracket(N2, x, apply_partial(N2, y)) == \
            base.map_coeffs(lambda e: apply_partial(N2, e)) + \
            base.lambda_shift(1)
        # the derivation property follows
        assert base.map_coeffs(lambda e: apply_partial(N2, e)) == \
            lambda_bracket(N2, apply_partial(N2, x), y) + \
            lambda_bracket(N2, x, apply_partial(N2, y))


def test_cs1_algebra_only_form_on_t_constant_elements():
    rng = random.Random(6)
    for _ in range(15):
        x = _public_sample(N2, rng, exponents=(0,))
        y = _public_sample(N2, rng, exponents=(0,))
        base = lambda_bracket(N2, x, y)
        assert lambda_bracket(N2, apply_partial_algebra(N2, x), y) == \
            -base.lambda_shift(1)


def test_find_virasoro():
    assert find_virasoro(N2) == N2.gen_index("L")
    shipped = [parse_algebra(data_text(name))
               for name in ("n2.csa", "n4.csa")]
    for A in [make_n4()] + shipped:
        assert find_virasoro(A) == 0
    assert find_virasoro(make_current(sl2_constants())) is None
    # [L lambda L] = DL + 3 lambda L: L is primary of weight 3, not Virasoro
    table = dict(N2.table)
    table[(0, 0)] = poly({0: N2.elt("L", dpow=1), 1: N2.elt("L", coeff=3)})
    assert find_virasoro(
        AlgebraDef("N2", N2.field, N2.generators, table)) is None


def test_find_virasoro_skips_an_odd_generator():
    # an odd G scanned first, its table entry shaped like the Virasoro one
    # [G lambda G] = (D + 2 lambda) G
    gens = [Generator("G", ODD), Generator("L", EVEN)]
    A = AlgebraDef("V", N2.field, gens, {})
    for i in range(2):
        A.table[(i, i)] = LambdaPoly(A.field, {0: A.elt(i, dpow=1),
                                               1: A.elt(i, coeff=2)})
    assert find_virasoro(A) == 1


def test_printing_round_trippable_forms():
    assert N2.elt_string(N2.elt("G+", dpow=2, q=HALF, coeff=-3)) == \
        "-3*D^(2) G+ t^{1/2}"
    entry = N2.table[(N2.gen_index("G+"), N2.gen_index("G-"))]
    assert N2.poly_string(entry) == "L + 1/2*D J + x*(J)"
    assert N2.elt_string(N2.zero_elt()) == "0"


def test_cancelling_conf_elt_sums_leave_no_key():
    F = N2.field
    L, J = N2.gen_index("L"), N2.gen_index("J")
    x = N2.elt("L", dpow=1, q=HALF, coeff=3) + N2.elt("J", coeff=F.zeta(1))
    assert (x + (-x)).terms == {}
    assert (x - x).terms == {}
    rest = x + N2.elt("L", dpow=1, q=HALF, coeff=-3)
    assert rest.terms == {(J, 0, Fraction(0)): F.zeta(1)}
    assert (rest + x).terms == {(J, 0, Fraction(0)): F.element({1: 2}),
                                (L, 1, HALF): F.rational(3)}


def test_cancelling_lambda_poly_sums_leave_no_key():
    F = N2.field
    J = N2.gen_index("J")
    p = poly({0: N2.elt("L"), 1: N2.elt("J")})
    q = poly({0: -N2.elt("L"), 1: N2.elt("J")})
    got = (p + q).coeffs
    assert list(got) == [1]
    assert got[1] == ConfElt(F, {(J, 0, Fraction(0)): F.rational(2)})
    assert (p - p).coeffs == {}


def test_elt_refuses_a_coefficient_from_a_field_that_does_not_embed():
    with pytest.raises(ConductorError, match="zeta_5.*zeta_24"):
        N2.elt("G+", coeff=CycloField.get(5).zeta(1))


def test_elt_embeds_a_subfield_coefficient():
    i4 = CycloField.get(4).zeta(1)
    got = N2.elt("G+", coeff=i4)
    assert all(c.field is N2.field for c in got.terms.values())
    assert got.terms == {(N2.gen_index("G+"), 0, Fraction(0)):
                         N2.field.zeta(6)}
