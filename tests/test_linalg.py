import random
from collections import Counter
from fractions import Fraction

import pytest

from csalg import linalg
from csalg.algebras import make_n4
from csalg.cyclotomic import CycloField, CycloScalar, _add_to, _q
from csalg.errors import DomainError
from csalg.laurent import LaurentElt
from csalg.loops import eigenspaces
from csalg.linalg import (
    Echelon,
    _echelon,
    _echelon_insert,
    _null_basis,
    _product,
    _reduce_against,
    adjugate,
    det,
    mat_inverse_laurent,
    mat_mul,
    null_space,
    rank,
    solve,
)
from csalg.morphisms import n4_auto

FIELD = CycloField.get(24)


def _random_matrix(rng, nrows, ncols, density=0.7):
    return [[FIELD.rational(rng.randrange(-3, 4)) if rng.random() < density
             else FIELD.zero()
             for _ in range(ncols)] for _ in range(nrows)]


def rref(rows):
    """The reduced row echelon form of dense rows, read off the pivots of
    ``_echelon``: pivots[lead] = {u: m_u} is the row with 1 at lead and
    -m_u at each u.  Returns (nonzero rows, their lead columns)."""
    pivots = _echelon(rows)
    leads = sorted(pivots)
    reduced = []
    for lead in leads:
        row = [FIELD.zero()] * len(rows[0])
        row[lead] = FIELD.one()
        for u, m in pivots[lead].items():
            row[u] = FIELD.scalar(-m)
        reduced.append(row)
    return reduced, leads


def test_rref_simple():
    rows = [[FIELD.rational(2), FIELD.rational(4)],
            [FIELD.rational(1), FIELD.rational(2)]]
    reduced, pivots = rref(rows)
    assert pivots == [0]
    assert reduced[0][0] == 1 and reduced[0][1] == 2


def test_null_space_annihilates():
    rng = random.Random(99)
    for _ in range(20):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 6)
        m = _random_matrix(rng, nrows, ncols)
        basis = null_space(m, ncols, FIELD.zero())
        assert len(basis) == ncols - rank(m)
        for vec in basis:
            for row in m:
                acc = FIELD.zero()
                for a, x in zip(row, vec):
                    acc = acc + a * x
                assert acc.is_zero()


def test_solve_consistent_and_inconsistent():
    rows = [[FIELD.rational(1), FIELD.rational(1)],
            [FIELD.rational(1), FIELD.rational(-1)]]
    sol = solve(rows, [FIELD.rational(3), FIELD.rational(1)], 2, FIELD.zero())
    assert sol[0] == 2 and sol[1] == 1
    rows = [[FIELD.rational(1), FIELD.rational(1)],
            [FIELD.rational(2), FIELD.rational(2)]]
    assert solve(rows, [FIELD.rational(0), FIELD.rational(1)], 2,
                 FIELD.zero()) is None


def _regular_rank(matrix, power_of_zeta):
    """Rank over Q of the phi x phi regular-representation blow-up."""
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix
    phi = FIELD.degree
    rows = [[QQ(0)] * (phi * len(matrix[0])) for _ in range(phi * len(matrix))]
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            for e, c in entry.coeffs.items():
                block = power_of_zeta[e]
                for r in range(phi):
                    for s in range(phi):
                        if block[r][s]:
                            rows[phi * i + r][phi * j + s] += \
                                QQ(c.numerator, c.denominator) * block[r][s]
    return DomainMatrix(rows, (len(rows), len(rows[0])), QQ).rank()


def _zeta_powers():
    """Matrices of multiplication by zeta^e on the power basis, from sympy."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    poly = sympy.Poly(sympy.cyclotomic_poly(FIELD.conductor, x), x)
    low = [int(c) for c in reversed(poly.all_coeffs())][:-1]
    phi = len(low)
    # companion matrix: column j holds the coordinates of x * x^j
    comp = [[0] * phi for _ in range(phi)]
    for j in range(phi - 1):
        comp[j + 1][j] = 1
    for i in range(phi):
        comp[i][phi - 1] = -low[i]
    powers = [[[int(r == s) for s in range(phi)] for r in range(phi)]]
    for _ in range(1, FIELD.conductor):
        prev = powers[-1]
        powers.append([[sum(comp[r][k] * prev[k][s] for k in range(phi))
                        for s in range(phi)] for r in range(phi)])
    return powers


def _root_matrix(rng, nrows, ncols):
    """Entries c * zeta^k, with zero entries, zero rows and zero matrices."""
    if rng.random() < 0.1:
        return [[FIELD.zero()] * ncols for _ in range(nrows)]
    out = []
    for _ in range(nrows):
        if rng.random() < 0.15:
            out.append([FIELD.zero()] * ncols)
            continue
        out.append([FIELD.zeta(rng.randrange(24)) * rng.choice((-2, -1, 1, 3))
                    if rng.random() < 0.6 else FIELD.zero()
                    for _ in range(ncols)])
    return out


def test_eliminator_over_roots_of_unity_matches_regular_rank():
    powers = _zeta_powers()
    phi = FIELD.degree
    zero = FIELD.zero()
    rng = random.Random(2024)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 5), rng.randrange(1, 6)
        m = _root_matrix(rng, nrows, ncols)
        reduced, pivots = rref(m)
        # reduced row echelon form
        assert len(reduced) == len(pivots)
        assert pivots == sorted(set(pivots))
        for i, (row, lead) in enumerate(zip(reduced, pivots)):
            assert len(row) == ncols
            assert row[lead] == 1
            assert all(v.is_zero() for v in row[:lead])
            assert all(other[lead].is_zero()
                       for k, other in enumerate(reduced) if k != i)
        # same row space as m, so it is the reduced form of m
        r = len(reduced)
        assert _regular_rank(m, powers) == phi * r
        if reduced:
            assert _regular_rank(reduced, powers) == phi * r
        assert _regular_rank(m + reduced, powers) == phi * r
        assert rank(m) == r
        basis = null_space(m, ncols, zero)
        assert len(basis) == ncols - r
        for vec in basis:
            for row in m:
                assert sum((a * x for a, x in zip(row, vec)), zero).is_zero()
        b = _root_matrix(rng, nrows, 1)
        sol = solve(m, [row[0] for row in b], ncols, zero)
        augmented = [row + rhs for row, rhs in zip(m, b)]
        consistent = _regular_rank(augmented, powers) == phi * r
        assert (sol is not None) == consistent
        if sol is not None:
            for row, rhs in zip(m, b):
                assert sum((a * x for a, x in zip(row, sol)), zero) == rhs[0]


def test_echelon_pivots_stay_fully_reduced():
    """Every pivot is solved for its lead and mentions no pivot column, the
    index ``users`` names every pivot that mentions a column, and ``pins``
    names each pivot an insert leaves empty."""
    powers = _zeta_powers()
    rng = random.Random(808)
    pinned = Counter()
    for _ in range(30):
        ncols = rng.randrange(1, 9)
        rows = _root_matrix(rng, rng.randrange(1, 9), ncols)
        pivots = Echelon()
        for row in rows:
            before = {lead for lead, piv in pivots.items() if piv}
            new = _echelon_insert(pivots, {c: v for c, v in enumerate(row)
                                           if not v.is_zero()})
            # the new lead, when its row reduces to it alone, and every
            # older pivot whose row the substitution emptied, each once
            emptied = {u for u in before if not pivots[u]}
            fresh = {new} if new is not None and not pivots[new] else set()
            assert sorted(pivots.pins) == sorted(emptied | fresh)
            pinned["substitution"] += len(emptied)
            pinned["insert"] += len(fresh)
            pivots.pins.clear()
            for lead, piv in pivots.items():
                assert all(u > lead and u not in pivots for u in piv)
                assert all(v for v in piv.values())
                assert all(lead in pivots.users[u] for u in piv)
            # a pivot column is never substituted again, so it leaves the
            # index when it becomes one
            assert not set(pivots.users) & set(pivots)
        # the pivots span exactly the inserted rows
        for row in rows:
            vec = {c: v for c, v in enumerate(row) if not v.is_zero()}
            assert _reduce_against(pivots, vec) == ({}, None)
        assert _regular_rank(rows, powers) == FIELD.degree * len(pivots)
    assert pinned["substitution"] and pinned["insert"]


def _sparse_row(rng, pivots, ncols, kind):
    """A seeded sparse rational row of one kind: one entry on a fresh
    column, on a pivot column or on a column that some pivot mentions,
    or two or three entries anywhere; None when no column fits."""
    def value():
        return _q(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                           rng.choice((1, 1, 2, 3))))

    if kind == "several":
        return {c: value() for c in rng.sample(range(ncols),
                                               rng.randrange(2, 4))}
    if kind == "fresh":
        cols = [c for c in range(ncols)
                if c not in pivots and c not in pivots.users]
    elif kind == "pivot":
        cols = list(pivots)
    else:
        cols = sorted({u for row in pivots.values() for u in row})
    return {rng.choice(cols): value()} if cols else None


def test_one_entry_rows_pin_as_the_reduction_does():
    """Sparse rational rows with one-entry rows on fresh columns, on pivot
    columns and on columns other pivots mention: after every insert the
    pivots are fully reduced, ``users`` and ``pins`` hold, and the echelon
    is the one that reducing every row leaves, pins in the same order.  At
    the end the pivots are sympy's rref, and the leads with an empty row
    are the columns every null vector sets to 0."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2044)
    kinds = Counter()
    emptied_by_pins = 0
    for _ in range(60):
        ncols = rng.randrange(3, 13)
        pivots, reduced = Echelon(), Echelon()
        rows = []
        for _ in range(rng.randrange(1, 16)):
            kind = rng.choice(("fresh", "pivot", "mentioned", "several"))
            row = _sparse_row(rng, pivots, ncols, kind)
            if row is None:
                continue
            kinds[kind] += 1
            rows.append(row)
            before = {lead for lead, piv in pivots.items() if piv}
            new = _echelon_insert(pivots, row)
            # a zero entry on a column no row mentions takes the reduction
            assert _echelon_insert(reduced, {**row, -1: 0}) == new
            assert dict(pivots) == dict(reduced)
            assert pivots.users == reduced.users
            assert pivots.pins == reduced.pins
            emptied = {u for u in before if not pivots[u]}
            fresh = {new} if new is not None and not pivots[new] else set()
            assert sorted(pivots.pins) == sorted(emptied | fresh)
            if kind in ("fresh", "mentioned"):
                assert new in fresh and pivots.pins[-1] == new
                emptied_by_pins += len(emptied)
            pivots.pins.clear()
            reduced.pins.clear()
            for lead, piv in pivots.items():
                assert all(u > lead and u not in pivots for u in piv)
                assert all(v for v in piv.values())
                assert all(lead in pivots.users[u] for u in piv)
            assert not set(pivots.users) & set(pivots)
        if not rows:
            continue
        matrix = sympy.Matrix([[sympy.Rational(row.get(c, 0).numerator,
                                               row.get(c, 0).denominator)
                                for c in range(ncols)] for row in rows])
        want, want_leads = matrix.rref()
        assert sorted(pivots) == list(want_leads)
        for i, lead in enumerate(sorted(pivots)):
            got = [0] * ncols
            got[lead] = 1
            for u, m in pivots[lead].items():
                got[u] = -m
            assert [Fraction(int(sympy.numer(e)), int(sympy.denom(e)))
                    for e in want.row(i)] == got
        null = matrix.nullspace()
        zero_everywhere = {c for c in range(ncols)
                           if all(v[c] == 0 for v in null)}
        assert {lead for lead, piv in pivots.items() if not piv} == \
            zero_everywhere
    assert min(kinds.values()) > 20 and emptied_by_pins


def _mixed_matrix(rng, nrows, ncols):
    """Entries an int, a Fraction or c * zeta^k with zeta^k irrational, the
    rationals under the ``_q`` rule, with zero entries and zero rows."""
    def entry():
        kind = rng.random()
        if kind < 0.3:
            return 0
        if kind < 0.55:
            return rng.randrange(-3, 4)
        if kind < 0.8:
            return _q(Fraction(rng.randrange(-4, 5), rng.choice((2, 3))))
        return FIELD.zeta(rng.choice([k for k in range(1, 24) if k != 12])) \
            * rng.choice((-2, -1, Fraction(1, 2), 3))

    return [[0] * ncols if rng.random() < 0.1 else
            [entry() for _ in range(ncols)] for _ in range(nrows)]


def test_eliminator_on_mixed_exact_scalars_matches_the_lifted_rows():
    # rows of ints, Fractions and irrational CycloScalars eliminate to the
    # same pivots, value for value, as the rows lifted into Q(zeta_24)
    powers = _zeta_powers()
    rng = random.Random(1907)
    leads = set()
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 7)
        m = _mixed_matrix(rng, nrows, ncols)
        lifted = [[FIELD.scalar(v) for v in row] for row in m]
        got, want = _echelon(m), _echelon(lifted)
        assert list(got) == list(want)
        for lead, row in want.items():
            assert list(got[lead]) == list(row)
            for u, v in row.items():
                w = got[lead][u]
                assert w == v, (lead, u)
                assert not (w.__class__ is Fraction and w.denominator == 1)
        first = next((row for row in m if any(row)), None)
        if first is not None and sum(1 for v in first if v) > 1:
            # the first nonzero row pivots unreduced, so its lead is inverted
            leads.add(next(v for v in first if v).__class__)
        r = rank(m)
        assert r == len(want)
        assert _regular_rank(lifted, powers) == FIELD.degree * r
    # leads of every kind were inverted
    assert leads == {int, Fraction, CycloScalar}


def test_inserted_columns_are_the_leads_and_the_users():
    # a column leaves ``users`` only when it becomes a lead, and a column
    # that cancels in a reduced row came from a pivot row that lists it, so
    # the columns the rows mention are the leads and the keys of users: the
    # centroid solve reads its free columns off them
    rng = random.Random(4711)
    z6 = FIELD.zeta(6)  # i: its products with itself lower to -1

    def entry():
        return rng.choice((rng.randrange(-3, 4) or 1,
                           Fraction(rng.choice((-3, -1, 1, 3)), 2),
                           z6 * rng.choice((-2, -1, 1, 2))))

    cancelled = 0
    for _ in range(60):
        ncols = rng.randrange(2, 12)
        pivots, rows = Echelon(), []
        for _ in range(rng.randrange(1, 10)):
            row = {c: entry() for c in rng.sample(range(ncols),
                                                  rng.randrange(1, ncols + 1))}
            if rows and rng.random() < 0.5:
                # an earlier row times a scalar, plus the new one on one
                # column at most: the earlier row's columns cancel
                scale = entry()
                row = dict(list(row.items())[:rng.randrange(2)])
                for c, v in rng.choice(rows).items():
                    _add_to(row, c, _product(v, scale))
                if not row:
                    continue
            reduced, _ = _reduce_against(pivots, row)
            cancelled += sum(1 for c in row
                             if c not in pivots and c not in reduced)
            rows.append(row)
            _echelon_insert(pivots, row)
            pivots.pins.clear()
            mentioned = set().union(*rows)
            assert mentioned == set(pivots) | set(pivots.users)
        assert (_null_basis(pivots, pivots.users)
                == _null_basis(pivots, mentioned))
    assert cancelled


def test_dense_adapters_lift_the_lowered_pivots():
    # x0 = zeta^6 x1 from the first row; reducing the second row by it
    # multiplies zeta^6 by zeta^6 = -1, which the pivots hold as the int -1,
    # while null_space and solve still return scalars of the field
    z6 = FIELD.zeta(6)
    one, zero = FIELD.one(), FIELD.zero()
    rows = [[z6, one, zero], [z6, FIELD.rational(2), one]]
    pivots = _echelon(rows)
    assert pivots == {0: {2: -z6}, 1: {2: -1}}
    assert pivots[1][2].__class__ is int
    basis = null_space(rows, 3, zero)
    assert basis == [[-z6, FIELD.rational(-1), one]]
    rhs = [one, z6]
    sol = solve(rows, rhs, 3, zero)
    assert sol is not None
    for got in basis + [sol]:
        assert all(v.__class__ is CycloScalar and v.field is FIELD
                   for v in got)
    for row, b in zip(rows, rhs):
        assert sum((a * x for a, x in zip(row, basis[0])), zero).is_zero()
        assert sum((a * x for a, x in zip(row, sol)), zero) == b


def test_rref_agrees_with_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(4242)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 6), rng.randrange(1, 7)
        ints = [[rng.randrange(-3, 4) if rng.random() < 0.6 else 0
                 for _ in range(ncols)] for _ in range(nrows)]
        want, want_leads = sympy.Matrix(ints).rref()
        reduced, leads = rref([[FIELD.rational(v) for v in row]
                               for row in ints])
        assert leads == list(want_leads)
        for i, row in enumerate(reduced):
            assert [v.as_rational() for v in row] == [
                Fraction(int(sympy.numer(e)), int(sympy.denom(e)))
                for e in want.row(i)]


def test_det_matches_permanent_formula_3x3():
    rng = random.Random(4)
    import itertools
    for _ in range(10):
        m = _random_matrix(rng, 3, 3, density=1.0)
        expect = FIELD.zero()
        for perm in itertools.permutations(range(3)):
            sign = 1
            for i in range(3):
                for j in range(i + 1, 3):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = FIELD.one()
            for i in range(3):
                prod = prod * m[i][perm[i]]
            expect = expect + (prod if sign > 0 else -prod)
        assert det(m, FIELD.one()) == expect


def test_adjugate_identity():
    rng = random.Random(13)
    for n in (1, 2, 3, 4):
        m = _random_matrix(rng, n, n, density=1.0)
        d = det(m, FIELD.one())
        adj = adjugate(m, FIELD.one())
        prod = mat_mul(adj, m)
        for i in range(n):
            for j in range(n):
                expect = d if i == j else FIELD.zero()
                assert prod[i][j] == expect


def _cofactors(m, one):
    """Oracle: adj(A)[j][i] is (-1)^(i+j) times the determinant of A
    without row i and column j, each through ``det`` on its own."""
    n = len(m)
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = det([[m[r][c] for c in range(n) if c != j]
                       for r in range(n) if r != i], one)
            adj[j][i] = -cof if (i + j) % 2 else cof
    return adj


def _n4_eigenbasis():
    """The eigenbasis matrix of N4 under y = 1, x = [[0, 1], [-1, 0]] (order
    4), built as the centroid frame builds it: its odd block holds
    +-zeta^6 = +-i."""
    n4 = make_n4()
    loop = eigenspaces(n4, n4_auto([[1, 0], [0, 1]], [[0, 1], [-1, 0]], n4),
                       4)
    cols = [vec for _, _, vec, _ in loop.basis]
    return [[col[r] for col in cols] for r in range(n4.ngens())]


def _laurent_3x3():
    """A lower unitriangular times an upper triangular Laurent matrix with
    the monomial diagonal t, 1, 2 t^{-2}: its determinant 2 t^{-1} is a
    unit."""
    one, zero = LaurentElt.one(), LaurentElt.zero()
    t, tinv = LaurentElt.monomial(1, 1), LaurentElt.monomial(1, -1)
    lower = [[one, zero, zero], [t, one, zero], [one - t, one + one, one]]
    upper = [[t, one + t, one + one + one],
             [zero, one, tinv - one - one],
             [zero, zero, LaurentElt.monomial(2, -2)]]
    return mat_mul(lower, upper)


def test_adjugate_matches_the_cofactors_and_the_determinant():
    z6 = FIELD.zeta(6)
    one = FIELD.one()
    r1 = [FIELD.rational(2), z6, one]
    r2 = [one, FIELD.rational(-3), z6 * 2]
    singular = [r1, r2, [a + z6 * b for a, b in zip(r1, r2)]]
    cases = [([], one),
             ([[FIELD.rational(5)]], one),
             (singular, one),
             (_n4_eigenbasis(), one),
             (_laurent_3x3(), LaurentElt.one())]
    for m, unit in cases:
        n = len(m)
        adj = adjugate(m, unit)
        want = _cofactors(m, unit)
        assert len(adj) == n
        for j in range(n):
            for i in range(n):
                assert (adj[j][i] - want[j][i]).is_zero(), (n, i, j)
        d = det(m, unit)
        prod = mat_mul(adj, m)
        for i in range(n):
            for j in range(n):
                expect = d if i == j else unit - unit
                assert (prod[i][j] - expect).is_zero(), (n, i, j)
    assert adjugate([], one) == [] and det([], one) == one
    assert adjugate([[FIELD.rational(5)]], one) == [[one]]
    # rank 2: the determinant vanishes and the adjugate does not
    assert det(singular, one).is_zero()
    assert any(not v.is_zero() for row in adjugate(singular, one)
               for v in row)
    assert any(v.as_rational() is None for row in _n4_eigenbasis()
               for v in row)
    m = _laurent_3x3()
    lone = LaurentElt.one()
    assert det(m, lone) == LaurentElt.monomial(2, -1)
    inv = mat_inverse_laurent(m, lone)
    for prod in (mat_mul(inv, m), mat_mul(m, inv)):
        for i in range(3):
            for j in range(3):
                expect = lone if i == j else LaurentElt.zero()
                assert (prod[i][j] - expect).is_zero(), (i, j)


def test_echelon_inverts_each_irrational_lead_it_normalizes_by(monkeypatch):
    # every row leads at its own column k, and the tail columns 20.. never
    # pivot, so no row reduces and each insert normalizes by its given lead;
    # the leads repeat -2 zeta^6, 2 zeta^6 and -8 zeta^6 as fresh objects,
    # each inverted at every insert it leads, and no rational lead is
    z6 = FIELD.zeta(6)
    calls = Counter()
    inverse = CycloScalar.inverse

    def counted(self):
        calls[str(self)] += 1
        return inverse(self)

    monkeypatch.setattr(CycloScalar, "inverse", counted)
    leads = [z6 * -2, z6 * 2, 3, z6 * -8, z6 * 2, -2, z6 * -2, z6 * -8,
             Fraction(1, 2), z6 * 2, 3]
    pivots = Echelon()
    rows = []
    for k, lead in enumerate(leads):
        row = {k: lead, 20: 1 + k % 2, 21 + k % 3: z6 * (k - 4) or 5,
               23: Fraction(k, 3) or 1}
        rows.append(row)
        assert _echelon_insert(pivots, row) == k
    assert dict(calls) == {str(z6 * -2): 2, str(z6 * 2): 3,
                           str(z6 * -8): 2}
    columns = set().union(*rows)
    basis = _null_basis(pivots, columns)
    assert len(basis) == len(columns) - len(pivots) == 4
    for vec in basis.values():
        for row in rows:
            acc = FIELD.zero()
            for c, v in row.items():
                acc = acc + v * vec.get(c, 0)
            assert acc.is_zero()


def _one_term_pivots(z):
    # x0 = 2 x9, x1 = -x9, x2 = z x9, x3 = x8, x4 = x8 + x9, x5 = -x8
    pivots = Echelon()
    for row in ({0: 1, 9: -2}, {1: 1, 9: 1}, {2: 1, 9: -z}, {3: 1, 8: -1},
                {4: 1, 8: -1, 9: -1}, {5: 1, 8: 1}):
        _echelon_insert(pivots, row)
    return pivots


def test_refusal_needs_one_term_pivots_on_one_free_column_that_cancel(
        monkeypatch):
    z = FIELD.zeta(3)
    calls = []

    def counted(pivots, row):
        calls.append(row)
        return _reduce_against(pivots, row)

    monkeypatch.setattr(linalg, "_reduce_against", counted)
    pivots = _one_term_pivots(z)
    rows = {u: dict(row) for u, row in pivots.items()}
    users = {u: set(leads) for u, leads in pivots.users.items()}
    for row in ({0: 1, 1: 2}, {0: Fraction(1, 2), 1: 1}, {0: z, 2: -2},
                {0: 1, 1: 2 + z, 2: 1}):
        calls.clear()
        assert _echelon_insert(pivots, row) is None
        assert calls == []  # refused before any reduction
        assert _reduce_against(pivots, row) == ({}, None)
    assert dict(pivots) == rows
    assert pivots.users == users
    assert pivots.pins == []
    for row in ({0: 1, 1: 1},  # the sum 2 - 1 does not cancel
                {0: 1, 9: -2},  # x9 is free: it reduces, but not this way
                {0: 1, 4: -2},  # x4 has a two-term row
                {0: 1, 3: -2},  # x3 lies on another free column
                {0: 1, 1: 2, 3: 1, 5: 1}):  # cancels, on two columns
        pivots = _one_term_pivots(z)
        calls.clear()
        _echelon_insert(pivots, row)
        assert calls == [row]
    # the rows that reduce to nothing take the full reduction too: the
    # one on two free columns, and the free column against its own pivot
    for row in ({0: 1, 9: -2}, {0: 1, 1: 2, 3: 1, 5: 1}):
        assert _reduce_against(_one_term_pivots(z), row) == ({}, None)


def test_int_entries_that_cancel_leave_no_key(monkeypatch):
    adds = []
    add_to = linalg._add_to

    def counted(acc, key, val):
        adds.append(key)
        add_to(acc, key, val)

    monkeypatch.setattr(linalg, "_add_to", counted)
    pivots = Echelon()
    _echelon_insert(pivots, {0: 1, 5: 2, 6: 1})  # x0 = -2 x5 - x6
    _echelon_insert(pivots, {1: 1, 6: -1, 8: 4})  # x1 = x6 - 4 x8
    adds.clear()
    # the row's own 2 at column 5 meets the product -2 of pivot 0
    reduced, lead = _reduce_against(pivots, {5: 2, 0: 1, 7: 3})
    assert (reduced, lead) == ({6: -1, 7: 3}, 6)
    # the products -1 and +1 of the two pivots meet at column 6
    reduced, lead = _reduce_against(pivots, {0: 1, 1: 1})
    assert (reduced, lead) == ({5: -2, 8: -4}, 5)
    assert all(v.__class__ is int for v in reduced.values())
    # int products are added in place, with no _add_to call
    assert adds == []
    assert _reduce_against(pivots, {0: 3, 5: 6, 6: 3}) == ({}, None)


def test_int_substitutions_that_cancel_leave_no_key(monkeypatch):
    adds = []
    add_to = linalg._add_to

    def counted(acc, key, val):
        adds.append(key)
        add_to(acc, key, val)

    monkeypatch.setattr(linalg, "_add_to", counted)
    pivots = Echelon()
    _echelon_insert(pivots, {0: 1, 2: -1, 3: -1})  # x0 = x2 + x3
    _echelon_insert(pivots, {1: 1, 2: -3, 4: -1})  # x1 = 3 x2 + x4
    adds.clear()
    # x2 = -x3: x0 = x3 - x3 cancels to the pin x0 = 0, and x1 = -3 x3 + x4
    assert _echelon_insert(pivots, {2: 1, 3: 1}) == 2
    assert dict(pivots) == {0: {}, 1: {3: -3, 4: 1}, 2: {3: -1}}
    assert pivots.pins == [0]
    assert all(v.__class__ is int for v in pivots[1].values())
    # int products are added in place, with no _add_to call
    assert adds == []
    # users keeps a superset of the leads whose row mentions a column
    assert pivots.users[3] >= {1, 2} and pivots.users[4] == {1}


def test_laurent_matrix_inverse():
    one = LaurentElt.one()
    t = LaurentElt.monomial(1, 1)
    zero = LaurentElt.zero()
    m = [[one, t], [zero, one]]
    inv = mat_inverse_laurent(m, one)
    prod = mat_mul(m, inv)
    assert prod[0][0] == one and prod[1][1] == one
    assert prod[0][1].is_zero() and prod[1][0].is_zero()
    # determinant t is a unit, so scaling a row by t stays invertible
    m2 = [[t, zero], [zero, one]]
    inv2 = mat_inverse_laurent(m2, one)
    assert inv2[0][0] == LaurentElt.monomial(1, -1)
    # non-unit determinant must be rejected
    m3 = [[one + t, zero], [zero, one]]
    with pytest.raises(DomainError):
        mat_inverse_laurent(m3, one)


def test_rank_full_and_deficient():
    rows = [[FIELD.one(), FIELD.zero()], [FIELD.zero(), FIELD.one()]]
    assert rank(rows) == 2
    rows = [[FIELD.one(), FIELD.one()], [FIELD.one(), FIELD.one()]]
    assert rank(rows) == 1
