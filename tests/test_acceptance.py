"""End-to-end acceptance suite.

One test per headline capability, each pinned to exact expected values
(the arithmetic is over cyclotomic rationals, so every comparison is
literal equality).  Derived expectations are recomputed here by
independent brute-force oracles rather than trusted from the library
code under test.  Run with -v to get one verdict line per capability.
"""

import json
import math
import random
import time
from fractions import Fraction

from csalg.algebras import make_n2, make_n4
from csalg.centroid import centroid_basis, is_scalar_action
from csalg.cli import main as cli_main
from csalg.cohomology import (N2AutElt, coboundary, cocycle_of,
                              n2_component, n4_invariant, pgl2_classes)
from csalg.core import AlgebraDef, LambdaPoly, ODD, check_axioms, \
    lambda_bracket
from csalg.cyclotomic import CycloField
from csalg.dsl import format_algebra, parse_algebra
from csalg.laurent import LaurentElt, binom_frac
from csalg.loops import alg_bracket, eigenspaces, l0_spectrum, split_check
from csalg.morphisms import (SL2MatrixOverS, check_hom, compose,
                             identity_morphism, n2_omega, n2_theta, n4_auto)

from test_dsl import data_text, random_algebra

N2 = make_n2()
N4 = make_n4()
FIELD = N2.field
HALF = Fraction(1, 2)
I4 = FIELD.root_of_unity(4)
ZETA3 = FIELD.root_of_unity(3)


def mono(coeff, q):
    return LaurentElt(FIELD, {Fraction(q): coeff})


def n4_twist(x, order):
    return eigenspaces(N4, n4_auto([[1, 0], [0, 1]], x, N4), order)


# -- axiom sweeps ----------------------------------------------------------


def test_axiom_sweeps_are_exhaustive_and_catch_mutations():
    t0 = time.monotonic()
    small = check_axioms(N2)
    assert time.monotonic() - t0 < 1.0
    assert small.ok
    assert small.counts["CS4"] == "16 pairs"
    assert small.counts["CS5"] == "64 triples"

    t0 = time.monotonic()
    big = check_axioms(N4)
    assert time.monotonic() - t0 < 30.0
    assert big.ok
    assert big.counts["CS4"] == "64 pairs"
    assert big.counts["CS5"] == "512 triples"

    # doubling weight term of [L lambda L]: 2L becomes 3L
    table = dict(N2.table)
    old = table[(0, 0)]
    table[(0, 0)] = LambdaPoly(FIELD, {0: old.coeffs[0],
                                       1: N2.elt("L", coeff=3)})
    mutated = AlgebraDef("N2mut", FIELD, N2.generators, table)
    report = check_axioms(mutated)
    assert report.verdicts["CS4"] is False


# -- the unit-twist automorphism family -------------------------------------


def test_unit_twist_family_composition_laws():
    omega = n2_omega(N2)
    units = [mono(1, 0), mono(1, 1), mono(2, 3), mono(1, HALF)]

    for s in units:
        assert check_hom(N2, n2_theta(s, N2)).ok
    assert check_hom(N2, omega).ok

    assert compose(omega, omega) == identity_morphism(N2)
    for s in units:
        for sp in units:
            assert compose(n2_theta(s, N2), n2_theta(sp, N2)) \
                == n2_theta(s * sp, N2)
        assert compose(omega, compose(n2_theta(s, N2), omega)) \
            == n2_theta(s.inverse(), N2)


# -- the SL2-pair automorphism family ----------------------------------------


def _random_sl2(rng):
    m = SL2MatrixOverS.identity(field=FIELD)
    for _ in range(rng.randint(1, 3)):
        u = mono(rng.choice([1, 2, -1, HALF]), rng.choice([0, 1, -1, HALF]))
        if rng.random() < 0.5:
            m = m * SL2MatrixOverS(FIELD, [[1, u], [0, 1]])
        else:
            m = m * SL2MatrixOverS(FIELD, [[1, 0], [u, 1]])
    return m


def _xmul(a, b):
    return [[sum(a[r][k] * b[k][c] for k in range(2)) for c in range(2)]
            for r in range(2)]


def _random_slx(rng):
    x = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(-2, 2)
        step = [[1, a], [0, 1]] if rng.random() < 0.5 else [[1, 0], [a, 1]]
        x = _xmul(x, step)
    return x


def test_sl2_pair_automorphism_family():
    ys = [
        SL2MatrixOverS.identity(field=FIELD),
        SL2MatrixOverS(FIELD, [[1, mono(1, 1)], [0, 1]]),
        SL2MatrixOverS(FIELD, [[mono(1, HALF), 0], [0, mono(1, -HALF)]]),
    ]
    xs = [[[1, 0], [0, 1]], [[I4, 0], [0, -I4]], [[0, 1], [-1, 0]]]
    for y in ys:
        for x in xs:
            report = check_hom(N4, n4_auto(y, x, N4))
            assert report.homomorphism
            assert report.invertible

    rng = random.Random(2024)
    for _ in range(5):
        y1, y2 = _random_sl2(rng), _random_sl2(rng)
        x1, x2 = _random_slx(rng), _random_slx(rng)
        assert n4_auto(y1 * y2, _xmul(x1, x2), N4) \
            == compose(n4_auto(y1, x1, N4), n4_auto(y2, x2, N4))

    ident = identity_morphism(N4)
    assert n4_auto([[-1, 0], [0, -1]], [[-1, 0], [0, -1]], N4) == ident
    minus = SL2MatrixOverS(FIELD, [[-1, 0], [0, -1]])
    plus = SL2MatrixOverS.identity(field=FIELD)
    seen = 0
    while seen < 20:
        y, x = _random_sl2(rng), _random_slx(rng)
        if (y == plus and x == [[1, 0], [0, 1]]) or \
                (y == minus and x == [[-1, 0], [0, -1]]):
            continue
        seen += 1
        assert n4_auto(y, x, N4) != ident


# -- annihilation modes ------------------------------------------------------


def test_untwisted_modes_reproduce_witt():
    loop = eigenspaces(N2, identity_morphism(N2), 1)
    t0 = time.monotonic()
    for mu in range(-5, 6):
        for nu in range(-5, 6):
            got = alg_bracket(loop, loop.mode("L", mu), loop.mode("L", nu))
            assert got == loop.mode("L", mu + nu - 1).scale(mu - nu)
    assert time.monotonic() - t0 < 1.0


# -- split forms -------------------------------------------------------------


def test_twisted_loops_split_after_base_change():
    omega_loop = eigenspaces(N2, n2_omega(N2), 2)
    quarter_loop = n4_twist([[I4, 0], [0, -I4]], 4)
    assert split_check(omega_loop, 3).bijective
    assert split_check(quarter_loop, 3).bijective


# -- odd mode spectra --------------------------------------------------------


def _brute_l0_eigenvalue(A, lidx, v, mu):
    """[L_1, v_mu] expanded from scratch; returns the eigenvalue."""
    got = {}
    for (g, _, _), cv in v.terms.items():
        poly = lambda_bracket(A, A.elt(lidx), A.elt(g))
        for j, elt in poly.coeffs.items():
            wj = binom_frac(Fraction(1), j)
            if wj == 0:
                continue
            for (h, d, q), ce in elt.terms.items():
                nu = 1 + mu - j + q
                w = binom_frac(nu, d) * wj
                if d % 2:
                    w = -w
                if w == 0:
                    continue
                key = (h, nu - d)
                s = got.get(key, A.field.zero()) + cv * ce * w
                if s.is_zero():
                    got.pop(key, None)
                else:
                    got[key] = s
    if not got:
        return Fraction(0)
    ratio = None
    for (g, _, _), cv in v.terms.items():
        if (g, mu) in got:
            ratio = got[(g, mu)] / cv
            break
    assert ratio is not None, "bracket left the line through v"
    assert got == {(g, mu): ratio * cv for (g, _, _), cv in v.terms.items()}
    value = ratio.as_rational()
    assert value is not None
    return value


def _brute_odd_fractions(loop, reach=2):
    A = loop.base
    lidx = A.gen_index("L")
    out = set()
    for i, piece in enumerate(loop.eigenbasis):
        for v in piece:
            parity = A.homogeneous_parity(v)
            assert parity is not None
            if parity != ODD:
                continue
            for k in range(-reach, reach + 1):
                mu = Fraction(i, loop.order) + k
                value = _brute_l0_eigenvalue(A, lidx, v, mu)
                out.add(value - math.floor(value))
    return out


def test_odd_spectra_separate_the_twists():
    big_loops = [
        n4_twist([[1, 0], [0, 1]], 1),
        n4_twist([[-1, 0], [0, -1]], 2),
        n4_twist([[ZETA3, 0], [0, ZETA3 ** 2]], 3),
        n4_twist([[I4, 0], [0, -I4]], 4),
    ]
    expected = [
        {HALF},
        {Fraction(0)},
        {Fraction(1, 6), Fraction(5, 6)},
        {Fraction(1, 4), Fraction(3, 4)},
    ]
    for loop, want in zip(big_loops, expected):
        got = _brute_odd_fractions(loop)
        assert got == want
        assert l0_spectrum(loop, "odd", 2).fractional_parts == want
    sets = [frozenset(w) for w in expected]
    assert len(set(sets)) == 4

    untwisted = eigenspaces(N2, identity_morphism(N2), 1)
    omega_loop = eigenspaces(N2, n2_omega(N2), 2)
    assert _brute_odd_fractions(untwisted) == {HALF}
    assert _brute_odd_fractions(omega_loop) == {Fraction(0), HALF}


# -- classification invariants -----------------------------------------------


def test_classification_invariants():
    # class counts against an independent enumeration of diagonal and
    # antidiagonal representatives over a large enough conductor
    for n in range(1, 7):
        conductor = math.lcm(24, 2 * n)
        field = CycloField.get(conductor)
        step = conductor // (2 * n)
        found = set()
        for k in range(2 * n):
            lam = field.zeta(step * k)
            found.add(n4_invariant([[lam, field.zero()],
                                    [field.zero(), lam.inverse()]],
                                   field=field))
            if n % 2 == 0:
                found.add(n4_invariant([[field.zero(), lam],
                                        [-lam.inverse(), field.zero()]],
                                       field=field))
        classes = pgl2_classes(n, field=field)
        assert len(classes) == n // 2 + 1
        assert found == set(classes)

    # sign and conjugation blindness on random finite-order samples
    rng = random.Random(401)
    checked = 0
    while checked < 50:
        lam = FIELD.zeta(rng.randrange(24))
        x = [[lam, FIELD.zero()], [FIELD.zero(), lam.inverse()]]
        base = n4_invariant(x)
        neg = [[-e for e in row] for row in x]
        assert n4_invariant(neg) == base
        p = [[FIELD.rational(rng.randint(-3, 3)) for _ in range(2)]
             for _ in range(2)]
        det = p[0][0] * p[1][1] - p[0][1] * p[1][0]
        if det.is_zero():
            continue
        inv = [[p[1][1] / det, -p[0][1] / det],
               [-p[1][0] / det, p[0][0] / det]]
        conj = _xmul(_xmul(p, x), inv)
        assert n4_invariant(conj) == base
        checked += 1

    # the one-bit invariant separating the two kinds of involution data
    flip = N2AutElt(LaurentElt.one(), 1)
    straight = cocycle_of(N2AutElt.identity(), 2)
    flipped = cocycle_of(flip, 2)
    assert n2_component(straight) != n2_component(flipped)
    units = [mono(1, 0), mono(1, 1), mono(2, -1), mono(1, HALF)]
    for k in range(10):
        g = N2AutElt(units[k % len(units)], k % 2)
        assert n2_component(coboundary(straight, g)) \
            == n2_component(straight)
        assert n2_component(coboundary(flipped, g)) \
            == n2_component(flipped)


# -- centroid ----------------------------------------------------------------


def test_centroid_is_exactly_the_monomial_scalars():
    loops = [
        eigenspaces(N2, identity_morphism(N2), 1),
        eigenspaces(N2, n2_omega(N2), 2),
        n4_twist([[-1, 0], [0, -1]], 2),
    ]
    for loop in loops:
        solutions = centroid_basis(loop, 3, 1)
        exponents = set()
        for chi in solutions:
            r = is_scalar_action(chi)
            assert r is not None
            ((q, c),) = r.terms.items()
            assert c == FIELD.one()
            exponents.add(q)
        assert exponents == {Fraction(-1), Fraction(0), Fraction(1)}
        assert len(solutions) == 3


def test_twisted_n4_centroids_multiply_by_t():
    # X = diag(c, f) scales the G doublet by c and the Gbar doublet by f,
    # so G sits at exponents i/m + Z with c = xi_m^i, Gbar likewise
    third, quarter = Fraction(1, 3), Fraction(1, 4)
    cases = [
        ([[ZETA3, 0], [0, ZETA3 ** 2]], 3,
         [N4.elt("G1", q=third), N4.elt("G2", dpow=1, q=third),
          N4.elt("Gb1", q=-third), N4.elt("Gb2", q=2 * third)]),
        ([[I4, 0], [0, -I4]], 4,
         [N4.elt("G1", q=quarter), N4.elt("G2", q=-3 * quarter),
          N4.elt("Gb1", dpow=1, q=3 * quarter), N4.elt("Gb2", q=-quarter)]),
    ]
    untwisted = [N4.elt("L"), N4.elt("J3", q=-1), N4.elt("J1", dpow=1, q=1),
                 N4.elt("L", q=1) + N4.elt("J2", coeff=I4)]
    for x, order, odd in cases:
        solutions = centroid_basis(n4_twist(x, order), 3, 1)
        assert len(solutions) == 3
        probes = untwisted + odd + [odd[0] + odd[2].scale(ZETA3)]
        for j, chi in zip((-1, 0, 1), solutions):
            for y in probes:
                assert chi.apply(y) == y.shift_t(j)


# -- text formats and the command line ---------------------------------------


def test_text_formats_and_cli_round_trip(capsys):
    assert parse_algebra(data_text("n2.csa")) == N2
    assert parse_algebra(data_text("n4.csa")) == N4

    rng = random.Random(77)
    for tag in range(100):
        A = random_algebra(rng, tag)
        assert parse_algebra(format_algebra(A)) == A

    examples = [
        (["bracket", "n2.csa", "G+", "G-", "--n", "1"], "J\n"),
        (["alg", "n2.csa", "--auto", "id", "--bracket", "L[2] L[-1]"],
         "3*L[0]\n"),
        (["pgl2-classes", "2"],
         "2 classes of order dividing 2:\n  {1, 1}\n  {-1, -1}\n"),
    ]
    for argv, want in examples:
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == want
        assert cli_main(argv + ["--json"]) == 0
        first = capsys.readouterr().out
        assert cli_main(argv + ["--json"]) == 0
        assert capsys.readouterr().out == first
        json.loads(first)
