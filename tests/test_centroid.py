"""Windowed centroid computations on small loop algebras."""

import time
from collections import Counter
from itertools import combinations
from fractions import Fraction

import pytest

from csalg import centroid, linalg
from csalg.algebras import (StructureConstants, gl2_constants, make_current,
                            make_n2, make_n4, sl2_constants)
from csalg.centroid import _Frame, centroid_basis, is_scalar_action
from csalg.core import (EVEN, AlgebraDef, ConfElt, Generator, LambdaPoly,
                        apply_partial, lambda_bracket, to_hat_basis)
from csalg.cyclotomic import CycloField, CycloScalar, _add_to, _lower
from csalg.dsl import parse_algebra, parse_morphism
from csalg.errors import ConductorError, DomainError
from csalg.linalg import _echelon_insert, _reduce_against
from csalg.laurent import LaurentElt, delta_t
from csalg.loops import LoopAlgebra, eigenspaces
from csalg.morphisms import identity_morphism, n2_omega, n4_auto
from test_cli import ROT3_CSM, data_text
from test_core import N2J3_SOURCE, _rescaled, _scaled

N2 = make_n2()
FIELD = N2.field

UNTWISTED = eigenspaces(N2, identity_morphism(N2), 1)
OMEGA_LOOP = eigenspaces(N2, n2_omega(N2), 2)
N4 = make_n4()
N4_MINUS = eigenspaces(N4, n4_auto([[1, 0], [0, 1]], [[-1, 0], [0, -1]], N4),
                       2)
Z3, I4 = N4.field.root_of_unity(3), N4.field.root_of_unity(4)
N4_Z3 = eigenspaces(N4, n4_auto([[1, 0], [0, 1]], [[Z3, 0], [0, Z3 ** 2]], N4),
                    3)
N4_I = eigenspaces(N4, n4_auto([[1, 0], [0, 1]], [[I4, 0], [0, -I4]], N4), 4)
CURRENT = make_current(sl2_constants())
CURRENT_LOOP = eigenspaces(CURRENT, identity_morphism(CURRENT), 1)


def mono(q):
    return LaurentElt(FIELD, {Fraction(q): FIELD.one()})


def by_exponent(solutions):
    """Map exponent -> solution for a basis of monic monomial actions."""
    out = {}
    for sol in solutions:
        r = is_scalar_action(sol)
        assert r is not None
        ((q, c),) = r.terms.items()
        assert c == sol.loop.base.field.one()
        out[q] = sol
    return out


def test_untwisted_solutions_are_the_unit_monomials():
    sols = centroid_basis(UNTWISTED, 3, 1)
    assert len(sols) == 3
    assert sorted(by_exponent(sols)) == [-1, 0, 1]


def test_omega_loop_solutions_are_the_unit_monomials():
    sols = centroid_basis(OMEGA_LOOP, 3, 1)
    assert len(sols) == 3
    assert sorted(by_exponent(sols)) == [-1, 0, 1]


def test_identity_solution_fixes_the_interior():
    sol = by_exponent(centroid_basis(UNTWISTED, 3, 1))[0]
    for x in (N2.elt("L"), N2.elt("G+", q=-1), N2.elt("J", dpow=1)):
        assert sol.apply(x) == x


def test_shift_solution_multiplies_by_t():
    sol = by_exponent(centroid_basis(UNTWISTED, 3, 1))[1]
    assert sol.apply(N2.elt("L")) == N2.elt("L", q=1)
    # the same shift acts on derivation-decorated interior elements
    assert sol.apply(N2.elt("L", dpow=1)) == N2.elt("L", dpow=1, q=1)


def test_shift_solution_respects_the_twisted_lattice():
    sol = by_exponent(centroid_basis(OMEGA_LOOP, 3, 1))[1]
    half = Fraction(1, 2)
    assert sol.apply(N2.elt("J", q=half)) == N2.elt("J", q=half + 1)


def test_derivation_commutator_is_multiplication_by_delta():
    sols = by_exponent(centroid_basis(UNTWISTED, 3, 1))
    probes = [N2.elt("L"), N2.elt("J"), N2.elt("G+", q=-1)]
    for q in (-1, 1):
        chi = sols[q]
        jump = delta_t(mono(q))
        for x in probes:
            got = (apply_partial(N2, chi.apply(x))
                   - chi.apply(apply_partial(N2, x)))
            assert got == x.mul_laurent(jump)


def test_scalar_action_rejects_a_corrupted_matrix():
    sol = by_exponent(centroid_basis(UNTWISTED, 3, 1))[0]
    # one corrupted key in the interior, then one at a closure exponent
    # past it: every key of the solved domain is checked
    for inside in (True, False):
        entries = dict(sol.entries)
        key = next(k for k in entries if k[0][1] == 0
                   and (abs(k[0][2]) <= 1) == inside)
        entries[key] = -entries[key]
        assert is_scalar_action(sol.replace_entries(entries)) is None


def test_window_must_cover_the_product_closure():
    # [L lambda J] = DJ + lambda J, so (L t^{-1})_(0) (J t^{-1}) is
    # DJ t^{-2} - J t^{-3} = Dhat(J t^{-2}) + J t^{-3}; an interior pair
    # lowers the exponent -1 + -1 by at most maxl = 1, or by 1 in Dhat
    with pytest.raises(DomainError, match=r"window 2 too small for the "
                       r"product closure: it reaches \|q\| = 3, the "
                       r"smallest window that covers it"):
        centroid_basis(UNTWISTED, 2, 1)
    assert len(centroid_basis(UNTWISTED, 3, 1)) == 3


def test_table_depth_past_one_hat_level_is_refused():
    # [a lambda a] = D^{(2)} a puts a second hat level on the first
    # interior pair, a t^{-1} with itself
    F = CycloField.get(1)
    table = {(0, 0): LambdaPoly(F, {0: ConfElt(F, {(0, 2, Fraction(0)):
                                                    F.one()})})}
    deep = AlgebraDef("T", F, [Generator("a", EVEN)], table)
    loop = eigenspaces(deep, identity_morphism(deep), 1)
    with pytest.raises(DomainError, match=r"table depth exceeds the windowed "
                       r"solver: \[a t\^\{-1\} lambda a t\^\{-1\}\] "
                       r"reaches hat level 2"):
        centroid_basis(loop, 3, 1)


def test_centroid_refuses_systems_past_the_unknowns_bound():
    bound = centroid.MAX_UNKNOWNS
    # R = min(25, 2 * 10 + maxl + maxd) = 22 with maxl = maxd = 1; each
    # record is alone in its parity and residue: residue 0 holds 45
    # exponents in [-22, 22] and 47 in [-23, 23], residue 1 holds 44 and 46
    estimate = 2 * (2 * 45 * 2 * 47) + 2 * (2 * 44 * 2 * 46)
    assert estimate > bound
    with pytest.raises(DomainError, match="window 25 \\(interior 10\\) needs "
                       "up to %d unknowns, above the bound %d"
                       % (estimate, bound)):
        centroid_basis(OMEGA_LOOP, 25, 10)


def test_oversized_window_is_refused_before_any_key_is_built(monkeypatch):
    # listing the interior exponents is the first step that grows with the
    # interior radius; the refusal must come before it
    def unreachable(*args):
        raise AssertionError("exponents listed before the unknowns bound")

    monkeypatch.setattr(OMEGA_LOOP, "exponents", unreachable)
    with pytest.raises(DomainError, match=r"^window 25 \(interior 10\) needs "
                       r"up to 33112 unknowns, above the bound 20000$"):
        centroid_basis(OMEGA_LOOP, 25, 10)


def test_unknowns_bound_is_inclusive(monkeypatch):
    # R = min(3, 2 + 1 + 1) = 3: residue 0 holds 7 exponents in [-3, 3]
    # and 9 in [-4, 4], residue 1 holds 6 and 8
    estimate = 2 * (2 * 7 * 2 * 9) + 2 * (2 * 6 * 2 * 8)
    assert estimate == 888
    monkeypatch.setattr(centroid, "MAX_UNKNOWNS", estimate - 1)
    with pytest.raises(DomainError, match="up to 888 unknowns, above the "
                       "bound 887"):
        centroid_basis(OMEGA_LOOP, 3, 1)
    monkeypatch.setattr(centroid, "MAX_UNKNOWNS", estimate)
    assert len(centroid_basis(OMEGA_LOOP, 3, 1)) == 3


def test_a_wide_window_around_a_small_interior_stays_cheap():
    # the closure and the unknowns depend on the interior alone, and t^j
    # can only map the closure into the codomain for |j| <= maxl = 1
    start = time.perf_counter()
    sols = centroid_basis(OMEGA_LOOP, 10 ** 5, 1)
    assert sorted(by_exponent(sols)) == [-1, 0, 1]
    assert time.perf_counter() - start < 3


def test_interior_must_sit_inside_the_window():
    with pytest.raises(DomainError, match=r"^interior radius 3 must sit "
                       r"inside the window 3 \(0 < interior < window\)$"):
        centroid_basis(UNTWISTED, 3, 3)
    with pytest.raises(DomainError, match=r"^interior radius 2 must sit "
                       r"inside the window 1 \(0 < interior < window\)$"):
        centroid_basis(UNTWISTED, 1, 2)
    # every generator sits in residue 1, whose exponents +-1/2, +-3/2, ...
    # all lie outside the interior 1/4
    odd = LoopAlgebra(N2, 2, [[], [N2.elt(g) for g in ("L", "J", "G+", "G-")]])
    with pytest.raises(DomainError, match=r"^interior window contains no "
                       r"basis elements$"):
        centroid_basis(odd, 3, Fraction(1, 4))


def test_eigenbasis_short_of_the_generators_names_both_counts():
    L, J, Gp = N2.elt("L"), N2.elt("J"), N2.elt("G+")
    short = LoopAlgebra(N2, 1, [[L, J, Gp]])
    with pytest.raises(DomainError, match=r"^eigenbasis of 3 records does "
                       r"not span the 4 generators$"):
        centroid_basis(short, 3, 1)
    # four records, but L + J lies in the span of L and J
    dependent = LoopAlgebra(N2, 1, [[L, J, L + J, Gp]])
    with pytest.raises(DomainError, match=r"^eigenbasis of rank 3 does not "
                       r"span the 4 generators$"):
        centroid_basis(dependent, 3, 1)


def test_mixed_parity_eigenbasis_vector_is_named():
    mixed = LoopAlgebra(N2, 2, [[N2.elt("L"), N2.elt("J")],
                                [N2.elt("G+") + N2.elt("L"), N2.elt("G-")]])
    with pytest.raises(DomainError, match=r"^eigenbasis vector of mixed "
                       r"parity: record 2 \(residue 1\)$"):
        centroid_basis(mixed, 3, 1)


def test_apply_rejects_elements_off_the_window():
    sol = by_exponent(centroid_basis(UNTWISTED, 3, 1))[0]
    with pytest.raises(DomainError):
        sol.apply(N2.elt("L", q=10))


def test_apply_rejects_a_key_inside_the_window_but_off_the_solved_domain():
    # exponent 3 is inside window 3 but past the product closure of
    # interior 1, so no solution has a column for it; it used to map to 0
    for sol in centroid_basis(OMEGA_LOOP, 3, 1):
        frame = sol._frame
        x = frame.hat(frame.key_id((0, 0, Fraction(3))))
        assert not x.is_zero()
        with pytest.raises(DomainError, match=r"^element leaves the solved "
                           r"domain of window 3 \(interior 1\): no column "
                           r"for key \(0, 0, 3\)$"):
            sol.apply(x)


def test_apply_accepts_a_solved_key_with_a_zero_image():
    sol = centroid_basis(OMEGA_LOOP, 3, 1)[0]
    zero_map = sol.replace_entries({})
    x = N2.elt("L")
    assert sol.apply(x) != N2.zero_elt()
    assert zero_map.apply(x) == N2.zero_elt()


@pytest.mark.parametrize("loop", [UNTWISTED, OMEGA_LOOP], ids=["id", "omega"])
def test_decompose_inverts_the_hat_basis(loop):
    frame = _Frame(loop, 3, 1)
    one = FIELD.one()
    w = frame.window
    ids = [frame.key_id((ai, l, q))
           for ai, (res, _, _, _) in enumerate(frame.alphas)
           for q in loop.exponents(res, -w, w) for l in (0, 1)]
    for i in ids:
        assert frame.coords(frame.hat(i)) == {i: one}
    # a fixed combination with rational and non-rational coefficients
    coeffs = [FIELD.rational(Fraction(-3, 2)), FIELD.zeta(5),
              FIELD.zeta(1) + FIELD.rational(2), one]
    combo = dict(zip(ids[1::7], coeffs * 2))
    x = frame.algebra.zero_elt()
    for i, c in combo.items():
        x = x + frame.hat(i).scale(c)
    assert frame.coords(x) == combo


def _times_mutant(frame, coords, terms, lower):
    """``_Frame.times`` with its level-1 correction moved to exponent
    q + s - lower, or dropped when ``lower`` is None; ``terms`` maps the
    real shift s to c_s."""
    out = {}
    for i, v in coords.items():
        ai, l, q = frame.entry_key(i)
        for s, c in terms.items():
            _add_to(out, frame.key_id((ai, l, q + s)), v * c)
            if l and s and lower is not None:
                _add_to(out, frame.key_id((ai, 0, q + s - lower)), v * c * -s)
    return out


@pytest.mark.parametrize("loop, M", [(OMEGA_LOOP, 2), (N4_MINUS, 2),
                                     (N4_Z3, 6), (N4_I, 4)],
                         ids=["n2_omega", "n4_minus", "n4_z3", "n4_i"])
def test_times_matches_multiplication_on_the_hat_basis(loop, M):
    # oracle: build the element, multiply it by r in the t slot, and
    # decompose the product through to_hat_basis; ``times`` takes the
    # shifts scaled by the lattice M, the oracle the real ones, and the
    # exponents run over half-integers, thirds and quarters
    frame = _Frame(loop, 3, 1)
    assert frame.scale == M
    field = loop.base.field
    one = field.one()
    reach = frame.window + frame.maxl
    ids = [frame.key_id((ai, l, q))
           for ai, (res, _, _, _) in enumerate(frame.alphas)
           for q in loop.exponents(res, -reach, reach) for l in (0, 1)]
    factors = [{Fraction(s): one} for s in range(-2, 3)]
    factors.append({Fraction(1): field.zeta(1) + field.rational(2),
                    Fraction(-2): field.rational(Fraction(-3, 2))})
    # a shift off the integers, so the level-1 correction -s is a Fraction
    factors.append({Fraction(1, M): one, Fraction(-3, M): field.zeta(5)})
    # a single shift by the int 1 takes the unit path, on int coordinates
    # as the solve holds them
    factors.extend({s: 1} for s in (Fraction(-1), Fraction(0),
                                    Fraction(1, M), Fraction(2)))
    mutants = {"dropped": None, "unlowered": 0}
    caught = set()
    for i in ids:
        for terms in factors:
            want = frame.coords(
                frame.hat(i).mul_laurent(LaurentElt(field, terms)))
            scaled = {int(s * M): c for s, c in terms.items()}
            assert frame.times({i: one}, scaled) == want, (
                frame.entry_key(i), terms)
            if [c.__class__ for c in scaled.values()] == [int]:
                ((S, _),) = scaled.items()
                assert frame.times({i: 1}, scaled) == want
                assert frame.shift({i: 1}, S) == want
            for name, lower in mutants.items():
                if _times_mutant(frame, {i: one}, terms, lower) != want:
                    caught.add(name)
    assert caught == set(mutants)


#: Conformal weights as declared in n2.csa.
N2_WEIGHTS = {"L": 2, "J": 1, "G+": Fraction(3, 2), "G-": Fraction(3, 2)}


@pytest.mark.parametrize("loop", [UNTWISTED, OMEGA_LOOP], ids=["id", "omega"])
def test_each_monomial_solution_lives_in_its_own_shift(loop):
    def degree(key):
        ai, l, q = key
        (weight,) = {N2_WEIGHTS[N2.generators[g].name]
                     for (g, _, _) in loop.basis[ai][1].terms}
        return q - l - weight + 1

    for j, chi in by_exponent(centroid_basis(loop, 3, 1)).items():
        assert chi.entries
        for dkey, ckey in chi.entries:
            assert degree(ckey) - degree(dkey) == j


def test_weightless_loop_is_solved_as_one_block_with_the_same_answer():
    gens = [Generator(g.name, g.parity) for g in N2.generators]
    bare = AlgebraDef(N2.name, FIELD, gens, N2.table)
    loop = eigenspaces(bare, n2_omega(bare), 2)
    assert _Frame(loop, 3, 1).weights is None
    assert _Frame(OMEGA_LOOP, 3, 1).weights is not None
    graded = centroid_basis(OMEGA_LOOP, 3, 1)
    ungraded = centroid_basis(loop, 3, 1)
    assert ([list(chi.entries.items()) for chi in ungraded]
            == [list(chi.entries.items()) for chi in graded])


def _weightless(A):
    gens = [Generator(g.name, g.parity) for g in A.generators]
    return AlgebraDef(A.name, A.field, gens, A.table)


@pytest.mark.parametrize("twist, order, window, interior",
                         [(n2_omega, 2, 5, 2), (identity_morphism, 1, 3, 1)],
                         ids=["omega-w5-i2", "id-w3-i1"])
def test_weightless_loop_solves_every_shift_to_the_same_answer(
        twist, order, window, interior):
    # the one-block solve keeps every shift, so it is an oracle for the
    # graded solve, which builds only the shifts |s| <= maxl
    bare = _weightless(N2)
    loop = eigenspaces(bare, twist(bare), order)
    assert _Frame(loop, window, interior).weights is None
    graded = centroid_basis(eigenspaces(N2, twist(N2), order), window,
                            interior)
    ungraded = centroid_basis(loop, window, interior)
    assert ([list(chi.entries.items()) for chi in ungraded]
            == [list(chi.entries.items()) for chi in graded])


@pytest.mark.parametrize("A", [N2, N4], ids=["n2", "n4"])
def test_one_exponent_per_coset_still_finds_t_inverse(A):
    # interior 1/2 holds the exponent 0 alone; t^{-1} sends Dhat(v t^q) to
    # Dhat(v t^{q-1}) - v t^{q-2}, one step below the lowest domain exponent
    # less maxl, and the graded solve pads its codomain by that step
    loop = eigenspaces(A, identity_morphism(A), 1)
    sols = centroid_basis(loop, 3, Fraction(1, 2))
    assert list(by_exponent(sols)) == [-1, 0, 1]
    # the one-block solve of a weightless table keeps the old padding, and
    # the miss: with the extra step it would solve t^{-2} at interior 1
    bare = _weightless(A)
    sols = centroid_basis(eigenspaces(bare, identity_morphism(bare), 1), 3,
                          Fraction(1, 2))
    assert list(by_exponent(sols)) == [0, 1]


def test_current_loop_solves_to_the_identity():
    # no product of a current algebra reaches a Dhat key, so the solved
    # domain is level 0 alone, and the identity on it is t^0
    (chi,) = centroid_basis(CURRENT_LOOP, 3, 1)
    one = CURRENT.field.one()
    assert is_scalar_action(chi) == LaurentElt(CURRENT.field, {0: one})
    frame = chi._frame
    domain = [frame.keys[i] for i in frame.domain]
    assert len(domain) == 15 and all(l == 0 for _, l, _ in domain)
    assert chi.entries == {(k, k): one for k in map(frame.entry_key,
                                                     frame.domain)}


def test_gl2_current_loop_solves_to_the_projection_onto_sl2():
    # gl2 = sl2 + k z with z central: no product a_(n) b has a z component,
    # so no row touches z's columns and they are pinned to 0.  The
    # candidate r = 1 then fails on the z keys of the interior, and the one
    # leftover direction is the identity on the e, h and f keys alone: the
    # projection onto sl2 (x) k[t^{+-1}], a centroid element that is not a
    # multiplication
    gl2 = make_current(gl2_constants())
    assert [g.name for g in gl2.generators] == ["e", "h", "f", "z"]
    (chi,) = centroid_basis(eigenspaces(gl2, identity_morphism(gl2), 1), 3, 1)
    one = gl2.field.one()
    # records 0, 1, 2 are e, h, f; each product closure reaches |q| <= 2
    keys = [(ai, 0, Fraction(q)) for ai in range(3) for q in range(-2, 3)]
    assert len(keys) == 15
    assert chi.entries == {(k, k): one for k in keys}
    assert is_scalar_action(chi) is None


def _sl2_sum():
    """The current algebra of sl2 + sl2, on e, h, f, E, H, F."""
    sl2 = sl2_constants()
    c = dict(sl2.c)
    c.update({(i + 3, j + 3): {k + 3: v for k, v in row.items()}
              for (i, j), row in sl2.c.items()})
    return make_current(StructureConstants(["e", "h", "f", "E", "H", "F"],
                                           [EVEN] * 6, c))


def test_leftover_direction_is_a_raw_vector_reduced_by_the_least_column():
    # the centroid of the sl2 + sl2 current loop is spanned over
    # k[t^{+-1}] by the projections P, P' onto the two summands, and maxl
    # = 0 leaves t^0 alone: the raw null space is the span of P and P' on
    # the solved domain, and only P + P', the identity, is a monomial
    A = _sl2_sum()
    first, leftover = centroid_basis(
        eigenspaces(A, identity_morphism(A), 1), 3, 1)
    one = A.field.one()
    # records 0..5 are e, h, f, E, H, F; each product closure reaches
    # |q| <= 2, on level 0 alone
    keys = [(ai, 0, Fraction(q)) for ai in range(6) for q in range(-2, 3)]
    halves = [{(k, k): 1 for k in keys if k[0] // 3 == s} for s in (0, 1)]
    identity = {**halves[0], **halves[1]}
    assert is_scalar_action(first) == LaurentElt(A.field, {0: one})
    assert first.entries == {k: one for k in identity}

    def unknown(pair):
        # unknowns are numbered by domain key (record, exponent, level),
        # then by codomain key in the same order
        (ai, l, q), (bi, m, p) = pair
        return ai, q, l, bi, p, m

    # the identity pivots on its least unknown, which P holds and P' does
    # not; a raw vector reduced against it loses its entry there, and the
    # first that survives pivots on its own least unknown, scaled to 1
    lead = min(identity, key=unknown)
    reduced = []
    for vec in halves:
        left = {k: vec.get(k, 0) - vec.get(lead, 0) * v
                for k, v in identity.items()}
        reduced.append({k: v for k, v in left.items() if v})
    vec = next(v for v in reduced if v)
    top = vec[min(vec, key=unknown)]
    want = {k: Fraction(v, top) for k, v in vec.items()}
    # that is the identity on the 15 level-0 keys of E, H and F
    assert want == halves[1] and len(want) == 15
    assert leftover.entries == {k: one * v for k, v in want.items()}
    assert is_scalar_action(leftover) is None


#: sl2 + sl2 on the basis a = e + E, b = h + H, c = f + F, d = iE, g = iH,
#: k = iF, bracketed by hand from [h e] = 2e, [h f] = -2f, [e f] = h, the
#: same on E, H, F, and [x y] = 0 across the summands: [d g] = -[E H] =
#: 2E = -2i d, [d k] = -[E F] = -H = i g, [g k] = -[H F] = 2F = -2i k.
SL2_SUM_ACROSS_UNITS = (
    "algebra mix\ncyclotomic 24\n\n"
    + "".join("generator %s parity=even\n" % x for x in "abcdgk")
    + "\nbracket b a = 2*a\nbracket b c = -2*c\nbracket a c = b\n"
    "bracket b d = 2*d\nbracket b k = -2*k\nbracket a g = -2*d\n"
    "bracket a k = g\nbracket c d = -g\nbracket c g = 2*k\n"
    "bracket d g = -2*zeta^6*d\nbracket d k = zeta^6*g\n"
    "bracket g k = -2*zeta^6*k\n")
SL2_SUM = parse_algebra(SL2_SUM_ACROSS_UNITS)
SL2_SUM_LOOP = eigenspaces(SL2_SUM, identity_morphism(SL2_SUM), 1)


def test_a_direction_across_records_of_different_units_maps_back():
    # the centroid is spanned by 1 and P, the projection onto the second
    # summand: P a = E = -i d, P d = d, and so for b, g and c, k.  The
    # solve multiplies its records by powers of i that make every
    # coordinate rational, and a and d get different ones, so the entry
    # (a, d) maps back with the factor u_d / u_a.  The leftover direction
    # is reduced against r = 1, which pivots on its least unknown (a, a),
    # and scaled to 1 at its own least one, (a, d): it is i P
    A = SL2_SUM
    first, leftover = centroid_basis(SL2_SUM_LOOP, 3, 1)
    assert is_scalar_action(first) == LaurentElt(A.field, {0: 1})
    assert is_scalar_action(leftover) is None
    frame = leftover._frame
    assert [A.elt_string(v) for _, v, _, _ in frame.alphas] == list("abcdgk")
    assert frame.gauge[0] != frame.gauge[3]
    i = A.field.root_of_unity(4)
    # i P: a -> d, b -> g, c -> k, and i on each of d, g, k
    image = {0: (3, 1), 1: (4, 1), 2: (5, 1), 3: (3, i), 4: (4, i), 5: (5, i)}
    want = {}
    for d in frame.domain:
        ai, l, q = frame.entry_key(d)
        bi, v = image[ai]
        want[(ai, l, q), (bi, l, q)] = A.field.scalar(v)
    assert len(want) == 30
    assert leftover.entries == want


@pytest.mark.parametrize("loop", [OMEGA_LOOP, N4_MINUS, N4_Z3, N4_I,
                                  CURRENT_LOOP],
                         ids=["n2_omega", "n4_minus", "n4_z3", "n4_i",
                              "sl2_current"])
def test_entries_match_multiplication_on_the_solved_domain(loop):
    # an oracle that never sees the unknown ids: the image of each solved
    # domain key under t^j, decomposed on its own
    one = loop.base.field.one()
    for chi in centroid_basis(loop, 3, 1):
        r = is_scalar_action(chi)
        ((_, c),) = r.terms.items()
        assert c == one
        frame = chi._frame
        expected = {}
        for d in frame.domain:
            img = frame.hat(d).mul_laurent(r)
            for c, v in frame.coords(img).items():
                expected[(frame.entry_key(d), frame.entry_key(c))] = v
        assert dict(chi.entries) == expected
        for pair in chi.entries:
            assert len(pair) == 2
            for key in pair:
                assert [type(part) for part in key] == [int, int, Fraction]


@pytest.mark.parametrize("loop, M", [(OMEGA_LOOP, 2), (N4_MINUS, 2),
                                     (N4_Z3, 6), (N4_I, 4),
                                     (CURRENT_LOOP, 1)],
                         ids=["n2_omega", "n4_minus", "n4_z3", "n4_i",
                              "sl2_current"])
def test_degrees_are_ints_on_the_exponent_lattice(loop, M):
    # M is the lcm of the twist order and the weight denominators (3/2 for
    # the odd generators); each degree is M (q - l - wt + 1), with q read
    # off the solution key and wt off the generators of the record
    frame = centroid_basis(loop, 3, 1)[0]._frame
    assert frame.scale == M
    A = loop.base
    for i, degree in enumerate(frame.degrees):
        assert degree.__class__ is int
        ai, l, q = frame.entry_key(i)
        (weight,) = {A.generators[g].weight
                     for (g, _, _) in loop.basis[ai][1].terms}
        if weight is None:  # the sl2 current loop is ungraded
            assert degree == 0
        else:
            assert degree == M * (q - l - weight + 1)
        # each exponent is one Fraction, built once per frame
        assert q.__class__ is Fraction and q == Fraction(frame.keys[i][2], M)
        assert frame.entry_key(i)[2] is q


@pytest.mark.parametrize("loop, generator, q",
                         [(OMEGA_LOOP, "L", Fraction(1, 5)),
                          (N4_Z3, "L", Fraction(1, 4))],
                         ids=["n2_omega", "n4_z3"])
def test_an_exponent_off_the_lattice_is_refused_by_name(loop, generator, q):
    # the lattices are (1/2)Z and (1/6)Z; the exponent enters exactly or
    # not at all, and is never rounded onto the lattice
    chi = centroid_basis(loop, 3, 1)[0]
    frame = chi._frame
    size = len(frame.keys)
    text = r"^exponent %s lies off the exponent lattice \(1/%d\)Z of the " \
        r"loop$" % (q, frame.scale)
    with pytest.raises(DomainError, match=text):
        chi.apply(loop.base.elt(generator, q=q))
    with pytest.raises(DomainError, match=text):
        frame.key_id((0, 0, q))
    assert len(frame.keys) == size


def _gauged(frame, ra, rb, coords, K):
    """K times ``coords``, the coordinates of a bracket of elements of the
    records ra and rb, on the basis i^{x_alpha} v_alpha, x = frame.gauge:
    the coordinate at an id of record gamma gains the factor
    i^{x_ra + x_rb - x_gamma}.  Each result must be rational."""
    x = frame.gauge
    i = frame.field.root_of_unity(4)
    out = {}
    for c, v in coords.items():
        s = x[ra] + x[rb] - x[frame.keys[c][0]]
        out[c] = _lower(v * K * i ** (s % 4))
        assert out[c].__class__ is not CycloScalar, (frame.entry_key(c), v)
    return out


@pytest.mark.parametrize("loop", [OMEGA_LOOP, N4_MINUS],
                         ids=["n2_omega", "n4_minus"])
def test_derived_columns_match_direct_brackets(loop):
    # oracle: bracket each interior key with each codomain element directly
    # and decompose the result, with no t-shift and no derivation rule.
    # The columns read the brackets as the solve does, scaled by K and on
    # the basis of powers of i that makes every coordinate rational (J2
    # gains i on N4), and take the interior ones from the product closure
    # as they are
    frame = _Frame(loop, 3, 1)
    A = frame.algebra
    reach = frame.window + frame.maxl  # the codomain never reaches past
    columns = [frame.key_id((bi, l, q))
               for bi, (res, _, _, _) in enumerate(frame.alphas)
               for q in loop.exponents(res, -reach, reach) for l in (0, 1)]
    brackets, K = centroid._interior_brackets(frame)
    assert any(frame.gauge) == (A is N4)
    closure = {a: centroid._columns(frame, brackets[a], {}, frame.interior0)
               for a in frame.interior0}
    for a in frame.interior0:
        xa = frame.hat(a)
        got = centroid._columns(frame, brackets[a], closure[a], columns)
        assert sorted(got) == sorted(columns)
        for c in columns:
            poly = lambda_bracket(A, xa, frame.hat(c))
            want = {n: _gauged(frame, frame.keys[a][0], frame.keys[c][0],
                               frame.coords(elt), K)
                    for n, elt in poly.coeffs.items()}
            assert got[c] == want, (frame.entry_key(a),
                                    frame.entry_key(c))
        # the interior columns are the closure's maps a_(n) b themselves,
        # so each equals the direct bracket checked above
        for b in frame.interior0:
            assert got[b] is closure[a][b]


@pytest.mark.parametrize("loop", [OMEGA_LOOP, N4_MINUS, N4_Z3, N4_I],
                         ids=["n2_omega", "n4_minus", "n4_z3", "n4_i"])
def test_interior_brackets_match_direct_brackets(loop):
    # oracle: bracket each interior key v t^p with each record directly, so
    # lambda_bracket applies the base-change rule, and decompose the result;
    # the exponents p run over half-integers, thirds and quarters.  The
    # brackets come scaled by K, which clears the 1/2 of the N=2 and N=4
    # tables and of the eigenbasis inverse, and on the basis of powers of i
    # that makes every coordinate rational: J2 gains i on every N4 loop
    frame = _Frame(loop, 3, 1)
    A = frame.algebra
    got, K = centroid._interior_brackets(frame)
    assert K == 2
    assert any(frame.gauge) == (A is N4)
    records = sorted({frame.keys[b][0] for b in frame.interior0})
    assert sorted(got) == sorted(frame.interior0)
    for a in frame.interior0:
        assert sorted(got[a]) == records
        for bi in records:
            poly = lambda_bracket(A, frame.hat(a), frame.alphas[bi][1])
            want = {n: _gauged(frame, frame.keys[a][0], bi, frame.coords(e),
                               K)
                    for n, e in poly.coeffs.items()}
            assert got[a][bi] == want, (frame.entry_key(a), bi)


@pytest.mark.parametrize("loop", [N4_Z3, N4_I, CURRENT_LOOP, SL2_SUM_LOOP],
                         ids=["n4_z3", "n4_i", "sl2_current", "sl2_sum"])
def test_solutions_commute_with_every_interior_product(loop):
    # chi(a_(n) b) = a_(n) chi(b) for interior a, b and n <= maxl + 1, both
    # sides through lambda_bracket and apply, never through the rows: an
    # equation the solve dropped would let a solution fail it
    sols = centroid_basis(loop, 3, 1)
    frame = sols[0]._frame
    A = frame.algebra
    hats = [frame.hat(a) for a in frame.interior0]
    images = [[chi.apply(y) for y in hats] for chi in sols]
    for x in hats:
        for k, y in enumerate(hats):
            poly = lambda_bracket(A, x, y)
            for chi, img in zip(sols, images):
                right = lambda_bracket(A, x, img[k])
                for n in range(frame.maxl + 2):
                    assert chi.apply(poly.get(n)) == right.get(n)


def test_one_bracket_per_record_pair(monkeypatch):
    # N2 under omega splits into two records of residue 0 (L, G+ + G-) and
    # two of residue 1 (J, G- - G+), all four in the interior, so 4 * 4 = 16
    # record pairs, each bracketed once; every interior key's bracket
    # follows by CS3 on the left slot
    calls = []

    def counted(A, x, y):
        calls.append(1)
        return lambda_bracket(A, x, y)

    monkeypatch.setattr(centroid, "lambda_bracket", counted)
    assert len(centroid_basis(OMEGA_LOOP, 3, 1)) == 3
    assert len(calls) == 4 * 4 == 16


def test_one_decomposition_per_bracket_coefficient(monkeypatch):
    # every coordinate past the brackets' own lambda-coefficients comes from
    # the shift and derivation rules, in the solve and in is_scalar_action
    brackets, decompositions = [], []

    def bracketed(A, x, y):
        poly = lambda_bracket(A, x, y)
        brackets.append(poly)
        return poly

    def decomposed(A, x):
        decompositions.append(1)
        return to_hat_basis(A, x)

    monkeypatch.setattr(centroid, "lambda_bracket", bracketed)
    monkeypatch.setattr(centroid, "to_hat_basis", decomposed)
    sols = centroid_basis(OMEGA_LOOP, 3, 1)
    assert all(is_scalar_action(chi) is not None for chi in sols)
    assert len(sols) == 3 and len(brackets) == 4 * 4 == 16
    coefficients = sum(1 for poly in brackets
                       for e in poly.coeffs.values() if not e.is_zero())
    assert len(decompositions) == coefficients


def test_replace_entries_lifts_rationals_and_subfield_scalars():
    sol = by_exponent(centroid_basis(UNTWISTED, 3, 1))[0]
    keys = list(sol.entries)
    sub = CycloField.get(8)
    got = sol.replace_entries({keys[0]: 2, keys[1]: Fraction(-3, 2),
                               keys[2]: sub.zeta(1), keys[3]: 0,
                               keys[4]: FIELD.zero()})
    # zeta_8 is zeta_24^3; the zero values are dropped
    assert got.entries == {keys[0]: FIELD.rational(2),
                           keys[1]: FIELD.rational(Fraction(-3, 2)),
                           keys[2]: FIELD.zeta(3)}
    assert list(got.entries) == keys[:3]
    assert all(v.__class__ is CycloScalar and v.field is FIELD
               for v in got.entries.values())
    image = got.image(keys[0][0])
    assert image[keys[0][1]] == FIELD.rational(2)
    assert all(v.__class__ is CycloScalar for v in image.values())
    # integral entries act as the scalar they name
    twice = sol.replace_entries({k: 2 for k in sol.entries})
    assert is_scalar_action(twice) == LaurentElt(FIELD, {0: 2})
    x = N2.elt("G+", q=-1)
    assert twice.apply(x) == x.scale(2)
    with pytest.raises(ConductorError, match=r"Q\(zeta_5\).*Q\(zeta_24\)"):
        sol.replace_entries({keys[0]: CycloField.get(5).zeta(1)})


@pytest.mark.parametrize("make,twist", [
    (make_n2, lambda A: (n2_omega(A), 2)),
    (make_n4, lambda A: (n4_auto([[1, 0], [0, 1]], [[-1, 0], [0, -1]], A),
                         2)),
], ids=["n2_omega", "n4_minus"])
def test_solutions_are_homogeneous_in_the_table(make, twist):
    # every equation chi(a_(n) b) = a_(n) chi(b) is linear in the table, so
    # scaling every entry by a nonzero rational keeps the solution space,
    # and the normalized basis, entry for entry and in order
    A = make()
    want = [chi.entries for chi in centroid_basis(
        eigenspaces(A, *twist(A)), 3, 1)]
    assert len(want) == 3
    for s in (Fraction(7, 3), -2):
        B = _scaled(A, s)
        got = [chi.entries for chi in centroid_basis(
            eigenspaces(B, *twist(B)), 3, 1)]
        assert [list(e.items()) for e in got] == \
            [list(e.items()) for e in want], s


def test_a_rescaled_generator_solves_to_the_unit_monomials():
    # N2 on L, 3J, G+, G-: table denominators 2, 3 and 6, so the brackets
    # are scaled by K = 6
    A = parse_algebra(N2J3_SOURCE)
    loop = eigenspaces(A, identity_morphism(A), 1)
    frame = _Frame(loop, 3, 1)
    assert centroid._interior_brackets(frame)[1] == 6
    sols = centroid_basis(loop, 3, 1)
    assert [is_scalar_action(chi) for chi in sols] == \
        [LaurentElt(A.field, {q: 1}) for q in (-1, 0, 1)]


def test_mod2_solve_matches_a_brute_force_search():
    # every set of at most three equations on up to three unknowns: the
    # solve answers None exactly when no assignment satisfies them all,
    # and otherwise one that does
    for n in (1, 2, 3):
        for size in range(4):
            for eqs in combinations(range(1, 1 << (n + 1)), size):
                def holds(x):
                    return all(not (bin(eq & x).count("1") + (eq >> n)) & 1
                               for eq in eqs)

                got = centroid._solve_mod2(eqs, n)
                if got is None:
                    assert not any(map(holds, range(1 << n))), eqs
                else:
                    assert got < 1 << n and holds(got), eqs


@pytest.mark.parametrize("source", ["n4_zeta", "n2_conductor_15",
                                    "inconsistent", "rational"])
def test_records_keep_their_basis_where_no_power_of_i_clears_the_table(
        source):
    # the three cases the solve keeps its own basis in: a coordinate that
    # is no rational multiple of i (zeta_24 from G1 -> zeta G1; zeta_15,
    # in a field without i), powers of i that cannot clear every
    # coordinate (b acts on a by i, which needs u_b = i, and on c by 1,
    # which needs u_b = 1), and a table that is rational already
    if source == "inconsistent":
        A = parse_algebra(
            "algebra tri\ncyclotomic 24\n\ngenerator a parity=even\n"
            "generator b parity=even\ngenerator c parity=even\n\n"
            "bracket b a = zeta^6*a\nbracket b c = c\n")
    elif source == "rational":
        A = N2
    else:
        A = (_rescaled(N4, {"G1": 1}) if source == "n4_zeta"
             else _rescaled(make_n2(15), {"G+": 1}))
    frame = _Frame(eigenspaces(A, identity_morphism(A), 1), 3, 1)
    brackets, K = centroid._interior_brackets(frame)
    assert frame.gauge == [0] * A.ngens()
    irrational = any(v.__class__ is CycloScalar for by_record in
                     brackets.values() for poly in by_record.values()
                     for coords in poly.values() for v in coords.values())
    assert irrational == (source != "rational")


#: N4 loops solved on both the shipped table and J2 -> i J2: (X of
#: ``n4_auto(I, X)``, twist order, window, interior).
N4_RATIONAL_FORM_CASES = {
    "id_w3": ([[1, 0], [0, 1]], 1, 3, 1),
    "id_half": ([[1, 0], [0, 1]], 1, 3, Fraction(1, 2)),
    "minus_w3": ([[-1, 0], [0, -1]], 2, 3, 1),
    "minus_w5": ([[-1, 0], [0, -1]], 2, 5, 2),
    "x4_w3": ([[I4, 0], [0, -I4]], 4, 3, 1),
}


@pytest.mark.parametrize("name", sorted(N4_RATIONAL_FORM_CASES))
def test_n4_solves_as_its_rational_form(name):
    # oracle: the change of basis J2 -> i J2 multiplies the coefficient at
    # v_g of [v_a lambda v_b] by u_a u_b / u_g, and it makes every N4
    # structure constant rational.  Each twist here is diagonal on the
    # generators, so both loops have the same records, and the solutions,
    # monic monomials with same-record entries alone, must agree entry for
    # entry and in order
    A = parse_algebra(data_text("n4.csa"))
    R = _rescaled(A, {"J2": A.field.conductor // 4})

    def rational(B):
        return all(v.as_rational() is not None for p in B.table.values()
                   for e in p.coeffs.values() for v in e.terms.values())

    assert rational(R) and not rational(A)
    X, order, window, interior = N4_RATIONAL_FORM_CASES[name]
    loops = [eigenspaces(B, n4_auto([[1, 0], [0, 1]], X, B), order)
             for B in (A, R)]
    assert [[B.elt_string(v) for _, v, _, _ in loop.basis]
            for B, loop in zip((A, R), loops)] == \
        [[g.name for g in A.generators]] * 2
    want, got = ([list(chi.entries.items())
                  for chi in centroid_basis(loop, window, interior)]
                 for loop in loops)
    assert len(want) == 3
    assert got == want


#: The four perfbench centroid cases and N4 twisted by order 3:
#: (loop, window, interior).
ROW_CASES = {
    "n2_id_w3": (UNTWISTED, 3, 1),
    "n2_omega_w3": (OMEGA_LOOP, 3, 1),
    "n2_omega_w5": (OMEGA_LOOP, 5, 2),
    "n4_minus_w3": (N4_MINUS, 3, 1),
    "n4_z3_w3": (N4_Z3, 3, 1),
}


def _check_exact(v):
    """v is an int or a non-integral Fraction."""
    if v.__class__ is Fraction:
        assert v.denominator != 1, v
    else:
        assert v.__class__ is int, v


@pytest.mark.parametrize("name", sorted(ROW_CASES))
def test_rows_hold_rationals_as_python_numbers(monkeypatch, name):
    # the solve runs on rationals under the _q rule: an int when integral,
    # else a Fraction, in the rows and in the pivots the eliminator keeps.
    # No CycloScalar reaches either: the N4 tables carry zeta^6
    # coefficients, and on the basis with J2 times i they are rational
    seen = Counter()
    echelons = {}

    def checked(pivots, row):
        for v in row.values():
            _check_exact(v)
            seen[v.__class__] += 1
        echelons[id(pivots)] = pivots
        return _echelon_insert(pivots, row)

    monkeypatch.setattr(centroid, "_echelon_insert", checked)
    sols = centroid_basis(*ROW_CASES[name])
    for pivots in echelons.values():
        for row in pivots.values():
            for v in row.values():
                _check_exact(v)
    assert len(sols) == 3
    assert all(is_scalar_action(chi) is not None for chi in sols)
    # the brackets are scaled by K = 2, which clears every denominator on
    # the perfbench cases; the thirds of the order-3 shifts stay
    assert seen[int]
    assert bool(seen[Fraction]) == (name == "n4_z3_w3")
    assert set(seen) <= {int, Fraction}


def test_scalar_action_reads_r_off_the_first_interior_column():
    sol = by_exponent(centroid_basis(UNTWISTED, 3, 1))[0]
    frame = sol._frame
    first = frame.entry_key(frame.interior0[0])
    a0, _, q0 = first
    # a component on another eigenvector, or a decorated one
    for stray in ((a0 + 1, 0, q0), (a0, 1, q0)):
        entries = dict(sol.entries)
        entries[first, stray] = FIELD.one()
        assert is_scalar_action(sol.replace_entries(entries)) is None
    # a zero first column reads r = 0, but other columns are nonzero
    entries = {k: v for k, v in sol.entries.items() if k[0] != first}
    assert entries
    assert is_scalar_action(sol.replace_entries(entries)) is None


#: The four perfbench cases, and loops whose rows take other paths: the gl2
#: current loop, whose one solution is a projection; the ungraded sl2 loop;
#: N2 under an order-3 twist, on thirds; and N4 at one exponent per coset.
GL2 = make_current(gl2_constants())
ORDER_CASES = dict(
    {name: ROW_CASES[name] for name in ("n2_id_w3", "n2_omega_w3",
                                         "n2_omega_w5", "n4_minus_w3")},
    gl2_current=(eigenspaces(GL2, identity_morphism(GL2), 1), 3, 1),
    sl2_current=(CURRENT_LOOP, 3, 1),
    n2_rot3=(eigenspaces(N2, parse_morphism(ROT3_CSM, N2)[1], 3), 3, 1),
    n4_id_half=(eigenspaces(N4, identity_morphism(N4), 1), 3,
                Fraction(1, 2)),
)


def _solved(case):
    """Every solution's entries, in order and with their scalar types,
    and its r."""
    return [([(k, v, v.__class__) for k, v in chi.entries.items()],
             is_scalar_action(chi)) for chi in centroid_basis(*case)]


@pytest.mark.parametrize("name", sorted(ORDER_CASES))
def test_row_order_leaves_every_solution_as_it_is(monkeypatch, name):
    # the eliminator keeps the fully reduced solved form with least-column
    # pivots, a function of the row space and the unknown ids alone, and
    # the order of the interior keys changes neither
    case = ORDER_CASES[name]
    forward = _solved(case)
    order = centroid._row_order
    assert len(order(_Frame(*case))) > 1
    monkeypatch.setattr(centroid, "_row_order",
                        lambda frame: order(frame)[::-1])
    assert _solved(case) == forward


def _final_echelon(monkeypatch, case, insert):
    """The solutions of ``case`` and the echelon of its row loop, with
    ``insert`` taking each row in place of ``_echelon_insert``."""
    seen = []

    def first(pivots, row):
        if not seen:
            seen.append(pivots)
        return insert(pivots, row)

    monkeypatch.setattr(centroid, "_echelon_insert", first)
    return _solved(case), seen[0]


@pytest.mark.parametrize("name", sorted(ORDER_CASES))
def test_refused_rows_reduce_to_nothing_and_leave_the_echelon_as_it_is(
        monkeypatch, name):
    # the eliminator refuses a row before any reduction only when it
    # reduces to nothing against the pivots of that moment, and the echelon
    # then ends as the full reduction of every row leaves it: the same
    # pivots and users, and no pending pins
    case = ORDER_CASES[name]
    calls = []

    def counted(pivots, row):
        calls.append(row)
        return _reduce_against(pivots, row)

    monkeypatch.setattr(linalg, "_reduce_against", counted)
    refused = Counter()

    def checked(pivots, row):
        before = len(calls)
        lead = _echelon_insert(pivots, row)
        if len(calls) == before:
            assert lead is None
            assert _reduce_against(pivots, row) == ({}, None)
            refused[len(row)] += 1
        return lead

    solved, pivots = _final_echelon(monkeypatch, case, checked)
    assert refused[2]

    def reduced(pivots, row):
        # a zero entry on a column no row mentions stops the refusal and
        # leaves the reduction as it is
        before = len(calls)
        lead = _echelon_insert(pivots, {**row, -1: 0})
        assert len(calls) == before + 1
        return lead

    every, inserted = _final_echelon(monkeypatch, case, reduced)
    assert solved == every
    assert dict(pivots) == dict(inserted)
    assert pivots.users == inserted.users
    assert pivots.pins == inserted.pins == []


def test_rows_start_at_the_lightest_record_and_the_highest_exponent():
    frame = _Frame(N4_MINUS, 3, 1)
    keys = [frame.entry_key(a) for a in centroid._row_order(frame)]
    assert sorted(keys) == sorted(map(frame.entry_key, frame.interior0))
    ranks = [(frame.weights[ai], -q) for ai, _, q in keys]
    assert ranks == sorted(ranks)
    ai, _, q = keys[0]
    assert N4.elt_string(frame.alphas[ai][1]) == "J1" and q == 1
    # no weights: the interior order
    bare = _weightless(N2)
    frame = _Frame(eigenspaces(bare, n2_omega(bare), 2), 3, 1)
    assert centroid._row_order(frame) == frame.interior0
