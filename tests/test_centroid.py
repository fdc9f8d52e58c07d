"""Windowed centroid computations on small loop algebras."""

import time
from fractions import Fraction

import pytest

from csalg import centroid
from csalg.algebras import make_n2, make_n4
from csalg.centroid import _Frame, centroid_basis, is_scalar_action
from csalg.core import (EVEN, AlgebraDef, ConfElt, Generator, LambdaPoly,
                        apply_partial, lambda_bracket)
from csalg.cyclotomic import CycloField
from csalg.errors import DomainError
from csalg.laurent import LaurentElt, delta_t
from csalg.loops import LoopAlgebra, eigenspaces
from csalg.morphisms import identity_morphism, n2_omega, n4_auto

N2 = make_n2()
FIELD = N2.field

UNTWISTED = eigenspaces(N2, identity_morphism(N2), 1)
OMEGA_LOOP = eigenspaces(N2, n2_omega(N2), 2)
N4 = make_n4()
N4_MINUS = eigenspaces(N4, n4_auto([[1, 0], [0, 1]], [[-1, 0], [0, -1]], N4),
                       2)


def mono(q):
    return LaurentElt(FIELD, {Fraction(q): FIELD.one()})


def by_exponent(solutions):
    """Map exponent -> solution for a basis of monic monomial actions."""
    out = {}
    for sol in solutions:
        r = is_scalar_action(sol)
        assert r is not None
        ((q, c),) = r.terms.items()
        assert c == FIELD.one()
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
    entries = dict(sol.entries)
    key = next(k for k in entries if k[0][1] == 0 and abs(k[0][2]) <= 1)
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
        x = sol._frame.hat_elt((0, 0, Fraction(3)))
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
    keys = [(ai, l, q)
            for ai, (res, _, _, _) in enumerate(frame.alphas)
            for q in loop.exponents(res, -w, w) for l in (0, 1)]
    for key in keys:
        assert frame.decompose(frame.hat_elt(key)) == {key: one}
    # a fixed combination with rational and non-rational coefficients
    coeffs = [FIELD.rational(Fraction(-3, 2)), FIELD.zeta(5),
              FIELD.zeta(1) + FIELD.rational(2), one]
    combo = dict(zip(keys[1::7], coeffs * 2))
    x = frame.algebra.zero_elt()
    for key, c in combo.items():
        x = x + frame.hat_elt(key).scale(c)
    assert frame.decompose(x) == combo


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


@pytest.mark.parametrize("loop", [OMEGA_LOOP, N4_MINUS],
                         ids=["n2_omega", "n4_minus"])
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
        for dkey in (frame.keys[i] for i in frame.domain):
            img = frame.hat_elt(dkey).mul_laurent(r)
            for ckey, v in frame.decompose(img).items():
                expected[(dkey, ckey)] = v
        assert dict(chi.entries) == expected
        for pair in chi.entries:
            assert len(pair) == 2
            for key in pair:
                assert [type(part) for part in key] == [int, int, Fraction]


@pytest.mark.parametrize("loop", [OMEGA_LOOP, N4_MINUS],
                         ids=["n2_omega", "n4_minus"])
def test_derived_columns_match_direct_brackets(loop):
    # oracle: bracket each interior key with each codomain element directly
    # and decompose the result, with no t-shift and no derivation rule
    frame = _Frame(loop, 3, 1)
    A = frame.algebra
    reach = frame.window + frame.maxl  # the codomain never reaches past
    columns = [frame.key_id((bi, l, q))
               for bi, (res, _, _, _) in enumerate(frame.alphas)
               for q in loop.exponents(res, -reach, reach) for l in (0, 1)]
    for a in frame.interior0:
        xa = frame.hat(a)
        brackets = {bi: lambda_bracket(A, xa, record).coeffs
                    for bi, (_, record, _, _) in enumerate(frame.alphas)}
        level0 = [c for c in columns if frame.keys[c][1] == 0]
        got = centroid._minus_columns(frame, brackets, level0)
        assert sorted(got) == sorted(columns)
        for c in columns:
            poly = lambda_bracket(A, xa, frame.hat(c))
            want = {n: {i: -v for i, v in frame.coords(elt).items()}
                    for n, elt in poly.coeffs.items()}
            assert got[c] == want, (frame.keys[a], frame.keys[c])


def test_one_bracket_per_interior_key_and_record(monkeypatch):
    # N2 under omega splits into two records of residue 0 (L, G+ + G-) and
    # two of residue 1 (J, G- - G+); interior 1 holds the exponents -1, 0, 1
    # of residue 0 and -1/2, 1/2 of residue 1, so 2*3 + 2*2 = 10 interior
    # keys, each bracketed once with each of the 4 records
    calls = []

    def counted(A, x, y):
        calls.append(1)
        return lambda_bracket(A, x, y)

    monkeypatch.setattr(centroid, "lambda_bracket", counted)
    assert len(centroid_basis(OMEGA_LOOP, 3, 1)) == 3
    assert len(calls) == (2 * 3 + 2 * 2) * 4 == 40
