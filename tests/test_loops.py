import random
from fractions import Fraction

import pytest

from csalg.algebras import make_current, make_n2, make_n4, sl2_constants
from csalg.core import (EVEN, ODD, AlgebraDef, Generator, LambdaPoly,
                        apply_partial, check_axioms, lambda_bracket)
from csalg import loops
from csalg.cyclotomic import CycloField, CycloScalar
from csalg.dsl import parse_algebra
from csalg.errors import ConductorError, CsalgError, DomainError
from csalg.laurent import LaurentElt
from csalg.loops import (
    AlgElt,
    LoopAlgebra,
    alg_bracket,
    alg_reduce,
    bracket_closure,
    eigenspaces,
    l0_spectrum,
    loop_membership,
    split_check,
)
from csalg.morphisms import (GenMorphism, extend_apply, identity_morphism,
                             n2_omega, n2_theta, n4_auto)

N2 = make_n2()
N4 = make_n4()
FIELD = N2.field
HALF = Fraction(1, 2)

UNTWISTED = eigenspaces(N2, identity_morphism(N2), 1)
OMEGA_LOOP = eigenspaces(N2, n2_omega(N2), 2)
I4 = N4.field.root_of_unity(4)
QUARTER_LOOP = eigenspaces(N4, n4_auto([[1, 0], [0, 1]], [[I4, 0], [0, -I4]], N4), 4)
SIGN_LOOP = eigenspaces(N4, n4_auto([[1, 0], [0, 1]], [[-1, 0], [0, -1]], N4), 2)


# -- eigenspace splitting ------------------------------------------------


def test_omega_eigenspaces():
    dims = [len(piece) for piece in OMEGA_LOOP.eigenbasis]
    assert dims == [2, 2]
    # the fixed piece holds L and G+ + G-, the other J and G+ - G-
    assert loop_membership(OMEGA_LOOP, N2.elt("L"))
    assert loop_membership(OMEGA_LOOP, N2.elt("G+") + N2.elt("G-"))
    assert loop_membership(OMEGA_LOOP, N2.elt("J", q=HALF))
    assert loop_membership(OMEGA_LOOP, (N2.elt("G+") - N2.elt("G-")).shift_t(HALF))
    assert not loop_membership(OMEGA_LOOP, N2.elt("J"))
    assert not loop_membership(OMEGA_LOOP, N2.elt("G+"))


def test_membership_refuses_an_exponent_off_the_lattice():
    # the omega loop has m = 2: t^{1/3} has no residue mod (1/2)Z
    assert not loop_membership(OMEGA_LOOP, N2.elt("L", q=Fraction(1, 3)))
    assert loop_membership(OMEGA_LOOP, N2.elt("J", q=HALF))
    assert loop_membership(OMEGA_LOOP, N2.elt("L", q=1))


def test_omega_loop_basis_records():
    one, zero = FIELD.one(), FIELD.zero()
    L, J, GP, GM = (N2.elt(g) for g in ("L", "J", "G+", "G-"))
    # omega fixes L and G+ + G-, and negates J and G+ - G-; the null
    # space sets its free coordinate, the last one of G+ - G-, to 1
    assert OMEGA_LOOP.basis == [
        (0, L, [one, zero, zero, zero], EVEN),
        (0, GP + GM, [zero, zero, one, one], ODD),
        (1, J, [zero, one, zero, zero], EVEN),
        (1, GM - GP, [zero, zero, -one, one], ODD),
    ]
    mixed = LoopAlgebra(N2, 1, [[L + GP, J, GM]])
    assert [parity for _, _, _, parity in mixed.basis] == [None, EVEN, ODD]


def test_piece_contains_reads_sparse_coordinates():
    c = FIELD.rational
    L, J, GP, GM = range(4)
    wide = LoopAlgebra(N2, 2, [
        [N2.elt("L")],
        [N2.elt("J"), N2.elt("G+"), N2.elt("G-")],
    ])
    assert wide.piece_contains(0, {L: c(5)})
    assert not wide.piece_contains(0, {L: c(5), GP: c(1)})
    assert wide.piece_contains(1, {J: c(2), GM: FIELD.zeta(1)})
    assert wide.piece_contains(3, {J: c(2), GP: c(-1), GM: FIELD.zeta(1)})
    assert not wide.piece_contains(1, {J: c(2), GM: c(1), L: c(1)})
    # L and 2L span one line; G+ - G- spans (0, 0, 1, -1)
    dependent = LoopAlgebra(N2, 2, [
        [N2.elt("L"), N2.elt("L").scale(2)],
        [N2.elt("J"), N2.elt("G+") - N2.elt("G-")],
    ])
    assert dependent.piece_contains(0, {L: c(3)})
    assert not dependent.piece_contains(0, {L: c(3), J: c(1)})
    assert dependent.piece_contains(1, {J: c(-1), GP: c(2), GM: c(-2)})
    assert not dependent.piece_contains(1, {J: c(-1), GP: c(2), GM: c(-1)})
    assert not dependent.piece_contains(1, {GP: c(1)})
    missing = LoopAlgebra(N2, 2, [
        [N2.elt("L"), N2.elt("G+") + N2.elt("G-")],
        [],
    ])
    assert missing.piece_contains(0, {L: c(1), GP: c(-3), GM: c(-3)})
    assert not missing.piece_contains(0, {GP: c(1), GM: c(-1)})
    assert not missing.piece_contains(1, {J: c(1)})
    for loop in (wide, dependent, missing):
        assert loop.piece_contains(0, {}) and loop.piece_contains(1, {})


def test_eigenbasis_vectors_are_exact():
    omega = n2_omega(N2)
    for i, piece in enumerate(OMEGA_LOOP.eigenbasis):
        sign = FIELD.root_of_unity(2) ** i
        for v in piece:
            assert extend_apply(omega, v) == v.scale(sign)


def test_identity_twist_is_untwisted():
    assert [len(p) for p in UNTWISTED.eigenbasis] == [4]
    rng = random.Random(3)
    for _ in range(10):
        x = N2.zero_elt()
        for _ in range(3):
            x = x + N2.elt(rng.randrange(4), dpow=rng.randint(0, 2),
                           q=rng.randint(-2, 2), coeff=rng.randint(1, 4))
        assert loop_membership(UNTWISTED, x)


def test_algebra_without_generators_has_empty_eigenspaces():
    empty = AlgebraDef("E", FIELD, [], {})
    loop = eigenspaces(empty, identity_morphism(empty), 2)
    assert [len(p) for p in loop.eigenbasis] == [0, 0]


def test_quarter_twist_eigenspaces():
    dims = [len(piece) for piece in QUARTER_LOOP.eigenbasis]
    assert dims == [4, 2, 0, 2]
    for g in ("G1", "G2"):
        assert loop_membership(QUARTER_LOOP, N4.elt(g, q=Fraction(1, 4)))
        assert not loop_membership(QUARTER_LOOP, N4.elt(g))
    for g in ("Gb1", "Gb2"):
        assert loop_membership(QUARTER_LOOP, N4.elt(g, q=Fraction(3, 4)))
    # the even part is untouched by a constant slot rotation
    for g in ("L", "J1", "J2", "J3"):
        assert loop_membership(QUARTER_LOOP, N4.elt(g))


def test_eigenspaces_rejects_bad_twists():
    with pytest.raises(DomainError):
        eigenspaces(N2, n2_omega(N2), 3)
    images = {g: N2.elt(g) for g in ("L", "J", "G+", "G-")}
    i4 = FIELD.root_of_unity(4)
    twists = [
        (1, {"L": N2.elt("L") + N2.elt("J")}),  # unipotent
        (2, {"J": N2.elt("J").scale(2)}),  # eigenvalue 2, no root of unity
        (2, {"G+": N2.elt("G+").scale(i4),  # order 4, not 2
             "G-": N2.elt("G-").scale(-i4)}),
    ]
    for m, changed in twists:
        sigma = GenMorphism(N2, 1, {**images, **changed})
        with pytest.raises(DomainError, match="automorphism does not have "
                           "order dividing %d" % m):
            eigenspaces(N2, sigma, m)
    with pytest.raises(DomainError):
        eigenspaces(N2, n2_theta(LaurentElt(FIELD, {HALF: 1}), N2), 2)
    with pytest.raises(DomainError):
        eigenspaces(N2, n2_theta(LaurentElt(FIELD, {Fraction(1): 1}), N2), 1)


def test_off_span_vectors_are_named_in_the_error():
    images = {g: N2.elt(g) for g in ("L", "J", "G+", "G-")}
    images["J"] = N2.elt("J") + N2.elt("L", q=1)
    with pytest.raises(DomainError, match=r"^image of J: expected an element "
                       r"of the generator span, got a term with D-power 0 "
                       r"and exponent 1$"):
        eigenspaces(N2, GenMorphism(N2, 1, images), 1)
    with pytest.raises(DomainError, match=r"^eigenbasis record 1 \(residue "
                       r"0\): expected an element of the generator span, got "
                       r"a term with D-power 1 and exponent 0$"):
        LoopAlgebra(N2, 1, [[N2.elt("L"), N2.elt("J", dpow=1)]])


def test_membership_names_both_fields():
    with pytest.raises(DomainError) as err:
        loop_membership(OMEGA_LOOP, make_n2(12).elt("L"))
    assert str(err.value) == \
        "element lives over Q(zeta_12), the loop over Q(zeta_24)"


def test_membership_is_stable_under_the_derivation():
    x = N2.elt("L", q=1)
    assert loop_membership(OMEGA_LOOP, x)
    assert loop_membership(OMEGA_LOOP, apply_partial(N2, x))
    y = N2.elt("J", q=HALF)
    assert loop_membership(OMEGA_LOOP, apply_partial(N2, apply_partial(N2, y)))


def test_loop_closure_under_n_products():
    for loop in (OMEGA_LOOP, QUARTER_LOOP):
        A = loop.base
        m = loop.order
        for i, piece in enumerate(loop.eigenbasis):
            for j, other in enumerate(loop.eigenbasis):
                for a in piece:
                    for b in other:
                        poly = lambda_bracket(A, a.shift_t(Fraction(i, m)),
                                              b.shift_t(Fraction(j, m)))
                        for elt in poly.coeffs.values():
                            assert loop_membership(loop, elt)


def test_bracket_closure_of_real_and_doctored_loops():
    assert bracket_closure(OMEGA_LOOP)
    assert bracket_closure(QUARTER_LOOP)
    # [J lambda G+] = G+ puts G+ at t^{1/2 + 1/2} = t^1, outside residue 0
    doctored = LoopAlgebra(N2, 2, [
        [N2.elt("L")],
        [N2.elt("J"), N2.elt("G+"), N2.elt("G-")],
    ])
    assert not bracket_closure(doctored)


# -- conformal weights ---------------------------------------------------

Z3 = N4.field.root_of_unity(3)
#: The six loops of the benchmark's modes workload.
MODE_LOOPS = [
    UNTWISTED,
    OMEGA_LOOP,
    eigenspaces(N4, n4_auto([[1, 0], [0, 1]], [[1, 0], [0, 1]], N4), 1),
    SIGN_LOOP,
    eigenspaces(N4, n4_auto([[1, 0], [0, 1]], [[Z3, 0], [0, Z3 ** 2]], N4), 3),
    QUARTER_LOOP,
]


@pytest.mark.parametrize("loop", MODE_LOOPS,
                         ids=["n2_id", "n2_omega", "n4_I", "n4_-I", "n4_z3",
                              "n4_i"])
def test_weights_grade_the_mode_loops(loop):
    # weights as declared in n2.csa and n4.csa: L 2, currents 1, odd 3/2
    if loop.base is N2:
        want = [1, Fraction(3, 2), Fraction(3, 2), 2]
    else:
        want = [1, 1, 1] + [Fraction(3, 2)] * 4 + [2]
    weights = loop.weights()
    assert len(weights) == len(loop.basis)
    assert sorted(weights) == want


def test_weights_name_the_pair_with_a_term_of_the_wrong_weight():
    table = dict(N2.table)
    j, gp = N2.gen_index("J"), N2.gen_index("G+")
    # [J lambda G+] = G+ has weight 3/2 = 1 + 3/2 - 1; D G+ has 5/2
    table[(j, gp)] = LambdaPoly(FIELD, {0: N2.elt("G+", dpow=1)})
    bad = AlgebraDef("N2bad", FIELD, N2.generators, table)
    loop = eigenspaces(bad, identity_morphism(bad), 1)
    with pytest.raises(DomainError, match=r"\[J lambda G\+\] is not graded "
                       r"by the weights: its term x\^\(0\) D\^\(1\) G\+ has "
                       r"weight 5/2, not 3/2"):
        loop.weights()


def test_weights_need_every_generator_weight():
    gens = [Generator(g.name, g.parity, None if g.name == "J" else g.weight)
            for g in N2.generators]
    bare = AlgebraDef("N2", FIELD, gens, N2.table)
    loop = eigenspaces(bare, identity_morphism(bare), 1)
    with pytest.raises(DomainError,
                       match="generator J has no conformal weight"):
        loop.weights()


def test_weights_need_a_single_weight_per_basis_vector():
    mixed = LoopAlgebra(N2, 1, [[N2.elt("L") + N2.elt("J"), N2.elt("J"),
                                 N2.elt("G+"), N2.elt("G-")]])
    with pytest.raises(DomainError, match=r"loop basis vector L \+ J has no "
                       r"single conformal weight"):
        mixed.weights()


# -- the split-form check ------------------------------------------------


def test_split_check_passes_for_real_loops():
    assert split_check(OMEGA_LOOP, 2).bijective
    assert split_check(UNTWISTED, 3).bijective
    assert split_check(QUARTER_LOOP, 3).bijective


def test_split_check_flags_a_missing_piece():
    doctored = LoopAlgebra(N2, 2, [
        [N2.elt("L"), N2.elt("G+") + N2.elt("G-")],
        [],
    ])
    report = split_check(doctored, 1)
    assert report.injective
    assert not report.surjective
    assert not report.bijective
    assert ("J", HALF) in report.missed


def test_split_report_renders_missed_pieces_once():
    doctored = LoopAlgebra(N2, 2, [
        [N2.elt("L"), N2.elt("G+") + N2.elt("G-")],
        [],
    ])
    report = split_check(doctored, 1)
    lines = report.lines()
    missed = lines[lines.index("  surjective: NO, missed:") + 1:]
    payload = report.as_json()
    assert payload["missed"] == [line.strip() for line in missed]
    assert "J (x) t^{1/2}" in payload["missed"]
    assert payload["injective"] is True and payload["surjective"] is False


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_exponents_enumerate_one_coset(m):
    loop = LoopAlgebra(N2, m, [[] for _ in range(m)])
    lattice = [Fraction(k, m) for k in range(-4 * m, 4 * m + 1)]
    # lo and hi run over a grid finer than every lattice, so both
    # endpoints on the lattice and between its points occur
    grid = [Fraction(k, 12) for k in range(-30, 31, 1 if m < 4 else 2)]
    for res in range(m):
        coset = [q for q in lattice if (q * m - res) % m == 0]
        for lo in grid:
            for hi in grid:
                want = [q for q in coset if lo <= q <= hi]
                assert loop.exponents(res, lo, hi) == want
    assert loop.exponents(0, 1, 0) == []
    assert loop.exponents(m - 1, Fraction(-1, 2 * m), Fraction(1, 2 * m)) \
        == ([0] if m == 1 else [])


@pytest.mark.parametrize("m", range(1, 7))
def test_residue_of_matches_the_scaled_exponent(m):
    # oracle: mu carries residue (mu * m) mod m when mu * m is an integer,
    # and none otherwise; mu runs over (1/12)Z in [-3, 3], as an int where
    # it is integral and as a Fraction always
    loop = LoopAlgebra(N2, m, [[] for _ in range(m)])
    for k in range(-36, 37):
        mu = Fraction(k, 12)
        scaled = mu * m
        want = None if scaled.denominator != 1 else int(scaled) % m
        assert loop.residue_of(mu) == want, mu
        if mu.denominator == 1:
            assert loop.residue_of(int(mu)) == want == 0, mu


def test_split_check_on_a_loop_without_records_misses_everything():
    # no columns: nothing is hit, and the empty family is independent
    report = split_check(LoopAlgebra(N2, 1, [[]]), 1)
    assert report.injective
    want = {(name, Fraction(q)) for name in ("L", "J", "G+", "G-")
            for q in (-1, 0, 1)}
    assert len(report.missed) == 12
    assert set(report.missed) == want


def test_split_check_flags_dependent_generators():
    doctored = LoopAlgebra(N2, 2, [
        [N2.elt("L"), N2.elt("L").scale(2)],
        [N2.elt("J"), N2.elt("G+") - N2.elt("G-")],
    ])
    assert not split_check(doctored, 1).injective


# -- mode arithmetic -----------------------------------------------------


def test_alg_reduce_single_step():
    reduced = alg_reduce(UNTWISTED, {("L", 1, Fraction(3)): 1})
    assert reduced == UNTWISTED.mode("L", 2).scale(-3)
    assert alg_reduce(UNTWISTED, {("L", 1, Fraction(0)): 1}).is_zero()


def test_alg_reduce_iterated_fractional_step():
    reduced = alg_reduce(SIGN_LOOP, {("G1", 2, HALF): 1})
    assert reduced == SIGN_LOOP.mode("G1", Fraction(-3, 2)).scale(Fraction(-1, 8))


def test_mode_cosets_are_enforced():
    with pytest.raises(DomainError):
        AlgElt(OMEGA_LOOP, {("G+", Fraction(0)): 1})
    with pytest.raises(DomainError):
        OMEGA_LOOP.mode("J", Fraction(1, 3))
    OMEGA_LOOP.mode("J", HALF)
    AlgElt(OMEGA_LOOP, {("G+", HALF): 1, ("G-", HALF): -1})


def test_modes_of_different_loops_do_not_mix():
    with pytest.raises(DomainError):
        alg_bracket(OMEGA_LOOP, OMEGA_LOOP.mode("L", 1), UNTWISTED.mode("L", 0))
    with pytest.raises(DomainError):
        OMEGA_LOOP.mode("L", 1) + UNTWISTED.mode("L", 1)


def test_witt_relations():
    for a in range(-2, 3):
        for b in range(-2, 3):
            got = alg_bracket(UNTWISTED,
                              UNTWISTED.mode("L", a + 1),
                              UNTWISTED.mode("L", b + 1))
            assert got == UNTWISTED.mode("L", a + b + 1).scale(a - b)


def test_mode_bracket_examples():
    assert alg_bracket(UNTWISTED, UNTWISTED.mode("J", 2),
                       UNTWISTED.mode("J", -1)).is_zero()
    got = alg_bracket(UNTWISTED, UNTWISTED.mode("L", 1),
                      UNTWISTED.mode("G+", 2))
    assert got == UNTWISTED.mode("G+", 2).scale(Fraction(-3, 2))


def _binom(mu, j):
    """Generalized binomial C(mu, j) = mu (mu-1) ... (mu-j+1) / j!."""
    out = Fraction(1)
    for i in range(j):
        out = out * (mu - i) / (i + 1)
    return out


def _expanded_mode_bracket(loop, x, y):
    """[a_mu, b_nu] = sum_j C(mu, j) (a_(j) b)_{mu+nu-j}, term by term,
    with a_(j) b read off the structure table."""
    A = loop.base
    raw = {}
    for (g1, mu), c1 in x.terms.items():
        for (g2, nu), c2 in y.terms.items():
            for j, elt in A.table[(g1, g2)].coeffs.items():
                w = _binom(mu, j)
                for (g, d, q), c in elt.terms.items():
                    key = (g, d, mu + nu - j + q)
                    raw[key] = raw.get(key, 0) + c1 * c2 * c * w
    return alg_reduce(loop, raw)


@pytest.mark.parametrize("loop", MODE_LOOPS,
                         ids=["n2_id", "n2_omega", "n4_I", "n4_-I", "n4_z3",
                              "n4_i"])
def test_mode_bracket_matches_the_expanded_formula(loop):
    # every pair of eigenbasis records, each at its coset exponent in
    # [0, 1) and two below it, so negative and fractional mu both occur
    modes = []
    for res, a, _, _ in loop.basis:
        for mu in (Fraction(res, loop.order), Fraction(res, loop.order) - 2):
            modes.append(AlgElt(loop, {(g, mu): c
                                       for (g, _, _), c in a.terms.items()}))
    for x in modes:
        for y in modes:
            assert alg_bracket(loop, x, y) == \
                _expanded_mode_bracket(loop, x, y), (x, y)


def _parity(x):
    gens = {g for (g, _) in x.terms}
    parities = {x.loop.base.parity(g) for g in gens}
    assert len(parities) == 1
    return parities.pop()


def _sample_modes(loop, rng, count):
    out = []
    while len(out) < count:
        i = rng.randrange(loop.order)
        piece = loop.eigenbasis[i]
        if not piece:
            continue
        a = rng.choice(piece)
        mu = Fraction(i, loop.order) + rng.randint(-2, 2)
        out.append(AlgElt(loop, {(g, mu): c
                                 for (g, _, _), c in a.terms.items()}))
    return out


def test_mode_bracket_skew_symmetry():
    rng = random.Random(17)
    for loop in (OMEGA_LOOP, QUARTER_LOOP):
        for x in _sample_modes(loop, rng, 6):
            for y in _sample_modes(loop, rng, 6):
                sign = -1 if not (_parity(x) and _parity(y)) else 1
                assert alg_bracket(loop, x, y) == \
                    alg_bracket(loop, y, x).scale(sign)


def test_mode_bracket_jacobi():
    rng = random.Random(19)
    for loop in (OMEGA_LOOP, QUARTER_LOOP):
        triples = zip(_sample_modes(loop, rng, 4),
                      _sample_modes(loop, rng, 4),
                      _sample_modes(loop, rng, 4))
        for x, y, z in triples:
            sign = -1 if _parity(x) and _parity(y) else 1
            lhs = alg_bracket(loop, x, alg_bracket(loop, y, z))
            rhs = alg_bracket(loop, alg_bracket(loop, x, y), z) + \
                alg_bracket(loop, y, alg_bracket(loop, x, z)).scale(sign)
            assert lhs == rhs


def test_negating_a_mode():
    x = UNTWISTED.mode("L", 2).scale(3) + UNTWISTED.mode("J", -1)
    assert str(-x) == "-3*L[2] - J[-1]"
    assert (x + -x).is_zero()
    assert -(-x) == x


def test_mode_rendering():
    assert str(UNTWISTED.mode("L", 0).scale(3)) == "3*L[0]"
    assert str(AlgElt(OMEGA_LOOP, {("G+", -HALF): 1, ("G-", -HALF): -1})) \
        == "G+[-1/2] - G-[-1/2]"
    assert str(UNTWISTED.mode("J", 1).scale(0)) == "0"


# -- the Virasoro mode spectrum ------------------------------------------


def test_l0_spectrum_untwisted():
    spec = l0_spectrum(UNTWISTED, "odd", 1)
    assert spec.eigenvalues == {Fraction(3, 2), HALF, Fraction(-1, 2)}
    assert spec.fractional_parts == {HALF}
    assert l0_spectrum(UNTWISTED, "even", 2).fractional_parts == {Fraction(0)}


def test_l0_spectrum_separates_the_n2_twists():
    assert l0_spectrum(UNTWISTED, ODD, 2).fractional_parts == {HALF}
    assert l0_spectrum(OMEGA_LOOP, ODD, 2).fractional_parts == {Fraction(0), HALF}


def test_l0_spectrum_quarter_twist():
    spec = l0_spectrum(QUARTER_LOOP, "odd", 2)
    assert spec.fractional_parts == {Fraction(1, 4), Fraction(3, 4)}


@pytest.mark.parametrize("loop", [UNTWISTED, OMEGA_LOOP, QUARTER_LOOP],
                         ids=["untwisted", "omega", "quarter"])
def test_l0_spectrum_inverts_each_record_once(monkeypatch, loop):
    # a record's first coefficient leads each of its modes, so one inverse
    # serves every mode of the record
    calls = []
    inverse = CycloScalar.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    want = l0_spectrum(loop, ODD, 2)
    monkeypatch.setattr(CycloScalar, "inverse", counted)
    assert l0_spectrum(loop, ODD, 2).eigenvalues == want.eigenvalues
    records = [a for _, a, _, parity in loop.basis if parity == ODD]
    assert calls == [next(iter(a.terms.values())) for a in records]
    modes = sum(len(loop.exponents(res, -2, 2))
                for res, _, _, parity in loop.basis if parity == ODD)
    assert modes > 2 * len(records)


def test_l0_spectrum_requires_fixed_virasoro():
    doctored = LoopAlgebra(N2, 2, [
        [N2.elt("J")],
        [N2.elt("L"), N2.elt("G+"), N2.elt("G-")],
    ])
    with pytest.raises(DomainError):
        l0_spectrum(doctored, "odd", 1)


#: A Virasoro L and two odd generators of weight 3/2; the token LG stands
#: for the lambda-part of [L lambda G].  Both tables below pass every axiom.
NONDIAG_SOURCE = (
    "algebra X\ncyclotomic 24\n"
    "generator L parity=even weight=2\n"
    "generator G parity=odd weight=3/2\n"
    "generator H parity=odd weight=3/2\n"
    "bracket L L = D L + x*(2*L)\n"
    "bracket L G = D G + LG\n"
    "bracket L H = D H + x*(3/2*H)\n")

#: [L_1, G_mu] = (D G)_{1+mu} + (c_1)_mu, with (D G)_nu = -nu G_{nu-1}, so
#: at mu = -2 (the first odd mode of window 2) it is (c_1 - 1 + 2)_{-2}:
#: 5/2 G + H when c_1 = 3/2 G + H, and (1 + zeta) G when c_1 = zeta G.
NONDIAG_CASES = [
    ("x*(3/2*G) + x*(H)", "L_1 action is not diagonal on the mode basis: "
                          "[L_1, G[-2]] = 5/2*G[-2] + H[-2]"),
    ("x*(zeta*G)", "non-rational Virasoro eigenvalue 1 + zeta on the mode "
                   "G[-2]"),
]


@pytest.mark.parametrize("entry, message", NONDIAG_CASES,
                         ids=["non-diagonal", "non-rational"])
def test_l0_spectrum_names_the_mode_it_cannot_read(entry, message):
    A = parse_algebra(NONDIAG_SOURCE.replace("LG", entry))
    assert check_axioms(A).ok
    loop = eigenspaces(A, identity_morphism(A), 1)
    with pytest.raises(DomainError) as err:
        l0_spectrum(loop, "odd", 2)
    assert str(err.value) == message


def test_cancelling_mode_sums_leave_no_key():
    F = FIELD
    L, J = N2.gen_index("L"), N2.gen_index("J")
    x = UNTWISTED.mode("L", 2, 3) + UNTWISTED.mode("J", -1)
    assert (x + UNTWISTED.mode("L", 2, -3)).terms == {(J, Fraction(-1)): F.one()}
    assert (x - UNTWISTED.mode("J", -1)).terms == {(L, Fraction(2)): F.rational(3)}
    assert (x - x).terms == {}
    assert (x + x.scale(-1)).terms == {}
    # ("L", 2) and (0, 2) are different dict keys for one mode
    assert AlgElt(UNTWISTED, {("L", 2): 1, (L, Fraction(2)): -1}).terms == {}


def test_alg_reduce_cancels_and_still_validates_every_term():
    F = FIELD
    J = N2.gen_index("J")
    # (D L)_2 = -C(2, 1) L_1 = -2 L_1 cancels 2 L_1
    assert alg_reduce(UNTWISTED, {("L", 1, 2): 1, ("L", 0, 1): 2}).terms == {}
    got = alg_reduce(UNTWISTED, {("L", 1, 2): 1, ("L", 0, 1): 2, ("J", 0, 0): 5})
    assert got.terms == {(J, Fraction(0)): F.rational(5)}
    # (D L)_0 has weight C(0, 1) = 0, yet its generator and coefficient
    # are still checked
    with pytest.raises(CsalgError, match="unknown generator"):
        alg_reduce(UNTWISTED, {("X", 1, 0): 1})
    with pytest.raises(ConductorError):
        alg_reduce(UNTWISTED, {("L", 1, 0): CycloField.get(5).zeta(1)})


def test_l0_spectrum_refuses_windows_past_the_mode_bound():
    bound = loops.MAX_SPECTRUM_MODES
    # the even modes of the untwisted N=2 loop: L and J, 2W + 1 each
    window = bound // 4 + 1
    count = 2 * (2 * window + 1)
    with pytest.raises(DomainError, match="window %d holds %d modes, above "
                       "the bound %d" % (window, count, bound)):
        l0_spectrum(UNTWISTED, "even", window)


def test_l0_spectrum_bound_is_inclusive(monkeypatch):
    monkeypatch.setattr(loops, "MAX_SPECTRUM_MODES", 10)
    # W = 2: 2 * 5 = 10 even modes; W = 3: 14
    assert l0_spectrum(UNTWISTED, "even", 2).fractional_parts == {Fraction(0)}
    with pytest.raises(DomainError, match="14 modes"):
        l0_spectrum(UNTWISTED, "even", 3)
    # the odd modes of the omega loop: G+ + G- at the integers, -G+ + G-
    # at the half-integers; 5 + 4 = 9 for W = 2, 5 + 6 = 11 for W = 5/2
    l0_spectrum(OMEGA_LOOP, "odd", 2)
    with pytest.raises(DomainError, match="window 5/2 holds 11 modes"):
        l0_spectrum(OMEGA_LOOP, "odd", Fraction(5, 2))


# -- refusals ------------------------------------------------------------


def _refusal(call):
    """The message of the DomainError that call() raises."""
    with pytest.raises(DomainError) as err:
        call()
    return str(err.value)


def test_negative_d_powers_are_refused():
    assert _refusal(lambda: N2.elt("L", dpow=-1)) == \
        "negative D-power -1 on L"
    assert _refusal(lambda: alg_reduce(UNTWISTED, {("L", -1, 2): 1})) == \
        "negative D-power -1 on L[2]"


def test_loop_algebra_refuses_malformed_eigenspace_data():
    assert _refusal(lambda: LoopAlgebra(N2, 0, [])) == \
        "twist order must be positive"
    assert _refusal(lambda: LoopAlgebra(N2, 2, [[N2.elt("L")]])) == \
        "expected 2 eigenspace lists, got 1"
    assert _refusal(lambda: LoopAlgebra(N2, 1, [[N2.zero_elt()]])) == \
        "zero vector in an eigenbasis"


def test_loop_operations_refuse_their_domain_errors():
    assert _refusal(lambda: eigenspaces(N4, identity_morphism(N2), 1)) == \
        "morphism is defined on a different algebra"
    for order in (0, -2):
        assert _refusal(lambda: eigenspaces(N2, identity_morphism(N2),
                                            order)) == \
            "twist order must be positive"
    for window in (0, -1):
        assert _refusal(lambda: split_check(UNTWISTED, window)) == \
            "window must be positive"
    assert _refusal(lambda: l0_spectrum(UNTWISTED, "both", 3)) == \
        "parity must be even or odd"
    current = make_current(sl2_constants())
    loop = eigenspaces(current, identity_morphism(current), 1)
    assert _refusal(lambda: l0_spectrum(loop, "even", 3)) == \
        "algebra has no Virasoro generator"
