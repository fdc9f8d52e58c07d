import random
from fractions import Fraction

import pytest

from csalg.algebras import make_current, make_n2, make_n4, sl2_constants
from csalg.cyclotomic import CycloField
from csalg.errors import ConductorError, DomainError
from csalg.laurent import LaurentElt
from csalg.morphisms import (
    GenMorphism,
    SL2MatrixOverS,
    check_hom,
    compose,
    extend_apply,
    identity_morphism,
    invert,
    n2_omega,
    n2_theta,
    n4_auto,
    order_of,
)

from test_loops import _refusal

N2 = make_n2()
N4 = make_n4()
FIELD = N2.field
HALF = Fraction(1, 2)


def mono(coeff, q):
    return LaurentElt(FIELD, {Fraction(q): coeff})


def xmul(a, b):
    return [
        [a[0][0] * b[0][0] + a[0][1] * b[1][0],
         a[0][0] * b[0][1] + a[0][1] * b[1][1]],
        [a[1][0] * b[0][0] + a[1][1] * b[1][0],
         a[1][0] * b[0][1] + a[1][1] * b[1][1]],
    ]


def random_elt(A, rng):
    x = A.zero_elt()
    for _ in range(rng.randint(1, 4)):
        x = x + A.elt(rng.randrange(A.ngens()),
                      dpow=rng.randint(0, 2),
                      q=rng.choice([0, 1, -1, HALF]),
                      coeff=rng.randint(1, 5))
    return x


# -- extension ---------------------------------------------------------------


def test_omega_commutes_with_derivation():
    omega = n2_omega(N2)
    assert extend_apply(omega, N2.elt("J", dpow=1)) == -N2.elt("J", dpow=1)


def test_theta_t_moves_virasoro():
    theta = n2_theta(mono(1, 1), N2)
    assert extend_apply(theta, N2.elt("L")) == N2.elt("L") + N2.elt("J", q=-1)


def test_identity_extension_fixes_random_elements():
    rng = random.Random(7)
    ident = identity_morphism(N2)
    for _ in range(20):
        x = random_elt(N2, rng)
        assert extend_apply(ident, x) == x


def test_extension_is_functorial():
    rng = random.Random(11)
    f = n2_theta(mono(2, 3), N2)
    g = n2_omega(N2)
    fg = compose(f, g)
    for _ in range(10):
        x = random_elt(N2, rng)
        assert extend_apply(fg, x) == extend_apply(f, extend_apply(g, x))


# -- homomorphism checking ---------------------------------------------------


def test_check_hom_omega():
    report = check_hom(N2, n2_omega(N2))
    assert report.homomorphism
    assert report.invertible
    assert report.ok


def test_hom_report_renders_itself():
    report = check_hom(N2, n2_omega(N2))
    assert report.lines(lambda ok: "yes" if ok else "no") == [
        "  homomorphism: yes", "  invertible: yes (matrix determinant 1)"]
    assert report.as_json() == {"homomorphism": True, "invertible": True,
                                "determinant": "1", "failures": [],
                                "ok": True}


def test_check_hom_theta_with_scalar_coefficient():
    report = check_hom(N2, n2_theta(mono(2, 3), N2))
    assert report.homomorphism
    assert report.invertible


def test_check_hom_catches_sign_mutation():
    broken = GenMorphism(N2, 1, {
        "L": N2.elt("L"),
        "J": -N2.elt("J"),
        "G+": -N2.elt("G-"),
        "G-": N2.elt("G+"),
    })
    report = check_hom(N2, broken)
    assert not report.homomorphism
    assert ("G+", "G-") in report.failures
    assert set(report.failures) <= {("G+", "G-"), ("G-", "G+")}
    assert not report.ok


def test_decorated_images_allowed_but_not_inverted():
    phi = GenMorphism(N2, 1, {
        "L": N2.elt("L") + N2.elt("J", dpow=1),
        "J": N2.elt("J"),
        "G+": N2.elt("G+"),
        "G-": N2.elt("G-"),
    })
    extend_apply(phi, N2.elt("L", dpow=2, q=1))
    report = check_hom(N2, phi)
    assert report.invertible is None
    with pytest.raises(DomainError):
        invert(phi)


def test_morphism_validation():
    with pytest.raises(DomainError):
        GenMorphism(N2, 1, {"L": N2.elt("L")})
    with pytest.raises(DomainError):
        GenMorphism(N2, 1, {
            "L": N2.elt("G+"),
            "J": N2.elt("J"),
            "G+": N2.elt("G+"),
            "G-": N2.elt("G-"),
        })
    with pytest.raises(DomainError):
        GenMorphism(N2, 1, {
            "L": N2.elt("L"),
            "J": N2.elt("J"),
            "G+": N2.elt("G+", q=HALF),
            "G-": N2.elt("G-"),
        })


def test_a_morphism_takes_the_level_its_images_need():
    images = {"L": N2.elt("L"), "J": N2.elt("J"),
              "G+": N2.elt("G+", q=HALF), "G-": N2.elt("G-", q=-HALF)}
    assert GenMorphism(N2, None, images).level == 2
    assert GenMorphism(N2, 4, images).level == 4
    assert _refusal(lambda: GenMorphism(N2, 1, images)) == \
        "images need level 2, which does not divide the declared 1"


def test_theta_names_both_fields():
    s = LaurentElt.monomial(1, 1, conductor=12)
    with pytest.raises(DomainError) as err:
        n2_theta(s, N2)
    assert str(err.value) == \
        "s lives over Q(zeta_12), the algebra over Q(zeta_24)"


def test_matrix_entry_names_both_fields():
    u = LaurentElt.monomial(1, 1, conductor=12)
    with pytest.raises(DomainError) as err:
        SL2MatrixOverS(FIELD, [[1, u], [0, 1]])
    assert str(err.value) == \
        "matrix entry lives over Q(zeta_12), the matrix over Q(zeta_24)"


def test_n4_auto_names_both_fields_of_y():
    y = SL2MatrixOverS.identity(conductor=12)
    with pytest.raises(DomainError) as err:
        n4_auto(y, [[1, 0], [0, 1]], N4)
    assert str(err.value) == \
        "Y lives over Q(zeta_12), the algebra over Q(zeta_24)"


def test_extend_apply_names_both_fields():
    with pytest.raises(DomainError) as err:
        extend_apply(n2_omega(N2), make_n2(12).elt("L"))
    assert str(err.value) == \
        "element lives over Q(zeta_12), the morphism over Q(zeta_24)"


# -- group structure over N=2 ------------------------------------------------


def test_theta_of_one_is_identity():
    assert n2_theta(mono(1, 0), N2) == identity_morphism(N2)


def test_theta_fractional_level():
    theta = n2_theta(mono(1, HALF), N2)
    assert theta.level == 2
    assert theta.image("G+") == N2.elt("G+", q=HALF)


def test_omega_is_an_involution():
    omega = n2_omega(N2)
    assert compose(omega, omega) == identity_morphism(N2)
    assert order_of(omega, 4) == 2


def test_theta_multiplicativity():
    units = [mono(1, 0), mono(1, 1), mono(2, 3), mono(1, HALF),
             mono(Fraction(1, 3), -2)]
    for s in units:
        for sp in units:
            lhs = compose(n2_theta(s, N2), n2_theta(sp, N2))
            assert lhs == n2_theta(s * sp, N2)


def test_omega_conjugation_inverts_the_unit():
    omega = n2_omega(N2)
    for s in [mono(1, 0), mono(1, 1), mono(2, 3), mono(1, HALF)]:
        conj = compose(omega, compose(n2_theta(s, N2), omega))
        assert conj == n2_theta(s.inverse(), N2)
    # for monic monomials inversion is plain substitution t -> t^{-1}
    for s in [mono(1, 0), mono(1, 1), mono(1, HALF)]:
        conj = compose(omega, compose(n2_theta(s, N2), omega))
        assert conj == n2_theta(s.subs_t_inverse(), N2)
    # with a scalar coefficient the two differ: the coefficient inverts too
    s = mono(2, 3)
    conj = compose(omega, compose(n2_theta(s, N2), omega))
    assert conj != n2_theta(s.subs_t_inverse(), N2)
    assert conj == n2_theta(mono(HALF, -3), N2)


def test_invert_matches_group_inverse():
    theta = n2_theta(mono(2, 3), N2)
    assert invert(theta) == n2_theta(mono(2, 3).inverse(), N2)
    assert compose(invert(theta), theta) == identity_morphism(N2)
    omega = n2_omega(N2)
    assert invert(omega) == omega


# -- the N=4 family ----------------------------------------------------------


def test_sl2_matrix_validation():
    SL2MatrixOverS(FIELD, [[1, mono(1, 1)], [0, 1]])
    with pytest.raises(DomainError):
        SL2MatrixOverS(FIELD, [[1, 0], [0, 2]])
    with pytest.raises(DomainError):
        SL2MatrixOverS(FIELD, [[mono(1, 1), 0], [0, mono(1, -1)], ][:1] * 2)


def test_n4_auto_identity_and_kernel_element():
    ident = identity_morphism(N4)
    assert n4_auto([[1, 0], [0, 1]], [[1, 0], [0, 1]], N4) == ident
    assert n4_auto([[-1, 0], [0, -1]], [[-1, 0], [0, -1]], N4) == ident
    assert n4_auto([[-1, 0], [0, -1]], [[1, 0], [0, 1]], N4) != ident
    assert n4_auto([[1, 0], [0, 1]], [[-1, 0], [0, -1]], N4) != ident


def test_n4_auto_diagonal_scalar_action():
    i = FIELD.root_of_unity(4)
    phi = n4_auto([[1, 0], [0, 1]], [[i, 0], [0, -i]], N4)
    assert phi.image("L") == N4.elt("L")
    for s in ("J1", "J2", "J3"):
        assert phi.image(s) == N4.elt(s)
    for g in ("G1", "G2"):
        assert phi.image(g) == N4.elt(g, coeff=i)
    for g in ("Gb1", "Gb2"):
        assert phi.image(g) == N4.elt(g, coeff=-i)
    assert order_of(phi, 8) == 4


def test_n4_auto_embeds_a_subfield_matrix_entry():
    i4 = CycloField.get(4).zeta(1)
    i24 = FIELD.zeta(6)
    phi = n4_auto([[1, 0], [0, 1]], [[i4, 0], [0, -i4]], N4)
    assert phi == n4_auto([[1, 0], [0, 1]], [[i24, 0], [0, -i24]], N4)
    assert phi.image("G1") == N4.elt("G1", coeff=i24)
    with pytest.raises(ConductorError, match="zeta_5"):
        n4_auto([[1, 0], [0, 1]], [[CycloField.get(5).zeta(1), 0], [0, 1]], N4)


def test_n4_auto_loop_rescaling():
    y = SL2MatrixOverS(FIELD, [[mono(1, HALF), 0], [0, mono(1, -HALF)]])
    phi = n4_auto(y, [[1, 0], [0, 1]], N4)
    assert phi.level == 2
    assert phi.image("L") == N4.elt("L") + N4.elt("J3", q=-1)
    assert order_of(phi, 6) is None


def test_n4_auto_grid_passes_check_hom():
    ys = [
        SL2MatrixOverS(FIELD, [[1, 0], [0, 1]]),
        SL2MatrixOverS(FIELD, [[1, mono(1, 1)], [0, 1]]),
        SL2MatrixOverS(FIELD, [[mono(1, HALF), 0], [0, mono(1, -HALF)]]),
    ]
    i = FIELD.root_of_unity(4)
    xs = [[[1, 0], [0, 1]], [[i, 0], [0, -i]], [[0, 1], [-1, 0]]]
    for y in ys:
        for x in xs:
            report = check_hom(N4, n4_auto(y, x, N4))
            assert report.homomorphism
            assert report.invertible


def test_n4_auto_rejects_bad_determinants():
    with pytest.raises(DomainError):
        n4_auto([[1, 0], [0, 1]], [[1, 1], [1, 1]], N4)
    with pytest.raises(DomainError):
        n4_auto([[2, 0], [0, 1]], [[1, 0], [0, 1]], N4)


def test_n4_auto_names_the_determinant_of_x():
    with pytest.raises(DomainError, match="matrix determinant is 2, not 1"):
        n4_auto([[1, 0], [0, 1]], [[2, 0], [0, 1]], N4)


def random_sl2(rng):
    m = SL2MatrixOverS.identity(field=FIELD)
    for _ in range(rng.randint(1, 3)):
        u = mono(rng.choice([1, 2, -1, HALF]),
                 rng.choice([0, 1, -1, HALF]))
        if rng.random() < 0.5:
            m = m * SL2MatrixOverS(FIELD, [[1, u], [0, 1]])
        else:
            m = m * SL2MatrixOverS(FIELD, [[1, 0], [u, 1]])
    return m


def random_slx(rng):
    x = [[1, 0], [0, 1]]
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(-2, 2)
        step = [[1, a], [0, 1]] if rng.random() < 0.5 else [[1, 0], [a, 1]]
        x = xmul(x, step)
    return x


def test_n4_auto_is_a_homomorphism_of_pairs():
    rng = random.Random(23)
    for _ in range(5):
        y1, y2 = random_sl2(rng), random_sl2(rng)
        x1, x2 = random_slx(rng), random_slx(rng)
        whole = n4_auto(y1 * y2, xmul(x1, x2), N4)
        parts = compose(n4_auto(y1, x1, N4), n4_auto(y2, x2, N4))
        assert whole == parts


def test_n4_auto_kernel_is_only_the_central_pair():
    rng = random.Random(31)
    ident = identity_morphism(N4)
    seen = 0
    while seen < 12:
        y, x = random_sl2(rng), random_slx(rng)
        central = all(y.entries[r][c] == (1 if r == c else 0)
                      for r in range(2) for c in range(2))
        if central and x == [[1, 0], [0, 1]]:
            continue
        seen += 1
        assert n4_auto(y, x, N4) != ident


def test_n4_inverse_roundtrip():
    rng = random.Random(41)
    for _ in range(3):
        phi = n4_auto(random_sl2(rng), random_slx(rng), N4)
        assert compose(invert(phi), phi) == identity_morphism(N4)


# -- current algebra sample family -------------------------------------------


def test_current_torus_family_stays_linear():
    curr = make_current(sl2_constants())
    field = curr.field
    for u in [LaurentElt(field, {Fraction(1): field.one()}),
              LaurentElt(field, {Fraction(2): field.rational(2)}),
              LaurentElt(field, {Fraction(1, 2): field.one()})]:
        phi = GenMorphism(curr, u.level, {
            "e": curr.elt("e").mul_laurent(u),
            "h": curr.elt("h"),
            "f": curr.elt("f").mul_laurent(u.inverse()),
        })
        report = check_hom(curr, phi)
        assert report.homomorphism
        assert report.invertible
        assert all(img.max_dpow() == 0 for img in phi.images.values())


# -- refusals ----------------------------------------------------------------


def test_a_generator_given_twice_is_refused():
    # "L" and 0 name the same generator
    images = {"L": N2.elt("L"), 0: N2.elt("L"), "J": N2.elt("J"),
              "G+": N2.elt("G+"), "G-": N2.elt("G-")}
    assert _refusal(lambda: GenMorphism(N2, 1, images)) == \
        "duplicate image for generator 0"


def test_morphisms_over_different_algebras_are_refused():
    omega = n2_omega(N2)
    assert _refusal(lambda: check_hom(N4, omega)) == \
        "morphism is not over the given algebra"
    assert _refusal(lambda: compose(omega, identity_morphism(N4))) == \
        "cannot compose morphisms over different algebras"


def test_theta_refuses_what_is_not_a_unit():
    assert _refusal(lambda: n2_theta(2)) == "theta_s takes a Laurent element"
    assert _refusal(lambda: n2_theta(mono(1, 0) + mono(1, 1))) == \
        "theta_s needs a unit monomial, got 1 + t^{1}"


def test_sl2_matrix_refusals_name_the_determinant_and_the_level():
    assert _refusal(lambda: SL2MatrixOverS(FIELD, [[1, 0], [0, 2]])) == \
        "matrix determinant is 2, not 1"
    assert _refusal(lambda: SL2MatrixOverS(FIELD, [[mono(1, 1), 0],
                                                   [0, 1]])) == \
        "matrix determinant is t^{1}, not 1"
    diagonal = [[mono(1, HALF), 0], [0, mono(1, -HALF)]]
    assert _refusal(lambda: SL2MatrixOverS(FIELD, diagonal, level=1)) == \
        "entries need level 2, which does not divide the declared 1"
    assert SL2MatrixOverS(FIELD, diagonal, level=4).level == 4
