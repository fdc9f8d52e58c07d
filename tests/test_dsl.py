"""Parsing and printing of .csa / .csm sources."""

import random
import sys
from fractions import Fraction
from importlib import resources

import pytest

from csalg.algebras import make_n2, make_n4
from csalg.core import (AlgebraDef, ConfElt, EVEN, Generator, LambdaPoly,
                        ODD, complete_table_cs4)
from csalg.cyclotomic import CycloField
from csalg.errors import (CsalgError, DomainError, ParseError,
                          TableInconsistencyError)
from csalg import dsl
from csalg.dsl import (MAX_DIVIDED_POWER, SourceFile, format_algebra,
                       format_element, format_morphism, parse_algebra,
                       parse_element, parse_morphism)
from csalg.laurent import LaurentElt
from csalg.morphisms import n2_omega, n2_theta

N2 = make_n2()


def data_text(name):
    return resources.files("csalg").joinpath("data/" + name).read_text()


N2_SOURCE = data_text("n2.csa")


def test_shipped_n2_equals_builtin():
    assert parse_algebra(N2_SOURCE) == N2


def test_shipped_n4_equals_builtin():
    assert parse_algebra(data_text("n4.csa")) == make_n4()


def test_builtin_print_parse_round_trip():
    for A in (N2, make_n4()):
        assert parse_algebra(format_algebra(A)) == A


def test_factored_bracket_form():
    text = N2_SOURCE.replace("bracket L L = D L + x*(2*L)",
                             "bracket L L = (D + 2*x) L")
    assert parse_algebra(text) == N2


def test_flat_lambda_term_form():
    text = N2_SOURCE.replace("bracket L J = D J + x*(J)",
                             "bracket L J = D J + x J")
    assert parse_algebra(text) == N2


def test_unknown_generator_points_at_the_token():
    text = "algebra X\ngenerator L parity=even\nbracket L Q = L\n"
    with pytest.raises(ParseError) as err:
        parse_algebra(text)
    assert err.value.line == 3
    assert err.value.col == 11
    assert "Q" in str(err.value)


def test_parity_mismatch_is_rejected():
    text = N2_SOURCE.replace("bracket J G+ = G+", "bracket J G+ = J")
    with pytest.raises(ParseError, match="parity"):
        parse_algebra(text)


def test_t_tails_are_rejected_in_tables():
    text = N2_SOURCE.replace("bracket J G+ = G+", "bracket J G+ = G+ t^{1}")
    with pytest.raises(ParseError, match="bracket tables"):
        parse_algebra(text)


def test_inconsistent_orientations_are_rejected():
    text = N2_SOURCE + "bracket G+ J = G+\n"
    with pytest.raises(TableInconsistencyError):
        parse_algebra(text)


def test_a_zero_bracket_line_is_the_bracket_left_out():
    # N2 has [J lambda J] = 0 and n2.csa leaves the pair out
    assert "bracket J J" not in N2_SOURCE
    assert parse_algebra(N2_SOURCE + "bracket J J = 0\n") == N2


def test_duplicate_bracket_is_rejected():
    text = N2_SOURCE + "bracket J G+ = G+\n"
    with pytest.raises(ParseError, match="duplicate"):
        parse_algebra(text)


# -- element expressions -----------------------------------------------------


def test_element_expressions():
    zeta = N2.field.zeta(3)
    half = Fraction(1, 2)
    cases = [
        ("G+", N2.elt("G+")),
        ("-J", -N2.elt("J")),
        ("D^(2) L t^{-1}", N2.elt("L", dpow=2, q=-1)),
        ("2*zeta^3*G+ t^{1/2}", N2.elt("G+", q=half).scale(zeta + zeta)),
        ("L + 1/2*D J", N2.elt("L") + N2.elt("J", dpow=1, coeff=half)),
        ("0", N2.zero_elt()),
        ("(0)", N2.zero_elt()),
        ("0*L", N2.zero_elt()),
        ("(0) L", N2.zero_elt()),
        ("L + 0", N2.elt("L")),
    ]
    for text, want in cases:
        assert parse_element(N2, text) == want, text


def test_element_print_parse_round_trip():
    x = (N2.elt("L", q=2) + N2.elt("J", dpow=3, q=-1, coeff=Fraction(-2, 3))
         + N2.elt("G-", coeff=N2.field.zeta(5)))
    assert parse_element(N2, format_element(N2, x)) == x


def test_element_rejects_lambda_powers():
    with pytest.raises(ParseError, match="bracket tables"):
        parse_element(N2, "x L")


def test_zero_denominators_are_parse_errors():
    for text in ("1/0*G+", "G+ t^{1/0}", "G+ t^{-3/00}"):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_element(N2, text)


def test_overlong_integer_literals_are_parse_errors():
    big = "9" * 5000
    with pytest.raises(ParseError, match="5000 digits"):
        parse_element(N2, big + " L")
    with pytest.raises(ParseError, match="5000 digits") as err:
        parse_algebra("algebra X\ncyclotomic %s\n"
                      "generator L parity=even\n" % big)
    assert err.value.line == 2


def test_divided_powers_are_bounded():
    assert MAX_DIVIDED_POWER == 64
    top = parse_element(N2, "D^(64) L t^{1/2}")
    assert top == N2.elt("L", dpow=64, q=Fraction(1, 2))
    # D D^(64) combines to 65 D^(65), one past the bound
    for text in ("D^(65) L", "D D^(64) L", "D^(40) (D^(40) G+)",
                 "D^(" + "9" * 40 + ") L"):
        with pytest.raises(ParseError, match=r"D\^\(\d+\) exceeds the bound 64"):
            parse_element(N2, text)
    with pytest.raises(ParseError, match=r"x\^\(65\) exceeds the bound 64"):
        parse_algebra(N2_SOURCE.replace("bracket L L = ",
                                        "bracket L L = x^(65)*(L) + "))


def _generators_source(count):
    return "algebra big\n" + "".join("generator g%d parity=even\n" % i
                                     for i in range(count))


def test_generator_count_bound_is_inclusive(monkeypatch):
    assert dsl.MAX_GENERATORS == 64
    monkeypatch.setattr(dsl, "MAX_GENERATORS", 3)
    assert parse_algebra(_generators_source(3)).ngens() == 3
    # refused before the table is completed, at the first generator past
    # the bound (line 5 of the source)
    monkeypatch.setattr(dsl, "complete_table_cs4", None)
    with pytest.raises(ParseError,
                       match=r"^line 5, col 1: 4 generators exceed the bound 3$"):
        parse_algebra(_generators_source(4))
    with pytest.raises(ParseError, match=r"^big\.csa: line 5, col 1: "
                       r"600 generators exceed the bound 3$"):
        SourceFile("big.csa", _generators_source(600)).algebra()


def test_element_rejects_two_generators():
    with pytest.raises(ParseError, match="two generators"):
        parse_element(N2, "L J")


def test_element_rejects_bare_decorations():
    with pytest.raises(ParseError, match="without a generator"):
        parse_element(N2, "D")


def test_element_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_element(N2, "L )")


@pytest.mark.parametrize("text, printed", [
    ("D D L", "2*D^(2) L"),
    ("D^(2) D^(3) L", "10*D^(5) L"),
])
def test_divided_powers_multiply_by_a_binomial(text, printed):
    # D^(a) D^(b) = C(a+b, a) D^(a+b)
    assert format_element(N2, parse_element(N2, text)) == printed


def test_lambda_divided_powers_multiply_by_a_binomial():
    A = parse_algebra("algebra X\ngenerator a parity=even\n"
                      "generator b parity=even\nbracket a b = x x a\n")
    # x x = C(2, 1) x^(2)
    assert A.table[(0, 1)] == LambdaPoly(A.field, {2: A.elt("a").scale(2)})


# -- refusals: one minimal source per ParseError site -------------------------


_ALG = "algebra X\ngenerator a parity=even\n"
_MOR = "morphism f on N2 level 1\n"


@pytest.mark.parametrize("parser, text, reason, line, col", [
    # expressions
    ("element", "L $ J", "unexpected character '$'", 1, 3),
    ("element", "L D", "decorations must precede the generator", 1, 3),
    ("element", "* L", "a term cannot start with '*'", 1, 1),
    ("element", "L = J", "unexpected '=' in expression", 1, 3),
    ("element", "zeta^L L", "expected an integer", 1, 6),
    ("element", "L t^2", "expected '{'", 1, 5),
    ("element", "", "empty expression", 1, 1),
    # key=value attributes
    ("algebra", "algebra X\ngenerator a parity=even foo=1\n",
     "unknown attribute 'foo'", 2, 25),
    ("algebra", "algebra X\ngenerator a parity\n",
     "expected '=' after 'parity'", 2, 13),
    ("algebra", "algebra X\ngenerator a parity=even weight=1 weight=2\n",
     "duplicate attribute 'weight'", 2, 34),
    ("algebra", "algebra X\ngenerator a parity= weight=1\n",
     "missing value for 'parity'", 2, 13),
    ("algebra", "algebra X\ngenerator a parity=even weight=1/0\n",
     "bad weight '1/0'", 2, 32),
    # algebra directives
    ("algebra", "algebra X\n= a\n", "expected a directive", 2, 1),
    ("algebra", "algebra X\nalgebra Y\n", "duplicate algebra line", 2, 1),
    ("algebra", "algebra\n", "usage: algebra NAME", 1, 1),
    ("algebra", "algebra X\ncyclotomic 24\ncyclotomic 12\n",
     "duplicate cyclotomic line", 3, 1),
    ("algebra", _ALG + "bracket a a = a\ncyclotomic 24\n",
     "cyclotomic must come before brackets", 4, 1),
    ("algebra", "algebra X\ncyclotomic N\n", "usage: cyclotomic N", 2, 1),
    ("algebra", "algebra X\ngenerator\n",
     "usage: generator NAME parity=even|odd", 2, 1),
    ("algebra", _ALG + "generator a parity=odd\n",
     "duplicate generator 'a'", 3, 11),
    ("algebra", "algebra X\ngenerator a weight=1\n",
     "generator 'a' needs parity=even|odd", 2, 1),
    ("algebra", "algebra X\ngenerator a parity=both\n",
     "parity must be even or odd", 2, 20),
    ("algebra", _ALG + "relation a a\n", "unknown directive 'relation'", 3, 1),
    ("algebra", "generator a parity=even\n", "missing algebra line", 1, 1),
    ("algebra", "algebra X\n", "no generators declared", 1, 1),
    ("algebra", _ALG + "bracket a a a\n", "usage: bracket G1 G2 = EXPR", 3, 1),
    # an empty right-hand side is placed at its line's bracket token
    ("algebra", _ALG + "bracket a a =\n", "empty expression", 3, 1),
    # morphism directives
    ("morphism", _MOR + _MOR, "duplicate morphism line", 2, 1),
    ("morphism", "morphism f on N2\n",
     "usage: morphism NAME on ALGEBRA level M", 1, 1),
    ("morphism", "morphism f on N2 level 0\n",
     "level must be positive", 1, 24),
    ("morphism", "image L = L\n", "image before the morphism line", 1, 1),
    ("morphism", _MOR + "image L L\n", "usage: image GEN = EXPR", 2, 1),
    ("morphism", _MOR + "image L = L\nimage L = L\n",
     "duplicate image for 'L'", 3, 7),
    ("morphism", _MOR + "image L = x L\n", "x is not allowed in images", 2, 1),
    ("morphism", _MOR + "map L = L\n", "unknown directive 'map'", 2, 1),
    ("morphism", "# no directive\n", "missing morphism line", 1, 1),
])
def test_malformed_sources_are_refused_at_their_token(parser, text, reason,
                                                      line, col):
    parse = {"element": lambda: parse_element(N2, text),
             "algebra": lambda: parse_algebra(text),
             "morphism": lambda: parse_morphism(text, N2)}[parser]
    with pytest.raises(ParseError) as err:
        parse()
    assert (err.value.reason, err.value.line, err.value.col) == \
        (reason, line, col)


#: The code points that are digits but not decimal digits: superscripts,
#: circled digits and the like, which int() does not read.
NOT_DECIMAL = [chr(c) for c in range(sys.maxunicode + 1)
               if chr(c).isdigit() and not chr(c).isdecimal()]


def test_digits_that_are_not_decimal_are_unexpected_characters():
    # an integer literal is a run of decimal digits, the set int() reads;
    # any other digit is refused at its own column, as '1/2' written as
    # one character is
    assert len(NOT_DECIMAL) >= 128
    assert {"\u00b2", "\u00b3", "\u2460"} <= set(NOT_DECIMAL)
    for ch in NOT_DECIMAL + ["\u00bd"]:
        for text, col in ((ch + "*J", 1), ("2" + ch + "*J", 2),
                          ("L + 12" + ch, 7)):
            with pytest.raises(ParseError) as err:
                parse_element(N2, text)
            assert (err.value.reason, err.value.line, err.value.col) == \
                ("unexpected character %r" % ch, 1, col), text


# -- morphism files ----------------------------------------------------------


def test_shipped_omega_morphism():
    name, f = parse_morphism(data_text("omega.csm"), N2)
    assert name == "omega"
    assert f == n2_omega(N2)


def test_theta_morphism_with_tails():
    text = ("morphism tw on N2 level 1\n"
            "image L = L + J t^{-1}\n"
            "image J = J\n"
            "image G+ = G+ t^{1}\n"
            "image G- = G- t^{-1}\n")
    _, f = parse_morphism(text, N2)
    t = LaurentElt(N2.field, {Fraction(1): N2.field.one()})
    assert f == n2_theta(t, N2)


def test_morphism_print_parse_round_trip():
    t_half = LaurentElt(N2.field, {Fraction(1, 2): N2.field.one()})
    f = n2_theta(t_half, N2)
    name, back = parse_morphism(format_morphism("half", f), N2)
    assert name == "half"
    assert back == f
    assert back.level == f.level


def test_morphism_image_of_an_unknown_generator_points_at_the_token():
    text = "morphism bad on N2 level 1\nimage FOO = L\n"
    with pytest.raises(ParseError) as err:
        parse_morphism(text, N2)
    assert (err.value.line, err.value.col) == (2, 7)
    assert str(err.value) == "line 2, col 7: unknown generator 'FOO'"


def test_morphism_for_another_algebra_is_rejected():
    text = "morphism f on N9 level 1\nimage L = L\n"
    with pytest.raises(ParseError, match="N9"):
        parse_morphism(text, N2)


def test_morphism_with_missing_images_is_rejected():
    text = "morphism f on N2 level 1\nimage L = L\n"
    with pytest.raises(ParseError, match="missing images"):
        parse_morphism(text, N2)


def test_morphism_with_wrong_parity_image_is_rejected():
    text = ("morphism f on N2 level 1\nimage L = G+\nimage J = J\n"
            "image G+ = G+\nimage G- = G-\n")
    with pytest.raises(ParseError, match="parity"):
        parse_morphism(text, N2)


def test_source_file_dispatch(tmp_path):
    path = tmp_path / "n2.csa"
    path.write_text(N2_SOURCE)
    src = SourceFile.read(path)
    assert src.algebra() == N2
    assert src.algebra() == src.algebra()


def test_unreadable_source_files_are_parse_errors(tmp_path):
    bad = tmp_path / "bad.csa"
    bad.write_bytes(b"algebra X\n\xff\n")
    for path, reason in ((tmp_path, "cannot read the file: "),
                         (bad, "not UTF-8 text (byte 10: invalid start "
                               "byte)")):
        with pytest.raises(ParseError) as info:
            SourceFile.read(path)
        assert info.value.path == str(path)
        assert str(info.value).startswith("%s: cannot read the file: "
                                          % path)
        assert reason in str(info.value)


def test_source_file_error_names_the_file_and_keeps_its_cause():
    text = ("morphism f on N2 level 1\nimage L = G+\nimage J = J\n"
            "image G+ = G+\nimage G- = G-\n")
    with pytest.raises(ParseError, match="parity") as info:
        SourceFile("bad.csm", text).morphism(N2)
    assert str(info.value).startswith("bad.csm: ")
    assert isinstance(info.value.__cause__.__cause__, DomainError)


# -- randomized round trips ----------------------------------------------


NAME_POOL = ["A", "B", "C+", "C-", "E", "F2", "H", "Kb", "M", "P+"]


def random_algebra(rng, tag):
    conductor = rng.choice([8, 12, 24])
    field = CycloField.get(conductor)
    count = rng.randint(1, 4)
    names = rng.sample(NAME_POOL, count)
    gens = []
    for name in names:
        weight = None
        if rng.random() < 0.5:
            weight = Fraction(rng.randint(0, 6), rng.choice([1, 1, 2]))
        gens.append(Generator(name, rng.choice([EVEN, ODD]), weight))

    def random_scalar():
        c = field.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if rng.random() < 0.4:
            c = c * field.zeta(rng.randrange(conductor))
        return c

    table = {}
    for i in range(count):
        for j in range(i + 1, count):
            if rng.random() < 0.3:
                continue
            want = (gens[i].parity + gens[j].parity) % 2
            allowed = [g for g in range(count) if gens[g].parity == want]
            if not allowed:
                continue
            coeffs = {}
            for n in range(rng.randint(1, 3)):
                terms = {}
                for _ in range(rng.randint(1, 2)):
                    key = (rng.choice(allowed), rng.randint(0, 2),
                           Fraction(0))
                    c = random_scalar()
                    got = terms.get(key)
                    terms[key] = c if got is None else got + c
                elt = ConfElt(field, terms)
                if not elt.is_zero():
                    coeffs[n] = elt
            if coeffs:
                table[(i, j)] = LambdaPoly(field, coeffs)
    return complete_table_cs4(
        AlgebraDef("R%d" % tag, field, gens, table))


def test_random_algebra_round_trips():
    rng = random.Random(1518)
    for tag in range(100):
        A = random_algebra(rng, tag)
        text = format_algebra(A)
        assert parse_algebra(text) == A, "round trip %d failed" % tag
