"""Exit codes and output of the csalg command."""

import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from csalg import loops
from csalg.cli import main
from csalg.cyclotomic import CycloField
from csalg.dsl import parse_algebra, parse_scalar
from test_core import _cs5_failures_by_dense_sweep
from test_loops import NONDIAG_CASES, NONDIAG_SOURCE

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def data_text(name):
    return resources.files("csalg").joinpath("data/" + name).read_text()


def test_bracket_example(capsys):
    code, out, _ = run(capsys, ["bracket", "n2.csa", "G+", "G-", "--n", "1"])
    assert code == 0
    assert out == "J\n"


def test_bracket_full_poly(capsys):
    code, out, _ = run(capsys, ["bracket", "n2.csa", "G+", "G-"])
    assert code == 0
    assert out == "L + 1/2*D J + x*(J)\n"


def test_alg_example(capsys):
    code, out, _ = run(capsys, ["alg", "n2.csa", "--auto", "id",
                                "--bracket", "L[2] L[-1]"])
    assert code == 0
    assert out == "3*L[0]\n"


def test_pgl2_classes_example(capsys):
    code, out, _ = run(capsys, ["pgl2-classes", "2"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "2 classes of order dividing 2:"
    assert len(lines) == 3


def test_json_outputs_are_byte_stable(capsys):
    commands = [
        ["bracket", "n2.csa", "G+", "G-", "--n", "1", "--json"],
        ["alg", "n2.csa", "--auto", "id", "--bracket", "L[2] L[-1]",
         "--json"],
        ["pgl2-classes", "2", "--json"],
        ["loop", "n2.csa", "--auto", "omega", "--window", "3", "--json"],
    ]
    for argv in commands:
        code, first, _ = run(capsys, argv)
        assert code == 0
        code, second, _ = run(capsys, argv)
        assert code == 0
        assert first == second
        json.loads(first)


def test_json_bracket_payload(capsys):
    _, out, _ = run(capsys, ["bracket", "n2.csa", "G+", "G-", "--n", "1",
                             "--json"])
    payload = json.loads(out)
    assert payload["result"] == "J"
    assert payload["n"] == 1
    assert payload["algebra"] == "N2"


def test_check_passes_on_shipped_algebras(capsys):
    for name in ("n2.csa", "n4.csa"):
        code, out, _ = run(capsys, ["check", name])
        assert code == 0
        assert "FAIL" not in out
        assert "\x1b" not in out


def test_check_fails_on_broken_jacobi(capsys, tmp_path):
    bad = data_text("n2.csa").replace("bracket J G+ = G+",
                                      "bracket J G+ = 2*G+")
    path = tmp_path / "bad.csa"
    path.write_text(bad)
    code, out, _ = run(capsys, ["check", str(path)])
    assert code == 1
    assert "CS5: FAIL" in out


def test_hom_passes_on_shipped_morphism(capsys):
    code, out, _ = run(capsys, ["hom", "n2.csa", "omega.csm"])
    assert code == 0
    assert "homomorphism: pass" in out


def test_hom_fails_on_wrong_images(capsys, tmp_path):
    path = tmp_path / "bad.csm"
    path.write_text("morphism bad on N2 level 1\nimage L = L\n"
                    "image J = -J\nimage G+ = G+\nimage G- = G-\n")
    code, out, _ = run(capsys, ["hom", "n2.csa", str(path)])
    assert code == 1
    assert "homomorphism: FAIL" in out


def test_unknown_generator_in_a_morphism_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.csm"
    path.write_text("morphism bad on N2 level 1\nimage FOO = L\n")
    for argv in (["hom", "n2.csa", str(path)],
                 ["loop", "n2.csa", "--auto", str(path), "--window", "3"]):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err == ("error: %s: line 2, col 7: unknown generator 'FOO'\n"
                       % path)


def test_unknown_generator_in_an_algebra_names_its_file(capsys, tmp_path):
    # the .csa file is the bad one, next to a good .csm
    path = tmp_path / "bad.csa"
    path.write_text("algebra N2\ngenerator a parity=even\n"
                    "bracket a FOO = a\n")
    for argv in (["check", str(path)], ["hom", str(path), "omega.csm"]):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err == ("error: %s: line 3, col 11: unknown generator "
                       "'FOO'\n" % path)


def test_twist_image_off_the_generator_span_is_named(capsys, tmp_path):
    path = tmp_path / "bad.csm"
    path.write_text("morphism bad on N2 level 1\nimage L = L + D J\n"
                    "image J = J\nimage G+ = G+\nimage G- = G-\n")
    code, out, err = run(capsys, ["loop", "n2.csa", "--auto", str(path),
                                  "--order", "1", "--window", "1"])
    assert code == 3
    assert out == ""
    assert err == ("error: image of L: expected an element of the generator "
                   "span, got a term with D-power 1 and exponent 0\n")


@pytest.mark.parametrize("entry, message", NONDIAG_CASES,
                         ids=["non-diagonal", "non-rational"])
def test_loop_refuses_an_unreadable_l0_spectrum(capsys, tmp_path, entry,
                                                message):
    path = tmp_path / "nondiag.csa"
    path.write_text(NONDIAG_SOURCE.replace("LG", entry))
    code, out, err = run(capsys, ["loop", str(path), "--auto", "id",
                                  "--window", "2"])
    assert code == 3
    assert out == ""
    assert err == "error: %s\n" % message


def test_loop_report(capsys):
    code, out, _ = run(capsys, ["loop", "n2.csa", "--auto", "id",
                                "--window", "3"])
    assert code == 0
    assert "order 1" in out
    assert "odd L0 fractional parts: {1/2}" in out
    code, out, _ = run(capsys, ["loop", "n2.csa", "--auto", "omega",
                                "--window", "3"])
    assert code == 0
    assert "odd L0 fractional parts: {0, 1/2}" in out


def test_centroid_report(capsys):
    code, out, _ = run(capsys, ["centroid", "n2.csa", "--auto", "omega",
                                "--window", "3", "--interior", "1"])
    assert code == 0
    assert out.splitlines()[0].startswith("3 centroid solutions")
    assert "  r = t^{-1}" in out
    assert "  r = 1" in out
    assert "  r = t^{1}" in out


def test_classify_n4(capsys):
    code, out, _ = run(capsys, ["classify-n4", "--matrix",
                                "zeta^6,0;0,-zeta^6"])
    assert code == 0
    assert out == "class {-1, -1}\n"
    code, out, _ = run(capsys, ["classify-n4", "--matrix", "1,0;0,1"])
    assert code == 0
    assert out == "class {1, 1}\n"
    code, out, _ = run(capsys, ["classify-n4", "--matrix", "1,-1;1,0",
                                "--conductor", "12"])
    assert code == 0
    assert out == "class {zeta_3^1, zeta_3^2}\n"


def test_parse_errors_exit_2(capsys, tmp_path):
    cases = [
        ["check", "no-such-file.csa"],
        ["bracket", "n2.csa", "G+", "Q"],
        ["alg", "n2.csa", "--auto", "id", "--bracket", "L[2]"],
        ["alg", "n2.csa", "--auto", "id", "--bracket", "L(2) L(3)"],
        ["classify-n4", "--matrix", "1,0;0"],
        ["classify-n4", "--matrix", "1,0;0,oops"],
    ]
    for argv in cases:
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv

    broken = tmp_path / "broken.csa"
    broken.write_text("algebra X\ngenerator L parity=even\n"
                      "bracket L L = D L + x*(3*L)\n")
    code, _, err = run(capsys, ["check", str(broken)])
    assert code == 2
    assert "error:" in err


def test_unknown_generator_in_a_mode_exits_2(capsys):
    code, out, err = run(capsys, ["alg", "n2.csa", "--auto", "id",
                                  "--bracket", "Q[1] L[0]"])
    assert (code, out, err) == (2, "", "error: unknown generator 'Q'\n")


def test_twist_of_no_finite_order_exits_3(capsys, tmp_path):
    twice = tmp_path / "twice.csm"
    twice.write_text("morphism twice on N2 level 1\n\nimage L = L\n"
                     "image J = 2*J\nimage G+ = G+\nimage G- = G-\n")
    code, out, err = run(capsys, ["loop", "n2.csa", "--auto", str(twice),
                                  "--window", "2"])
    assert (code, out) == (3, "")
    assert err == "error: automorphism has no order up to 48; pass --order\n"


def test_bracket_of_a_generator_with_itself_can_be_zero(capsys):
    code, out, _ = run(capsys, ["bracket", "n2.csa", "J", "J"])
    assert (code, out) == (0, "0\n")


def test_bracket_parse_error_names_its_argument(capsys):
    for argv, want in [
            (["J $", "L"],
             "error: left element: line 1, col 3: unexpected character "
             "'$'\n"),
            (["L", ""], "error: right element: line 1, col 1: empty "
                        "expression\n")]:
        code, out, err = run(capsys, ["bracket", "n2.csa"] + argv)
        assert (code, out, err) == (2, "", want), argv


def test_domain_errors_exit_3(capsys):
    cases = [
        ["classify-n4", "--matrix", "2,0;0,2"],
        ["classify-n4", "--matrix", "1/2,-1/2;1,1"],
        ["alg", "n2.csa", "--auto", "omega", "--bracket", "J[0] J[1]"],
        ["alg", "n2.csa", "--auto", "id", "--bracket", "L[1/3] L[0]"],
        ["loop", "n2.csa", "--auto", "omega", "--order", "3",
         "--window", "3"],
        ["centroid", "n2.csa", "--auto", "id", "--window", "2",
         "--interior", "1"],
        ["centroid", "n2.csa", "--auto", "omega", "--window", "25",
         "--interior", "10"],
        ["pgl2-classes", "0"],
    ]
    for argv in cases:
        code, _, err = run(capsys, argv)
        assert code == 3, argv
        assert err.startswith("error:"), argv


def test_centroid_interior_error_names_both_radii(capsys):
    code, out, err = run(capsys, ["centroid", "n2.csa", "--auto", "id",
                                  "--window", "3", "--interior", "7/2"])
    assert code == 3
    assert out == ""
    assert err == ("error: interior radius 7/2 must sit inside the window 3 "
                   "(0 < interior < window)\n")


def test_loop_window_is_bounded(capsys):
    # read first: without a bound the command below runs for minutes
    bound = loops.MAX_SPECTRUM_MODES
    start = time.perf_counter()
    # odd modes of the omega loop: 200001 integers, 200000 half-integers
    code, out, err = run(capsys, ["loop", "n2.csa", "--auto", "omega",
                                  "--window", "100000"])
    assert code == 3
    assert out == ""
    assert err == ("error: window 100000 holds 400001 modes, above the "
                   "bound %d\n" % bound)
    assert time.perf_counter() - start < 10


def test_huge_windows_are_refused_by_their_bounds(capsys):
    # exponent ranges longer than sys.maxsize, which len() refuses: the
    # odd modes number 4W + 1 under omega and 4W + 2 untwisted
    from csalg.centroid import MAX_UNKNOWNS
    for auto, window, W, modes in (
            ("omega", "1e19", 10 ** 19, 4 * 10 ** 19 + 1),
            ("id", "1e30", 10 ** 30, 4 * 10 ** 30 + 2)):
        code, out, err = run(capsys, ["loop", "n2.csa", "--auto", auto,
                                      "--window", window])
        assert (code, out) == (3, "")
        assert err == ("error: window %d holds %d modes, above the bound "
                       "%d\n" % (W, modes, loops.MAX_SPECTRUM_MODES))
    code, out, err = run(capsys, ["centroid", "n2.csa", "--auto", "id",
                                  "--window", "1e400", "--interior", "1e399"])
    assert (code, out) == (3, "")
    assert err.startswith("error: window %d (interior %d) needs up to "
                          % (10 ** 400, 10 ** 399))
    assert err.endswith(" unknowns, above the bound %d\n" % MAX_UNKNOWNS)


@pytest.mark.parametrize("order", ["0", "-2"])
def test_a_twist_order_below_one_is_refused(capsys, order):
    # loop, alg and centroid build their loop through one path
    loop = ["n2.csa", "--auto", "id", "--order", order]
    for argv in (["loop"] + loop + ["--window", "3"],
                 ["alg"] + loop + ["--bracket", "L[0] L[0]"],
                 ["centroid"] + loop + ["--window", "3", "--interior", "1"]):
        assert run(capsys, argv) == \
            (3, "", "error: twist order must be positive\n"), argv


def test_twisted_modes_follow_the_lattice(capsys):
    code, _, err = run(capsys, ["alg", "n2.csa", "--auto", "omega",
                                "--bracket", "L[1] G+[1/2]"])
    assert code == 3
    assert "no t^{1/2} mode" in err
    code, out, _ = run(capsys, ["alg", "n2.csa", "--auto", "omega",
                                "--bracket", "L[1] J[1/2]"])
    assert code == 0
    assert out == "-1/2*J[1/2]\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["loop", "n2.csa"])
    assert err.value.code == 2


def test_negative_product_index_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bracket", "n2.csa", "G+", "G-", "--n", "-1"])
    assert err.value.code == 2
    assert "--n" in capsys.readouterr().err


def test_large_pgl2_class_count(capsys):
    code, out, _ = run(capsys, ["pgl2-classes", "5000"])
    assert code == 0
    assert out.splitlines()[0] == "2501 classes of order dividing 5000:"


def test_pgl2_order_bound_exits_3_before_building(capsys):
    from csalg.cohomology import MAX_PGL2_ORDER
    assert MAX_PGL2_ORDER >= 5000  # the README and the test above use 5000
    start = time.perf_counter()
    # without the bound, 10^12 would build 5 * 10^11 classes
    for n in (MAX_PGL2_ORDER + 1, 10 ** 12):
        code, out, err = run(capsys, ["pgl2-classes", str(n)])
        assert code == 3
        assert out == ""
        assert err == ("error: order bound %d is above the bound %d\n"
                       % (n, MAX_PGL2_ORDER))
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("argv", [["check", "{src}"],
                                  ["hom", "n2.csa", "{src}"]],
                         ids=["algebra", "morphism"])
def test_unreadable_source_files_exit_2(capsys, tmp_path, argv):
    bad = tmp_path / "bad.csa"
    bad.write_bytes(b"algebra X\n\xff\n")
    for src, reason in ((tmp_path, "cannot read the file: "),
                        (bad, "cannot read the file: not UTF-8 text")):
        code, out, err = run(capsys, [a.format(src=src) for a in argv])
        assert code == 2, src
        assert out == ""
        assert err.startswith("error: %s: %s" % (src, reason)), err
        assert "Traceback" not in err


def test_conductor_bound_exits_3(capsys, tmp_path):
    big = tmp_path / "big.csa"
    big.write_text(data_text("n2.csa").replace("cyclotomic 24",
                                               "cyclotomic 30030"))
    for argv, conductor in ((["check", str(big)], "30030"),
                            (["classify-n4", "--matrix", "1,0;0,1",
                              "--conductor", "5005"], "5005")):
        code, _, err = run(capsys, argv)
        assert code == 3, argv
        assert err.startswith("error:") and conductor in err, err


def test_generator_bound_exits_2(capsys, tmp_path):
    from csalg.dsl import MAX_GENERATORS
    big = tmp_path / "big.csa"
    big.write_text("algebra big\n" + "".join(
        "generator g%d parity=even\n" % i for i in range(600)))
    code, out, err = run(capsys, ["check", str(big)])
    assert code == 2
    assert out == ""
    assert err == ("error: %s: line %d, col 1: 600 generators exceed the "
                   "bound %d\n" % (big, MAX_GENERATORS + 2, MAX_GENERATORS))


# -- golden output: the exact text of each report ------------------------


def broken_jacobi(tmp_path):
    path = tmp_path / "bad.csa"
    path.write_text(data_text("n2.csa").replace("bracket J G+ = G+",
                                                "bracket J G+ = 2*G+"))
    return str(path)


def test_check_golden(capsys):
    code, out, _ = run(capsys, ["check", "n2.csa"])
    assert code == 0
    assert out == (
        "algebra N2:\n"
        "  CS0: pass (16 table entries)\n"
        "  CS1: pass (16 spot checks)\n"
        "  CS2: pass (8 spot checks)\n"
        "  CS3: pass (16 spot checks)\n"
        "  CS4: pass (16 pairs)\n"
        "  CS5: pass (64 triples)\n")


def test_check_failures_golden(capsys, tmp_path):
    code, out, _ = run(capsys, ["check", broken_jacobi(tmp_path)])
    assert code == 1
    assert out == (
        "algebra N2:\n"
        "  CS0: pass (16 table entries)\n"
        "  CS1: pass (16 spot checks)\n"
        "  CS2: pass (8 spot checks)\n"
        "  CS3: pass (16 spot checks)\n"
        "  CS4: pass (16 pairs)\n"
        "  CS5: FAIL (64 triples)\n"
        "    CS5 at ('J', 'G+', 'G-') m=0 n=0\n"
        "    CS5 at ('J', 'G+', 'G-') m=1 n=0\n"
        "    CS5 at ('J', 'G+', 'G-') m=0 n=1\n"
        "    CS5 at ('J', 'G-', 'G+') m=0 n=0\n"
        "    CS5 at ('J', 'G-', 'G+') m=0 n=1\n"
        "    CS5 at ('G+', 'J', 'G-') m=0 n=0\n"
        "    CS5 at ('G+', 'J', 'G-') m=1 n=0\n"
        "    CS5 at ('G+', 'J', 'G-') m=0 n=1\n"
        "    CS5 at ('G+', 'G+', 'G-') m=0 n=0\n"
        "    CS5 at ('G+', 'G+', 'G-') m=1 n=0\n")


def test_check_json_golden(capsys):
    code, out, _ = run(capsys, ["check", "n2.csa", "--json"])
    assert code == 0
    assert out == """{
  "algebra": "N2",
  "counts": {
    "CS0": "16 table entries",
    "CS1": "16 spot checks",
    "CS2": "8 spot checks",
    "CS3": "16 spot checks",
    "CS4": "16 pairs",
    "CS5": "64 triples"
  },
  "failures": [],
  "ok": true,
  "verdicts": {
    "CS0": true,
    "CS1": true,
    "CS2": true,
    "CS3": true,
    "CS4": true,
    "CS5": true
  }
}
"""


def test_check_json_failure_entries(capsys, tmp_path):
    code, out, _ = run(capsys, ["check", broken_jacobi(tmp_path), "--json"])
    assert code == 1
    payload = json.loads(out)
    assert not payload["ok"] and payload["verdicts"]["CS5"] is False
    assert len(payload["failures"]) == 21
    assert payload["failures"][0] == {"axiom": "CS5", "detail": "m=0 n=0",
                                      "location": "('J', 'G+', 'G-')"}


def test_hom_golden(capsys):
    code, out, _ = run(capsys, ["hom", "n2.csa", "omega.csm"])
    assert code == 0
    assert out == ("morphism omega on N2:\n"
                   "  homomorphism: pass\n"
                   "  invertible: pass (matrix determinant 1)\n")


def test_hom_json_golden(capsys):
    code, out, _ = run(capsys, ["hom", "n2.csa", "omega.csm", "--json"])
    assert code == 0
    assert out == """{
  "algebra": "N2",
  "determinant": "1",
  "failures": [],
  "homomorphism": true,
  "invertible": true,
  "level": 1,
  "morphism": "omega",
  "ok": true
}
"""


def test_hom_decorated_golden(capsys, tmp_path):
    path = tmp_path / "dec.csm"
    path.write_text("morphism dec on N2 level 1\nimage L = L + D J\n"
                    "image J = J\nimage G+ = G+\nimage G- = G-\n")
    code, out, _ = run(capsys, ["hom", "n2.csa", str(path)])
    assert code == 1
    assert out == ("morphism dec on N2:\n"
                   "  homomorphism: FAIL\n"
                   "    bracket mismatch on (L, G+)\n"
                   "    bracket mismatch on (L, G-)\n"
                   "    bracket mismatch on (G+, L)\n"
                   "    bracket mismatch on (G+, G-)\n"
                   "    bracket mismatch on (G-, L)\n"
                   "    bracket mismatch on (G-, G+)\n"
                   "  invertibility: not tested "
                   "(derivation-decorated images)\n")
    code, out, _ = run(capsys, ["hom", "n2.csa", str(path), "--json"])
    payload = json.loads(out)
    assert payload["determinant"] is None and payload["invertible"] is None
    assert payload["morphism"] == "dec" and payload["level"] == 1


def test_loop_golden(capsys):
    code, out, _ = run(capsys, ["loop", "n2.csa", "--auto", "omega",
                                "--window", "3"])
    assert code == 0
    assert out == ("loop of N2 under omega: order 2\n"
                   "eigenspaces:\n"
                   "  residue 0/2: L, G+ + G-\n"
                   "  residue 1/2: J, -G+ + G-\n"
                   "bracket closure: pass\n"
                   "multiplication map on window 3:\n"
                   "  injective: yes\n"
                   "  surjective: yes\n"
                   "odd L0 fractional parts: {0, 1/2}\n")


def test_centroid_golden(capsys):
    code, out, _ = run(capsys, ["centroid", "n2.csa", "--auto", "omega",
                                "--window", "3", "--interior", "1"])
    assert code == 0
    assert out == ("3 centroid solutions on window 3 (interior 1):\n"
                   "  r = t^{-1}\n"
                   "  r = 1\n"
                   "  r = t^{1}\n")


@pytest.mark.parametrize("name", ["n2.csa", "n4.csa"])
def test_centroid_with_one_exponent_per_coset_finds_t_inverse(capsys, name):
    # t^{-1} sends Dhat(v t^q) to Dhat(v t^{q-1}) - v t^{q-2}, one step
    # below the lowest domain exponent less maxl; the graded solve pads
    # its codomain by that step
    code, out, _ = run(capsys, ["centroid", name, "--auto", "id",
                                "--window", "3", "--interior", "1/2"])
    assert code == 0
    assert out == ("3 centroid solutions on window 3 (interior 1/2):\n"
                   "  r = t^{-1}\n"
                   "  r = 1\n"
                   "  r = t^{1}\n")


#: A twist of order 3 on N2: zeta^8 * zeta^16 = zeta^24 = 1, so [G+ lambda
#: G-] is kept, and the loop's exponents lie in (1/3)Z, on the lattice
#: (1/6)Z of the centroid solve.
ROT3_CSM = ("morphism rot3 on N2 level 1\n\nimage L = L\nimage J = J\n"
            "image G+ = zeta^8*G+\nimage G- = zeta^16*G-\n")


def test_order_three_twist_golden(capsys, tmp_path):
    path = tmp_path / "rot3.csm"
    path.write_text(ROT3_CSM)
    code, out, _ = run(capsys, ["hom", "n2.csa", str(path)])
    assert code == 0
    assert out == ("morphism rot3 on N2:\n"
                   "  homomorphism: pass\n"
                   "  invertible: pass (matrix determinant 1)\n")
    code, out, _ = run(capsys, ["centroid", "n2.csa", "--auto", str(path),
                                "--window", "3", "--interior", "1"])
    assert code == 0
    assert out == ("3 centroid solutions on window 3 (interior 1):\n"
                   "  r = t^{-1}\n"
                   "  r = 1\n"
                   "  r = t^{1}\n")


SL2_CSA = ("algebra sl2\n\ngenerator e parity=even\ngenerator h parity=even\n"
           "generator f parity=even\n\nbracket h e = 2*e\n"
           "bracket h f = -2*f\nbracket e f = h\n")


def test_centroid_of_a_current_loop_is_the_identity(capsys, tmp_path):
    # no product of a current algebra reaches a Dhat key, so none is in
    # the solved domain, and the identity on the level-0 keys is r = 1
    path = tmp_path / "sl2.csa"
    path.write_text(SL2_CSA)
    argv = ["centroid", str(path), "--auto", "id", "--window", "3",
            "--interior", "1"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == ("1 centroid solutions on window 3 (interior 1):\n"
                   "  r = 1\n")
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 0
    assert [s["scalar"] for s in json.loads(out)["solutions"]] == [True]


def test_a_centroid_solution_off_the_scalars_is_named(capsys, tmp_path):
    # gl2 = sl2 + k z with z central: no row touches z's columns, so r = 1
    # is refused and the one solution, the projection onto sl2, is no
    # scalar action
    path = tmp_path / "gl2.csa"
    path.write_text(SL2_CSA.replace("algebra sl2", "algebra gl2")
                    + "generator z parity=even\n")
    argv = ["centroid", str(path), "--auto", "id", "--window", "3",
            "--interior", "1"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == ("1 centroid solutions on window 3 (interior 1):\n"
                   "  (not a scalar action)\n")
    code, out, _ = run(capsys, argv + ["--json"])
    assert code == 0
    assert json.loads(out)["solutions"] == [{"r": None, "scalar": False}]


@pytest.mark.parametrize("argv", [
    ["centroid", "--window", "3", "--interior", "1"],
    ["loop", "--window", "3"],
    ["alg", "--bracket", "L[0] L[1]"],
], ids=["centroid", "loop", "alg"])
def test_omega_on_an_algebra_without_its_generators_exits_3(capsys, tmp_path,
                                                            argv):
    # omega names J, G+ and G-: N4 has L but no J, sl2 has neither
    path = tmp_path / "sl2.csa"
    path.write_text(SL2_CSA)
    for source, name, missing in (("n4.csa", "N4", "J"),
                                  (str(path), "sl2", "L")):
        code, out, err = run(capsys, argv[:1] + [source, "--auto", "omega"]
                             + argv[1:])
        assert (code, out) == (3, ""), source
        assert err == ("error: omega is the N=2 involution, but algebra %s "
                       "has no generator %r\n" % (name, missing))


def test_verdicts_are_coloured_on_a_terminal(capsys, monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    code, out, _ = run(capsys, ["hom", "n2.csa", "omega.csm"])
    assert code == 0
    assert "  homomorphism: \x1b[32mpass\x1b[0m\n" in out


# -- matrix entries use the coefficient grammar --------------------------


def test_matrix_entries_parse_as_constants():
    field = CycloField.get(24)
    half = field.rational(Fraction(1, 2))
    cases = [
        ("0", field.zero()),
        ("(0)", field.zero()),
        ("-zeta^6", field.rational(-1) * field.zeta(6)),
        ("2 zeta", field.rational(2) * field.zeta(1)),
        ("1/2*zeta^6 + 1/2", half * field.zeta(6) + half),
    ]
    for text, want in cases:
        assert parse_scalar(field, text) == want, text


def test_bad_matrix_entries_exit_2(capsys):
    for entry in ("w", "D", "t^{1}", "x", "L", "2 G+", "--1", ""):
        code, _, err = run(capsys, ["classify-n4",
                                    "--matrix=1,0;0,%s" % entry])
        assert code == 2, entry
        assert err.startswith("error:"), entry


def test_zero_denominators_exit_2(capsys):
    cases = [
        ["classify-n4", "--matrix", "1/0,0;0,1"],
        ["bracket", "n2.csa", "1/0*G+", "G-"],
        ["bracket", "n2.csa", "G+ t^{1/0}", "G-"],
    ]
    for argv in cases:
        code, _, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:") and "zero denominator" in err, err
    code, _, err = run(capsys, ["alg", "n2.csa", "--auto", "id",
                                "--bracket", "L[1/0] L[0]"])
    assert code == 2
    assert err.startswith("error: bad mode 'L[1/0]'"), err
    for argv in (["loop", "n2.csa", "--auto", "omega", "--window", "1/0"],
                 ["centroid", "n2.csa", "--auto", "omega", "--window", "3",
                  "--interior", "1/0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


def test_non_numeric_fraction_names_the_type_not_the_parser(capsys,
                                                           monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # usage on one line everywhere
    with pytest.raises(SystemExit) as exc:
        main(["centroid", "n2.csa", "--auto", "omega", "--window", "3",
              "--interior", "abc"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage: csalg centroid [-h] [--json] --auto AUTO [--order ORDER] "
        "--window WINDOW --interior INTERIOR file\n"
        "csalg centroid: error: argument --interior: "
        "invalid fraction value: 'abc'\n")


def test_non_numeric_int_names_the_type_not_the_parser(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # usage on one line everywhere
    with pytest.raises(SystemExit) as exc:
        main(["bracket", "n2.csa", "G+", "G-", "--n", "abc"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage: csalg bracket [-h] [--json] [--n N] file a b\n"
        "csalg bracket: error: argument --n: invalid int value: 'abc'\n")


def test_mode_errors_name_the_mode(capsys):
    code, _, err = run(capsys, ["alg", "n2.csa", "--auto", "id",
                                "--bracket", "L[1/3] L[0]"])
    assert code == 3
    assert "L[1/3]" in err and "(1/1)Z" in err
    code, _, err = run(capsys, ["alg", "n2.csa", "--auto", "omega",
                                "--bracket", "J[0] J[1]"])
    assert code == 3
    assert "J[0]" in err and "no t^{0} mode" in err


def test_twist_order_is_bounded_by_the_conductor(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, ["loop", "n2.csa", "--auto", "omega",
                                "--order", "1000000", "--window", "3"])
    assert code == 3
    assert "conductor 24" in err
    assert time.perf_counter() - start < 2


# -- the process boundary ------------------------------------------------


def csalg_process(argv, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.Popen([sys.executable, "-m", "csalg.cli"] + argv,
                            env=env, **kwargs)


def test_closed_pipe_ends_quietly():
    proc = csalg_process(["pgl2-classes", "5000"], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_non_utf8_source_exits_2_across_the_process_boundary(tmp_path):
    (tmp_path / "bad.csa").write_bytes(b"algebra X\n\xff\n")
    proc = csalg_process(["check", "bad.csa"], cwd=tmp_path,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert out == b""
    assert err == (b"error: bad.csa: cannot read the file: not UTF-8 text "
                   b"(byte 10: invalid start byte)\n")


def test_superscript_digit_exits_2_across_the_process_boundary():
    # '2\u00b2' is no integer literal: the superscript is refused at its own
    # column, not read as a literal that int() cannot take
    proc = csalg_process(["bracket", "n2.csa", "L", "2\u00b2*J"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert out == b""
    assert err.decode("utf-8") == ("error: right element: line 1, col 2: "
                                   "unexpected character '\u00b2'\n")


def test_check_prints_the_first_jacobi_failures_in_the_oracle_order(
        tmp_path):
    # N4 with [J1 lambda J2] = -i J3, i = zeta^6, fails CS5 on many cells;
    # the report prints the first ten failures, and they are those of the
    # dense sweep, which visits the triples in order and each n-major
    text = data_text("n4.csa")
    flipped = text.replace("bracket J1 J2 = zeta^6*J3",
                           "bracket J1 J2 = -zeta^6*J3")
    assert flipped != text
    (tmp_path / "n4flip.csa").write_text(flipped)
    proc = csalg_process(["check", "n4flip.csa"], cwd=tmp_path,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 1 and err == b""
    lines = out.decode().splitlines()
    assert lines[4:7] == ["  CS3: pass (16 spot checks)",
                          "  CS4: pass (64 pairs)",
                          "  CS5: FAIL (512 triples)"]
    want = _cs5_failures_by_dense_sweep(parse_algebra(flipped))
    assert len(want) == 88
    assert lines[7:] == ["    CS5 at %s %s" % failure
                         for failure in want[:10]]
    assert lines[7] == "    CS5 at ('J1', 'J2', 'G1') m=0 n=0"
    # (J1, G1, J2) is no ordering a <= b <= c of its multiset: the sweep
    # that asks one ordering per multiset met a failure, and the full
    # ordered sweep reported
    assert "    CS5 at ('J1', 'G1', 'J2') m=0 n=0" in lines
    proc = csalg_process(["check", "n4flip.csa", "--json"], cwd=tmp_path,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 1 and err == b""
    assert json.loads(out)["failures"] == [
        {"axiom": "CS5", "location": str(location), "detail": detail}
        for location, detail in want]


def readme_commands():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [shlex.split(line, comments=True)
            for line in block.splitlines() if line.startswith("csalg ")]


def test_readme_commands_run(capsys):
    commands = readme_commands()
    assert len(commands) >= 9
    for argv in commands:
        code, out, err = run(capsys, argv[1:])
        assert code == 0, argv
        assert out and not err, argv
