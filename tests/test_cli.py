"""Exit codes and output of the csalg command."""

import json
from importlib import resources

import pytest

from csalg.cli import main


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
        ["pgl2-classes", "0"],
    ]
    for argv in cases:
        code, _, err = run(capsys, argv)
        assert code == 3, argv
        assert err.startswith("error:"), argv


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
