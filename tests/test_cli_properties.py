"""Property test of the csalg command: generated argument lists for the
bracket, alg, classify-n4, loop and centroid subcommands always end in a
documented exit code (0 success, 2 unreadable input, 3 outside the
mathematics) and never in an uncaught exception.

Generated inputs run the whole front end on the shipped N=2 and N=4
tables: element strings built from generator names, D-powers, scalars and
t-exponents, with some junk text mixed in; windows up to 4; interiors in
{1/2, 1, 3/2, 2}; and conductors 12, 24 and 1001.  Argparse refusals exit
through ``SystemExit(2)``, which counts as the code 2.
"""

import contextlib
import io

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from csalg.cli import main  # noqa: E402

GENERATORS = {
    "n2.csa": ("L", "J", "G+", "G-"),
    "n4.csa": ("L", "J1", "J2", "J3", "G1", "G2", "Gb1", "Gb2"),
}
SCALARS = ("", "2*", "-1*", "1/2*", "-3/2*", "zeta^6*", "(1 + zeta^6)*")
EXPONENTS = ("", " t^{1}", " t^{-1}", " t^{1/2}", " t^{-3/2}", " t^{1/3}")
MODES = ("0", "1", "-1", "1/2", "-1/2", "3/2", "1/3", "2")
WINDOWS = ("1/2", "1", "3/2", "2", "5/2", "3", "4")
INTERIORS = ("1/2", "1", "3/2", "2")
AUTOS = ("id", "omega")
ENTRIES = ("0", "1", "-1", "2", "1/2", "zeta", "zeta^3", "zeta^-3", "i",
           "zeta^4 + 1")
#: matrices of SL2 of finite order, so some cases get past the checks
MATRICES = ("1,0;0,1", "0,1;-1,0", "1,-1;1,0", "zeta^2,0;0,zeta^22")
#: stray text: parse errors, empty strings and unknown names
JUNK = st.text(alphabet="LJG+-*^/ ()t{}D0123x", max_size=8)

files = st.sampled_from(sorted(GENERATORS))


@st.composite
def elements(draw, name):
    """An element string of the algebra in ``name``, or junk."""
    if draw(st.integers(0, 5)) == 0:
        return draw(JUNK)
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        dpow = draw(st.sampled_from(("", "D ", "D D ")))
        terms.append(draw(st.sampled_from(SCALARS)) + dpow
                     + draw(st.sampled_from(GENERATORS[name]))
                     + draw(st.sampled_from(EXPONENTS)))
    return " + ".join(terms)


@st.composite
def bracket_argv(draw):
    name = draw(files)
    argv = ["bracket", name, draw(elements(name)), draw(elements(name))]
    if draw(st.booleans()):
        argv += ["--n", str(draw(st.integers(-1, 3)))]
    return argv


@st.composite
def alg_argv(draw):
    name = draw(files)
    gens = GENERATORS[name] + ("Q",)
    modes = " ".join("%s[%s]" % (draw(st.sampled_from(gens)),
                                 draw(st.sampled_from(MODES)))
                     for _ in range(draw(st.sampled_from((2, 1, 3)))))
    return ["alg", name, "--auto", draw(st.sampled_from(AUTOS)),
            "--bracket", modes]


@st.composite
def classify_argv(draw):
    rows = draw(st.one_of(
        st.sampled_from(MATRICES),
        st.builds(lambda *e: "%s,%s;%s,%s" % e,
                  *[st.sampled_from(ENTRIES)] * 4),
        JUNK))
    return ["classify-n4", "--matrix", rows, "--conductor",
            str(draw(st.sampled_from((12, 24, 1001))))]


@st.composite
def loop_argv(draw):
    return ["loop", draw(files), "--auto", draw(st.sampled_from(AUTOS)),
            "--window", draw(st.sampled_from(WINDOWS))]


@st.composite
def centroid_argv(draw):
    return ["centroid", draw(files), "--auto", draw(st.sampled_from(AUTOS)),
            "--window", draw(st.sampled_from(WINDOWS)),
            "--interior", draw(st.sampled_from(INTERIORS))]


#: one strategy per subcommand; each gets its own examples, since a drawn
#: choice among them would favour the first
COMMANDS = {"bracket": bracket_argv(), "alg": alg_argv(),
            "classify-n4": classify_argv(), "loop": loop_argv(),
            "centroid": centroid_argv()}


def _exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as stop:  # argparse refuses with exit status 2
            return stop.code


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_generated_command_ends_in_a_documented_exit_code(command):
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(COMMANDS[command])
    def check(argv):
        assert _exit_code(argv) in (0, 2, 3), argv

    check()
