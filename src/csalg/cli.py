"""Command-line front end.

Every subcommand reads exact data and prints exact data; nothing is ever
rounded.  Output goes to stdout, diagnostics to stderr, and the exit code
tells scripts what happened: 0 success, 1 a check ran and failed, 2 the
input could not be parsed, 3 the input parsed but asked for something
outside the mathematics (wrong determinant, infinite order, bad window),
141 the reader closed stdout before the output was written.

Bare file names with no directory part fall back to the data files
shipped with the package, so `csalg check n2.csa` works from anywhere.
"""

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from importlib import resources

from .centroid import centroid_basis, is_scalar_action
from .cohomology import n4_invariant, pgl2_classes
from .core import check_axioms, lambda_bracket
from .cyclotomic import CycloField, DEFAULT_CONDUCTOR
from .dsl import SourceFile, parse_element, parse_scalar
from .errors import (CsalgError, DomainError, ParseError,
                     TableInconsistencyError)
from .loops import alg_bracket, bracket_closure, eigenspaces, l0_spectrum, \
    split_check
from .morphisms import check_hom, identity_morphism, n2_omega, order_of

_ORDER_BOUND = 48


def _color_enabled():
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _verdict(ok):
    word = "pass" if ok else "FAIL"
    if not _color_enabled():
        return word
    return "\x1b[32m%s\x1b[0m" % word if ok else "\x1b[31m%s\x1b[0m" % word


def _read_source(path):
    if os.path.exists(path):
        return SourceFile.read(path)
    if os.path.basename(path) == path:
        shipped = resources.files("csalg") / "data" / path
        if shipped.is_file():
            return SourceFile(path, shipped.read_text())
    raise ParseError("cannot read %r" % path)


def _emit(args, payload, lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)


def _resolve_auto(A, name):
    """An automorphism from its CLI spelling: id, omega, or a .csm file."""
    if name == "id":
        return identity_morphism(A)
    if name == "omega":
        return n2_omega(A)
    return _read_source(name).morphism(A)[1]


def _build_loop(args, A):
    sigma = _resolve_auto(A, args.auto)
    order = args.order
    if order is None:
        order = order_of(sigma, _ORDER_BOUND)
        if order is None:
            raise DomainError(
                "automorphism has no order up to %d; pass --order"
                % _ORDER_BOUND)
    return eigenspaces(A, sigma, order), order


# -- subcommands -------------------------------------------------------------


def cmd_check(args):
    A = _read_source(args.file).algebra()
    report = check_axioms(A)
    _emit(args, report.as_json(), report.lines(_verdict))
    return 0 if report.ok else 1


def _parse_argument(A, text, name):
    """An element argument; a ParseError names the argument."""
    try:
        return parse_element(A, text)
    except ParseError as err:
        raise err.within(name) from err


def cmd_bracket(args):
    A = _read_source(args.file).algebra()
    x = _parse_argument(A, args.a, "left element")
    y = _parse_argument(A, args.b, "right element")
    poly = lambda_bracket(A, x, y)
    if args.n is None:
        out = A.poly_string(poly)
    else:
        out = A.elt_string(poly.coeffs.get(args.n, A.zero_elt()))
    payload = {"algebra": A.name, "a": args.a, "b": args.b,
               "n": args.n, "result": out}
    _emit(args, payload, [out])
    return 0


def cmd_hom(args):
    A = _read_source(args.file).algebra()
    name, phi = _read_source(args.morphism).morphism(A)
    report = check_hom(A, phi)
    payload = dict(report.as_json(), algebra=A.name, morphism=name,
                   level=phi.level)
    _emit(args, payload, ["morphism %s on %s:" % (name, A.name)]
          + report.lines(_verdict))
    return 0 if report.ok else 1


def cmd_loop(args):
    A = _read_source(args.file).algebra()
    L, order = _build_loop(args, A)
    closed = bracket_closure(L)
    split = split_check(L, args.window)
    spectrum = l0_spectrum(L, "odd", args.window)
    fractional = sorted(spectrum.fractional_parts)

    payload = {
        "algebra": A.name,
        "auto": args.auto,
        "order": order,
        "window": str(args.window),
        "basis": {str(i): [A.elt_string(v) for v in piece]
                  for i, piece in enumerate(L.eigenbasis)},
        "closure": closed,
        "split": split.as_json(),
        "l0_odd_fractional": [str(v) for v in fractional],
    }
    lines = ["loop of %s under %s: order %d" % (A.name, args.auto, order),
             "eigenspaces:"]
    for i, piece in enumerate(L.eigenbasis):
        body = ", ".join(A.elt_string(v) for v in piece) or "(none)"
        lines.append("  residue %d/%d: %s" % (i, order, body))
    lines.append("bracket closure: %s" % _verdict(closed))
    lines.extend(split.lines())
    lines.append("odd L0 fractional parts: {%s}"
                 % ", ".join(str(v) for v in fractional))
    _emit(args, payload, lines)
    return 0 if closed and split.bijective else 1


# mu is an integer or a fraction with a nonzero denominator
_MODE = re.compile(r"(.+)\[(-?\d+(?:/0*[1-9]\d*)?)\]\Z")


def _parse_mode(L, text):
    got = _MODE.match(text)
    if not got:
        raise ParseError("bad mode %r, expected GEN[mu]" % text)
    try:
        g = L.base.gen_index(got.group(1))
    except CsalgError:
        raise ParseError("unknown generator %r" % got.group(1)) from None
    return L.mode(g, Fraction(got.group(2)))


def cmd_alg(args):
    A = _read_source(args.file).algebra()
    L, order = _build_loop(args, A)
    chunks = args.bracket.split()
    if len(chunks) != 2:
        raise ParseError("--bracket takes exactly two modes, got %r"
                         % args.bracket)
    x = _parse_mode(L, chunks[0])
    y = _parse_mode(L, chunks[1])
    out = str(alg_bracket(L, x, y))
    payload = {"algebra": A.name, "auto": args.auto, "order": order,
               "modes": chunks, "result": out}
    _emit(args, payload, [out])
    return 0


def _parse_matrix(field, text):
    rows = text.split(";")
    if len(rows) != 2 or any(len(r.split(",")) != 2 for r in rows):
        raise ParseError("expected a 2x2 matrix as 'a,b;c,d', got %r" % text)
    return [[parse_scalar(field, e) for e in row.split(",")]
            for row in rows]


def cmd_classify_n4(args):
    field = CycloField.get(args.conductor)
    mat = _parse_matrix(field, args.matrix)
    inv = n4_invariant(mat, field)
    payload = {"matrix": [[str(e) for e in row] for row in mat],
               "order": inv.order, "exponent": inv.exponent,
               "class": str(inv)}
    _emit(args, payload, ["class %s" % inv])
    return 0


def cmd_pgl2_classes(args):
    classes = pgl2_classes(args.n)
    payload = {"n": args.n, "count": len(classes),
               "classes": [str(c) for c in classes]}
    lines = ["%d classes of order dividing %d:" % (len(classes), args.n)]
    lines.extend("  %s" % c for c in classes)
    _emit(args, payload, lines)
    return 0


def cmd_centroid(args):
    A = _read_source(args.file).algebra()
    L, order = _build_loop(args, A)
    solutions = centroid_basis(L, args.window, args.interior)
    rs = [is_scalar_action(chi) for chi in solutions]
    payload = {
        "algebra": A.name,
        "auto": args.auto,
        "order": order,
        "window": str(args.window),
        "interior": str(args.interior),
        "count": len(solutions),
        "solutions": [{"scalar": r is not None,
                       "r": None if r is None else str(r)} for r in rs],
    }
    lines = ["%d centroid solutions on window %s (interior %s):"
             % (len(solutions), args.window, args.interior)]
    for r in rs:
        lines.append("  r = %s" % r if r is not None
                     else "  (not a scalar action)")
    _emit(args, payload, lines)
    return 0


# -- dispatch ----------------------------------------------------------------


def _fraction(text):
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError("zero denominator in %r" % text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid fraction value: %r" % text)


def _nonnegative_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            "must be a non-negative integer, got %d" % value)
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="csalg",
        description="Exact calculator for differential conformal "
                    "superalgebras and their twisted loop algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def subcommand(name, func, help_text):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--json", action="store_true",
                       help="machine-readable output")
        q.set_defaults(func=func)
        return q

    def loop_subcommand(name, func, help_text):
        q = subcommand(name, func, help_text)
        q.add_argument("file", help=".csa file")
        q.add_argument("--auto", required=True,
                       help="id, omega, or a .csm file")
        q.add_argument("--order", type=int, default=None,
                       help="twist order (default: computed)")
        return q

    q = subcommand("check", cmd_check, "verify the algebra axioms")
    q.add_argument("file", help=".csa file")

    q = subcommand("bracket", cmd_bracket, "lambda-bracket of two elements")
    q.add_argument("file", help=".csa file")
    q.add_argument("a", help="left element expression")
    q.add_argument("b", help="right element expression")
    q.add_argument("--n", type=_nonnegative_int, default=None,
                   help="print only the n-th product")

    q = subcommand("hom", cmd_hom, "check a morphism file")
    q.add_argument("file", help=".csa file")
    q.add_argument("morphism", help=".csm file")

    q = loop_subcommand("loop", cmd_loop, "twisted loop algebra report")
    q.add_argument("--window", type=_fraction, required=True,
                   help="exponent window for the checks")

    q = loop_subcommand("alg", cmd_alg, "bracket of two annihilation modes")
    q.add_argument("--bracket", required=True, metavar="'G[mu] H[nu]'",
                   help="the two modes to bracket")

    q = subcommand("classify-n4", cmd_classify_n4,
                   "conjugacy invariant of an SL2 twist datum")
    q.add_argument("--matrix", required=True,
                   help="2x2 matrix as 'a,b;c,d'")
    q.add_argument("--conductor", type=int, default=DEFAULT_CONDUCTOR)

    q = subcommand("pgl2-classes", cmd_pgl2_classes,
                   "finite-order conjugacy classes in PGL2")
    q.add_argument("n", type=int, help="order bound")

    q = loop_subcommand("centroid", cmd_centroid, "windowed centroid solve")
    q.add_argument("--window", type=_fraction, required=True)
    q.add_argument("--interior", type=_fraction, required=True)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ParseError, TableInconsistencyError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except DomainError as err:
        print("error: %s" % err, file=sys.stderr)
        return 3
    except BrokenPipeError:
        # The reader closed the pipe: drop the unwritten rest of stdout and
        # exit as a process killed by SIGPIPE would, with 128 + 13.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
