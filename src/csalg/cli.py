"""Command-line front end.

Every subcommand reads exact data and prints exact data; nothing is ever
rounded.  Output goes to stdout, diagnostics to stderr, and the exit code
tells scripts what happened: 0 success, 1 a check ran and failed, 2 the
input could not be parsed, 3 the input parsed but asked for something
outside the mathematics (wrong determinant, infinite order, bad window).

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
from .dsl import SourceFile, parse_element, parse_morphism, _tokenize
from .errors import (CsalgError, DomainError, ParseError,
                     TableInconsistencyError)
from .loops import alg_bracket, eigenspaces, l0_spectrum, loop_membership, \
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
    src = _read_source(name)
    return parse_morphism(src.text, A)[1]


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
    payload = {
        "algebra": A.name,
        "ok": report.ok,
        "verdicts": {k: v for k, v in report.verdicts.items()},
        "counts": {k: str(v) for k, v in report.counts.items()},
        "failures": [{"axiom": f.axiom, "location": str(f.location),
                      "detail": f.detail} for f in report.failures],
    }
    lines = ["algebra %s:" % A.name]
    for axiom in sorted(report.verdicts):
        count = report.counts.get(axiom)
        lines.append("  %s: %s%s" % (axiom, _verdict(report.verdicts[axiom]),
                                     " (%s)" % count if count else ""))
    for f in report.failures[:10]:
        lines.append("    %s at %s %s" % (f.axiom, f.location, f.detail))
    _emit(args, payload, lines)
    return 0 if report.ok else 1


def cmd_bracket(args):
    A = _read_source(args.file).algebra()
    x = parse_element(A, args.a)
    y = parse_element(A, args.b)
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
    name, phi = parse_morphism(_read_source(args.morphism).text, A)
    report = check_hom(A, phi)
    payload = {
        "algebra": A.name,
        "morphism": name,
        "level": phi.level,
        "homomorphism": report.homomorphism,
        "invertible": report.invertible,
        "determinant": None if report.determinant is None
        else str(report.determinant),
        "failures": [list(pair) for pair in report.failures],
        "ok": report.ok,
    }
    lines = ["morphism %s on %s:" % (name, A.name),
             "  homomorphism: %s" % _verdict(report.homomorphism)]
    for pair in report.failures:
        lines.append("    bracket mismatch on (%s, %s)" % pair)
    if report.invertible is None:
        lines.append("  invertibility: not tested "
                     "(derivation-decorated images)")
    else:
        lines.append("  invertible: %s (matrix determinant %s)"
                     % (_verdict(report.invertible), report.determinant))
    _emit(args, payload, lines)
    return 0 if report.ok else 1


def _closure_ok(L):
    A = L.base
    m = L.order
    for i, piece in enumerate(L.eigenbasis):
        for j, other in enumerate(L.eigenbasis):
            for v in piece:
                for w in other:
                    poly = lambda_bracket(A, v.shift_t(Fraction(i, m)),
                                          w.shift_t(Fraction(j, m)))
                    for elt in poly.coeffs.values():
                        if not loop_membership(L, elt):
                            return False
    return True


def cmd_loop(args):
    A = _read_source(args.file).algebra()
    L, order = _build_loop(args, A)
    closed = _closure_ok(L)
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
        "split": {"injective": split.injective,
                  "surjective": split.surjective,
                  "missed": ["%s (x) t^{%s}" % (name, q)
                             for name, q in split.missed]},
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


_MODE = re.compile(r"(.+)\[(-?\d+(?:/\d+)?)\]\Z")


def _parse_mode(L, text):
    got = _MODE.match(text)
    if not got:
        raise ParseError("bad mode %r, expected GEN[mu]" % text)
    try:
        g = L.base.gen_index(got.group(1))
    except CsalgError:
        raise ParseError("unknown generator %r" % got.group(1)) from None
    mu = Fraction(got.group(2))
    res = L.residue_of(mu)
    if res is None:
        raise DomainError("mode %s is off the 1/%d lattice"
                          % (text, L.order))
    unit = [L.base.field.zero()] * L.base.ngens()
    unit[g] = L.base.field.one()
    if not L.piece_contains(res, unit):
        raise DomainError(
            "%s carries no t^{%s} mode in this loop" % (got.group(1), mu))
    return L.mode(g, mu)


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


def _matrix_entry(field, text):
    """One constant scalar: signed products of rationals and zeta powers."""
    toks = _tokenize(text.strip(), 1)
    total = field.zero()
    pos = 0
    if not toks:
        raise ParseError("empty matrix entry")
    while pos < len(toks):
        sign = 1
        while pos < len(toks) and toks[pos].text in "+-" \
                and toks[pos].kind == "SYM":
            if toks[pos].text == "-":
                sign = -sign
            pos += 1
        term = field.rational(sign)
        factors = 0
        while pos < len(toks):
            tok = toks[pos]
            if tok.kind == "SYM" and tok.text in "+-":
                break
            if tok.kind == "SYM" and tok.text == "*":
                pos += 1
                continue
            if tok.kind == "INT":
                num = int(tok.text)
                pos += 1
                if pos + 1 < len(toks) and toks[pos].text == "/" \
                        and toks[pos + 1].kind == "INT":
                    term = term * field.rational(
                        Fraction(num, int(toks[pos + 1].text)))
                    pos += 2
                else:
                    term = term * field.rational(num)
            elif tok.kind == "NAME" and tok.text == "zeta":
                pos += 1
                k = 1
                if pos < len(toks) and toks[pos].text == "^":
                    if pos + 1 >= len(toks) or toks[pos + 1].kind != "INT":
                        raise ParseError("zeta power needs an integer",
                                         tok.line, tok.col)
                    k = int(toks[pos + 1].text)
                    pos += 2
                term = term * field.zeta(k)
            else:
                raise ParseError("bad matrix entry %r" % text,
                                 tok.line, tok.col)
            factors += 1
        if not factors:
            raise ParseError("bad matrix entry %r" % text)
        total = total + term
    return total


def _parse_matrix(field, text):
    rows = text.split(";")
    if len(rows) != 2 or any(len(r.split(",")) != 2 for r in rows):
        raise ParseError("expected a 2x2 matrix as 'a,b;c,d', got %r" % text)
    return [[_matrix_entry(field, e) for e in row.split(",")]
            for row in rows]


def cmd_classify_n4(args):
    field = CycloField.get(args.conductor)
    mat = _parse_matrix(field, args.matrix)
    d = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    if d != field.one():
        raise DomainError("matrix determinant is %s, not 1" % d)
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
    return Fraction(text)


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

    q = subcommand("loop", cmd_loop, "twisted loop algebra report")
    q.add_argument("file", help=".csa file")
    q.add_argument("--auto", required=True,
                   help="id, omega, or a .csm file")
    q.add_argument("--order", type=int, default=None,
                   help="twist order (default: computed)")
    q.add_argument("--window", type=_fraction, required=True,
                   help="exponent window for the checks")

    q = subcommand("alg", cmd_alg, "bracket of two annihilation modes")
    q.add_argument("file", help=".csa file")
    q.add_argument("--auto", required=True,
                   help="id, omega, or a .csm file")
    q.add_argument("--order", type=int, default=None)
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

    q = subcommand("centroid", cmd_centroid, "windowed centroid solve")
    q.add_argument("file", help=".csa file")
    q.add_argument("--auto", required=True,
                   help="id, omega, or a .csm file")
    q.add_argument("--order", type=int, default=None)
    q.add_argument("--window", type=_fraction, required=True)
    q.add_argument("--interior", type=_fraction, required=True)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, TableInconsistencyError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except DomainError as err:
        print("error: %s" % err, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
