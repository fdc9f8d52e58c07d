"""Text formats for algebras, morphisms, and element expressions.

Algebra files (.csa) are line oriented:

    algebra N2
    cyclotomic 24
    generator L parity=even weight=2
    generator G+ parity=odd weight=3/2
    bracket L L = D L + x*(2*L)

A bracket right-hand side is a sum of terms; each term multiplies an
optional coefficient (a rational, zeta^k, or their product), divided
powers D^(j) of the derivation and x^(n) of the bracket variable, and one
generator.  A parenthesized sum distributes over the generator to its
right, so "(D + 2*x) L" works.  Element expressions reuse the same terms
without x and allow a trailing t^{p/q}.  Morphism files (.csm) bind one
image line per generator:

    morphism omega on N2 level 1
    image L = L
    image J = -J

Parsing an algebra completes the bracket table by skew-symmetry and
validates parities, so a parsed file is ready for the rest of the engine.
Printing and parsing are mutually inverse on values, not on raw text.
"""

from fractions import Fraction
from math import comb

from .core import (AlgebraDef, ConfElt, EVEN, Generator, LambdaPoly, ODD,
                   complete_table_cs4)
from .cyclotomic import DEFAULT_CONDUCTOR, CycloField, _add_to, _q
from .errors import CsalgError, DomainError, ParseError
from .morphisms import GenMorphism

__all__ = [
    "SourceFile",
    "format_algebra",
    "format_element",
    "format_morphism",
    "parse_algebra",
    "parse_element",
    "parse_morphism",
    "parse_scalar",
]

_SYMBOLS = "*+-/^(){}=[],"

#: Largest divided power D^(j) or x^(n) a term may carry.  The bracket
#: evaluator grows faster than linearly in the power of its arguments:
#: ``csalg bracket n2.csa "D^(k) G+ t^{1/2}" "D^(k) G- t^{-1/2}"`` takes
#: about 0.3 s at this bound, 0.6 s at k = 100 and 2.6 s (181 MB) at
#: k = 200 (whole process, medians of three runs, CPython 3.11).
MAX_DIVIDED_POWER = 64

#: Largest number of generators an algebra file may declare.  The table
#: holds one entry per ordered pair and the Jacobi sweep visits one
#: ordering per multiset of three generators: ``csalg check`` on 64
#: generators without brackets takes about 0.24 s and on 150 about 1.1 s
#: (whole process, medians of three runs, CPython 3.11), and 600 of them
#: parse into 360,000 table entries (1.0 s, 120 MB).  N4 has 8.
MAX_GENERATORS = 64


class _Tok:
    __slots__ = ("kind", "text", "line", "col", "value")

    def __init__(self, kind, text, line, col, value=None):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col
        self.value = value

    def __repr__(self):
        return "<%s %r at %d:%d>" % (self.kind, self.text, self.line, self.col)


def _tokenize(text, line):
    """Tokens of one logical line: NAME, INT, and single-character SYM.

    A '+' or '-' glued to the end of a name is part of the name when the
    next character cannot start an operand, so G+ and G- lex as single
    names while L+2*J still reads as a sum.
    """
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        col = i + 1
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:
                raise ParseError("integer literal of %d digits is too long"
                                 % (j - i), line, col) from None
            toks.append(_Tok("INT", text[i:j], line, col, value))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            if j < n and text[j] in "+-":
                after = text[j + 1] if j + 1 < n else ""
                if not (after.isalnum() or after == "_"):
                    j += 1
            toks.append(_Tok("NAME", text[i:j], line, col))
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append(_Tok("SYM", ch, line, col))
            i += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    return toks


class _Mono:
    """One multiplicative term while parsing: coeff * x^(n) D^(j) gen t^q."""

    __slots__ = ("coeff", "n", "j", "gen", "q")

    def __init__(self, coeff, n=0, j=0, gen=None, q=Fraction(0)):
        self.coeff = coeff
        self.n = n
        self.j = j
        self.gen = gen
        self.q = q


class _ExprParser:
    def __init__(self, algebra, toks, line, col):
        # an empty expression has no token to point at; the caller's
        # (line, col) places it
        if not toks:
            raise ParseError("empty expression", line, col)
        self.A = algebra
        self.toks = toks
        self.pos = 0

    # -- token plumbing --------------------------------------------------

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        if t is not None:
            self.pos += 1
        return t

    def fail(self, message, tok=None):
        tok = tok or self.peek() or self.toks[-1]
        raise ParseError(message, tok.line, tok.col)

    def expect(self, text):
        t = self.take()
        if t is None or t.text != text:
            self.fail("expected %r" % text, t)
        return t

    # -- grammar ---------------------------------------------------------

    def parse_sum(self, stop=None):
        """A sum of terms, as a flat list of monomials.

        It ends before the token ``stop``; without one, only the end of
        the tokens ends it, so no input is left over.
        """
        monos = []
        sign = 1
        t = self.peek()
        if t is not None and t.text in "+-":
            sign = -1 if t.text == "-" else 1
            self.take()
        while True:
            monos.extend(self.parse_term(sign))
            t = self.peek()
            if t is None or t.text == stop:
                return monos
            if t.text not in "+-":
                self.fail("expected '+' or '-' between terms")
            sign = -1 if t.text == "-" else 1
            self.take()

    def parse_term(self, sign):
        one = self.A.field.one()
        coeff = one if sign > 0 else -one
        acc = [_Mono(coeff)]
        factors = 0
        while True:
            t = self.peek()
            if t is None or t.text in "+-" or t.text == ")":
                break
            if t.text == "*":
                if factors == 0:
                    self.fail("a term cannot start with '*'")
                self.take()
                continue
            acc = self.mul_factor(acc)
            factors += 1
        if factors == 0:
            self.fail("empty term")
        return acc

    def mul_factor(self, acc):
        t = self.take()
        if t.kind == "INT":
            num = t.value
            den = 1
            nxt = self.peek()
            if nxt is not None and nxt.text == "/":
                self.take()
                den = self.denominator()
            scalar = self.A.field.rational(Fraction(num, den))
            return [self.scaled(m, scalar) for m in acc]
        if t.text == "(":
            inner = self.parse_sum(stop=")")
            self.expect(")")
            out = []
            for m1 in acc:
                for m2 in inner:
                    out.append(self.mul_mono(m1, m2, t))
            return out
        if t.kind != "NAME":
            self.fail("unexpected %r in expression" % t.text, t)
        if t.text == "zeta":
            k = 1
            if self.peek() is not None and self.peek().text == "^":
                self.take()
                k = self.expect_int().value
            return [self.scaled(m, self.A.field.zeta(k)) for m in acc]
        if t.text == "D":
            return self.apply_power(acc, t, "j")
        if t.text == "x":
            return self.apply_power(acc, t, "n")
        if t.text == "t":
            self.expect("^")
            self.expect("{")
            q = self.brace_rational()
            self.expect("}")
            for m in acc:
                m.q += q
            return acc
        try:
            g = self.A.gen_index(t.text)
        except CsalgError:
            self.fail("unknown generator %r" % t.text, t)
        out = []
        for m in acc:
            out.append(self.mul_mono(m, _Mono(self.A.field.one(), gen=g), t))
        return out

    def apply_power(self, acc, tok, slot):
        exp = 1
        if self.peek() is not None and self.peek().text == "^":
            self.take()
            self.expect("(")
            exp = self.expect_int().value
            self.expect(")")
        return [self.mul_mono(m, _Mono(self.A.field.one(), **{slot: exp}),
                              tok)
                for m in acc]

    def expect_int(self):
        t = self.take()
        if t is None or t.kind != "INT":
            self.fail("expected an integer", t)
        return t

    def brace_rational(self):
        sign = 1
        t = self.peek()
        if t is not None and t.text == "-":
            sign = -1
            self.take()
        num = self.expect_int().value
        den = 1
        if self.peek() is not None and self.peek().text == "/":
            self.take()
            den = self.denominator()
        return Fraction(sign * num, den)

    def denominator(self):
        t = self.expect_int()
        if t.value == 0:
            self.fail("zero denominator", t)
        return t.value

    def scaled(self, m, scalar):
        m.coeff = m.coeff * scalar
        return m

    def mul_mono(self, m1, m2, tok):
        """Multiply two partial terms; decorations must precede the
        generator they act on."""
        if m2.gen is not None and m1.gen is not None:
            self.fail("two generators in one term", tok)
        if m1.gen is not None and (m2.j or m2.n):
            self.fail("decorations must precede the generator", tok)
        n = m1.n + m2.n
        j = m1.j + m2.j
        for name, power in (("D", j), ("x", n)):
            if power > MAX_DIVIDED_POWER:
                self.fail("divided power %s^(%d) exceeds the bound %d"
                          % (name, power, MAX_DIVIDED_POWER), tok)
        coeff = m1.coeff * m2.coeff
        if m1.n and m2.n:
            coeff = coeff * comb(n, m1.n)
        if m1.j and m2.j:
            coeff = coeff * comb(j, m1.j)
        return _Mono(coeff, n, j,
                     m1.gen if m1.gen is not None else m2.gen,
                     m1.q + m2.q)

    # -- entry points ----------------------------------------------------

    def finish_poly(self):
        coeffs = {}
        for m in self.parse_sum():
            if m.coeff.is_zero():
                continue
            if m.gen is None:
                self.fail("term without a generator", self.toks[-1])
            _add_to(coeffs.setdefault(m.n, {}), (m.gen, m.j, _q(m.q)),
                    m.coeff)
        field = self.A.field
        return LambdaPoly(field, {n: ConfElt(field, terms)
                                  for n, terms in coeffs.items()})


def parse_element(algebra, text):
    """Parse one element expression (no x powers, t tails allowed)."""
    toks = _tokenize(text, 1)
    poly = _ExprParser(algebra, toks, 1, 1).finish_poly()
    for n in poly.coeffs:
        if n:
            raise ParseError("x is only allowed in bracket tables",
                             1, toks[0].col)
    return poly.get(0)


def parse_scalar(field, text):
    """Parse one constant of ``field`` in the coefficient grammar.

    The text is a sum of terms built from rationals and powers of zeta, as
    in the coefficients of a .csa file, e.g. ``1/2*zeta^6 + 1/2``; a
    generator, D, x or t is an error.
    """
    toks = _tokenize(text, 1)
    for tok in toks:
        if tok.kind == "NAME" and tok.text != "zeta":
            raise ParseError("%r is not allowed in a constant" % tok.text,
                             tok.line, tok.col)
    monos = _ExprParser(AlgebraDef("", field, [], {}), toks, 1, 1).parse_sum()
    return sum((m.coeff for m in monos), field.zero())


# -- file parsing ----------------------------------------------------------


def _logical_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].rstrip()
        if body.strip():
            yield lineno, body


def _keyword_args(toks, start, allowed):
    """key=value pairs at the tail of a declaration line.

    A value runs until the next key (a name directly followed by '='), so
    rational values may span several tokens, as in weight=3/2.
    """
    out = {}
    pos = start
    while pos < len(toks):
        key = toks[pos]
        if key.kind != "NAME" or key.text not in allowed:
            raise ParseError("unknown attribute %r" % key.text,
                             key.line, key.col)
        if pos + 1 >= len(toks) or toks[pos + 1].text != "=":
            raise ParseError("expected '=' after %r" % key.text,
                             key.line, key.col)
        if key.text in out:
            raise ParseError("duplicate attribute %r" % key.text,
                             key.line, key.col)
        pos += 2
        value = []
        while pos < len(toks):
            is_key = (toks[pos].kind == "NAME" and pos + 1 < len(toks)
                      and toks[pos + 1].text == "=")
            if is_key:
                break
            value.append(toks[pos])
            pos += 1
        if not value:
            raise ParseError("missing value for %r" % key.text,
                             key.line, key.col)
        out[key.text] = value
    return out


def _rational_value(toks, what):
    text = "".join(t.text for t in toks)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("bad %s %r" % (what, text),
                         toks[0].line, toks[0].col)


def parse_algebra(text):
    """Parse a .csa source into a validated, table-complete AlgebraDef."""
    name = None
    conductor = None
    gens = []
    gen_index = {}
    bracket_lines = []
    for lineno, body in _logical_lines(text):
        toks = _tokenize(body, lineno)
        head = toks[0]
        if head.kind != "NAME":
            raise ParseError("expected a directive", head.line, head.col)
        if head.text == "algebra":
            if name is not None:
                raise ParseError("duplicate algebra line",
                                 head.line, head.col)
            if len(toks) != 2 or toks[1].kind != "NAME":
                raise ParseError("usage: algebra NAME", head.line, head.col)
            name = toks[1].text
        elif head.text == "cyclotomic":
            if conductor is not None:
                raise ParseError("duplicate cyclotomic line",
                                 head.line, head.col)
            if bracket_lines:
                raise ParseError("cyclotomic must come before brackets",
                                 head.line, head.col)
            if len(toks) != 2 or toks[1].kind != "INT":
                raise ParseError("usage: cyclotomic N", head.line, head.col)
            conductor = toks[1].value
        elif head.text == "generator":
            if len(toks) < 2 or toks[1].kind != "NAME":
                raise ParseError("usage: generator NAME parity=even|odd",
                                 head.line, head.col)
            gname = toks[1].text
            if gname in gen_index:
                raise ParseError("duplicate generator %r" % gname,
                                 toks[1].line, toks[1].col)
            attrs = _keyword_args(toks, 2, ("parity", "weight"))
            if "parity" not in attrs:
                raise ParseError("generator %r needs parity=even|odd"
                                 % gname, head.line, head.col)
            ptoks = attrs["parity"]
            ptext = ptoks[0].text if len(ptoks) == 1 else ""
            if ptext not in ("even", "odd"):
                raise ParseError("parity must be even or odd",
                                 ptoks[0].line, ptoks[0].col)
            weight = None
            if "weight" in attrs:
                weight = _rational_value(attrs["weight"], "weight")
            gen_index[gname] = len(gens)
            gens.append(Generator(gname, EVEN if ptext == "even" else ODD,
                                  weight))
            if len(gens) == MAX_GENERATORS + 1:
                past = head
        elif head.text == "bracket":
            bracket_lines.append((lineno, toks))
        else:
            raise ParseError("unknown directive %r" % head.text,
                             head.line, head.col)
    if name is None:
        raise ParseError("missing algebra line", 1, 1)
    if not gens:
        raise ParseError("no generators declared", 1, 1)
    if len(gens) > MAX_GENERATORS:
        raise ParseError("%d generators exceed the bound %d"
                         % (len(gens), MAX_GENERATORS), past.line, past.col)
    field = CycloField.get(DEFAULT_CONDUCTOR if conductor is None
                           else conductor)
    partial = AlgebraDef(name, field, gens, {})

    table = {}
    for lineno, toks in bracket_lines:
        if len(toks) < 4 or toks[3].text != "=":
            raise ParseError("usage: bracket G1 G2 = EXPR",
                             toks[0].line, toks[0].col)
        pair = []
        for tok in toks[1:3]:
            if tok.kind != "NAME" or tok.text not in gen_index:
                raise ParseError("unknown generator %r" % tok.text,
                                 tok.line, tok.col)
            pair.append(gen_index[tok.text])
        if tuple(pair) in table:
            raise ParseError("duplicate bracket for %s %s"
                             % (toks[1].text, toks[2].text),
                             toks[0].line, toks[0].col)
        poly = _ExprParser(partial, toks[4:], toks[0].line,
                           toks[0].col).finish_poly()
        want = (gens[pair[0]].parity + gens[pair[1]].parity) % 2
        for elt in poly.coeffs.values():
            for (g, _, q) in elt.terms:
                if q:
                    raise ParseError("t is not allowed in bracket tables",
                                     toks[0].line, toks[0].col)
                if gens[g].parity != want:
                    raise ParseError(
                        "parity mismatch: [%s, %s] cannot contain %s"
                        % (toks[1].text, toks[2].text, gens[g].name),
                        toks[0].line, toks[0].col)
        table[tuple(pair)] = poly
    return complete_table_cs4(AlgebraDef(name, field, gens, table))


def parse_morphism(text, algebra):
    """Parse a .csm source against its algebra; returns (name, morphism)."""
    name = None
    level = None
    images = {}
    for lineno, body in _logical_lines(text):
        toks = _tokenize(body, lineno)
        head = toks[0]
        if head.text == "morphism":
            if name is not None:
                raise ParseError("duplicate morphism line",
                                 head.line, head.col)
            words = [t.text for t in toks]
            if (len(toks) != 6 or words[2] != "on" or words[4] != "level"
                    or toks[5].kind != "INT"):
                raise ParseError("usage: morphism NAME on ALGEBRA level M",
                                 head.line, head.col)
            if words[3] != algebra.name:
                raise ParseError("morphism is for algebra %r, not %r"
                                 % (words[3], algebra.name),
                                 toks[3].line, toks[3].col)
            name = words[1]
            level = toks[5].value
            if level < 1:
                raise ParseError("level must be positive",
                                 toks[5].line, toks[5].col)
        elif head.text == "image":
            if name is None:
                raise ParseError("image before the morphism line",
                                 head.line, head.col)
            if len(toks) < 4 or toks[2].text != "=":
                raise ParseError("usage: image GEN = EXPR",
                                 head.line, head.col)
            gtok = toks[1]
            try:
                g = algebra.gen_index(gtok.text)
            except CsalgError:
                raise ParseError("unknown generator %r" % gtok.text,
                                 gtok.line, gtok.col)
            if g in images:
                raise ParseError("duplicate image for %r" % gtok.text,
                                 gtok.line, gtok.col)
            poly = _ExprParser(algebra, toks[3:], head.line,
                               head.col).finish_poly()
            for n in poly.coeffs:
                if n:
                    raise ParseError("x is not allowed in images",
                                     head.line, head.col)
            images[g] = poly.get(0)
        else:
            raise ParseError("unknown directive %r" % head.text,
                             head.line, head.col)
    if name is None:
        raise ParseError("missing morphism line", 1, 1)
    try:
        return name, GenMorphism(algebra, level, images)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


# -- printing ----------------------------------------------------------------


def format_element(algebra, x):
    return algebra.elt_string(x)


def format_algebra(A):
    """Print an algebra so that parse_algebra reproduces it exactly."""
    lines = ["algebra %s" % A.name, "cyclotomic %d" % A.field.conductor, ""]
    for g in A.generators:
        line = "generator %s parity=%s" % (g.name,
                                           "odd" if g.parity else "even")
        if g.weight is not None:
            line += " weight=%s" % g.weight
        lines.append(line)
    lines.append("")
    n = len(A.generators)
    for i in range(n):
        for j in range(i, n):
            poly = A.table.get((i, j))
            if poly is None or poly.is_zero():
                continue
            lines.append("bracket %s %s = %s"
                         % (A.generators[i].name, A.generators[j].name,
                            A.poly_string(poly)))
    lines.append("")
    return "\n".join(lines)


def format_morphism(name, f):
    A = f.algebra
    lines = ["morphism %s on %s level %d" % (name, A.name, f.level), ""]
    for i, g in enumerate(A.generators):
        lines.append("image %s = %s" % (g.name, A.elt_string(f.images[i])))
    lines.append("")
    return "\n".join(lines)


class SourceFile:
    """A text artifact plus its origin, so errors can point somewhere."""

    def __init__(self, path, text):
        self.path = path
        self.text = text

    @classmethod
    def read(cls, path):
        """The file at ``path``; one that cannot be read as UTF-8 text is a
        ParseError that names it."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls(str(path), handle.read())
        except OSError as err:
            reason = err.strerror or str(err)
        except UnicodeDecodeError as err:
            reason = "not UTF-8 text (byte %d: %s)" % (err.start, err.reason)
        raise ParseError("cannot read the file: %s" % reason, path=str(path))

    def algebra(self):
        return self._parse(parse_algebra)

    def morphism(self, algebra):
        return self._parse(parse_morphism, algebra)

    def _parse(self, parse, *args):
        """Run a parser on the text; a ParseError gains this file's path."""
        try:
            return parse(self.text, *args)
        except ParseError as err:
            raise err.within(self.path) from err
