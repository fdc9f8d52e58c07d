"""Factories for the concrete algebras the engine ships with.

Current conformal superalgebras are built from Lie structure constants;
the two small superconformal algebras come with their standard bracket
tables, Pauli matrices stored exactly over Q(zeta_N) with i = zeta_4.
Their tables give each pair in one orientation and leave the zero pairs
out: ``complete_table_cs4`` derives the other orientation by
skew-symmetry and fills a pair given in neither with 0.  Every generator
is primary, so the L row is read off the declared weights.
"""

from __future__ import annotations

from fractions import Fraction

from .core import (EVEN, ODD, AlgebraDef, AxiomReport, ConfElt, Generator,
                   LambdaPoly, _primary, _sweep_cs4, _sweep_cs5,
                   complete_table_cs4)
from .cyclotomic import DEFAULT_CONDUCTOR, CycloField, _add_to
from .errors import ConductorError, CsalgError


class StructureConstants:
    """Structure constants of a finite-dimensional Lie superalgebra.

    ``c`` maps an index pair (i, j) to {k: scalar} with
    [v_i, v_j] = sum_k c[i][j][k] v_k.  Super-antisymmetry and the super
    Jacobi identity are verified at construction, as the axioms CS4 and CS5
    of the current algebra, by the sweeps of ``check_axioms``.  CS1-CS3,
    laws of the evaluator, are taken as held, so constants that pass CS4
    and are graded by parity take the reduced CS5 sweep first.
    """

    def __init__(self, names, parities, c, conductor=DEFAULT_CONDUCTOR):
        self.names = list(names)
        self.parities = list(parities)
        self.field = CycloField.get(conductor)
        self.dim = len(self.names)
        full = {}
        for (i, j), row in c.items():
            entry = full[(i, j)] = {}
            for k, v in row.items():
                _add_to(entry, k, self.field.scalar(v))
        self.c = full
        self._validate()

    def bracket(self, i, j):
        return self.c.get((i, j), {})

    def _validate(self):
        if len(self.parities) != self.dim:
            raise CsalgError("structure constants have %d names but %d "
                             "parities" % (self.dim, len(self.parities)))
        for k, name in enumerate(self.names):
            if name in self.names[:k]:
                raise CsalgError("duplicate name %r in structure constants"
                                 % (name,))
        for (i, j), row in self.c.items():
            for index in (i, j, *row):
                if index not in range(self.dim):
                    raise CsalgError(
                        "structure constant index %r at (%r, %r) lies outside "
                        "range(%d)" % (index, i, j, self.dim))
        current, report = make_current(self), AxiomReport(None)
        # CS1-CS3 are laws of the evaluator, not of a table; recorded as
        # held, they let CS5 take its reduced sweep when CS4 passes
        report.verdicts.update(CS1=True, CS2=True, CS3=True)
        _sweep_cs4(current, report)
        _sweep_cs5(current, report)
        for axiom, what in (("CS4", "are not super-antisymmetric"),
                            ("CS5", "fail the Jacobi identity")):
            for f in report.failures:
                if f.axiom == axiom:
                    raise CsalgError("structure constants %s at (%s)"
                                     % (what, ", ".join(map(str, f.location))))


def make_current(sc, name=None):
    """The current conformal superalgebra of a Lie superalgebra.

    Brackets are constant in lambda: [v_i lambda v_j] = [v_i, v_j].
    """
    field = sc.field
    gens = [Generator(n, p) for n, p in zip(sc.names, sc.parities)]
    table = {}
    for i in range(sc.dim):
        for j in range(sc.dim):
            row = sc.bracket(i, j)
            elt = ConfElt(field, {(k, 0, 0): v for k, v in row.items()})
            table[(i, j)] = LambdaPoly(field, {0: elt})
    return AlgebraDef(name or "Curr", field, gens, table)


#: The brackets of sl2 on e, h, f (indices 0, 1, 2): [h,e]=2e,
#: [h,f]=-2f, [e,f]=h.  ``StructureConstants`` copies what it reads.
_SL2 = {
    (0, 1): {0: -2},
    (1, 0): {0: 2},
    (1, 2): {2: -2},
    (2, 1): {2: 2},
    (0, 2): {1: 1},
    (2, 0): {1: -1},
}


def sl2_constants(conductor=DEFAULT_CONDUCTOR):
    """sl2 in the basis e, h, f: [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    return StructureConstants(["e", "h", "f"], [EVEN] * 3, _SL2,
                              conductor=conductor)


def gl2_constants(conductor=DEFAULT_CONDUCTOR):
    """gl2 = sl2 plus a central element z."""
    return StructureConstants(["e", "h", "f", "z"], [EVEN] * 4, _SL2,
                              conductor=conductor)


def _poly(field, pairs):
    """Build a LambdaPoly from {n: {(gen, dpow): coeff}} descriptions;
    ``ConfElt`` drops the zero coefficients."""
    return LambdaPoly(field, {
        n: ConfElt(field, {(g, j, 0): field.scalar(c)
                           for (g, j), c in terms.items()})
        for n, terms in pairs.items()})


def make_n2(conductor=DEFAULT_CONDUCTOR):
    """The N=2 superconformal algebra on generators L, J, G+, G-."""
    field = CycloField.get(conductor)
    gens = [
        Generator("L", EVEN, 2),
        Generator("J", EVEN, 1),
        Generator("G+", ODD, Fraction(3, 2)),
        Generator("G-", ODD, Fraction(3, 2)),
    ]
    L, J, GP, GM = 0, 1, 2, 3
    table = {(L, g): _primary(field, g, gen.weight)
             for g, gen in enumerate(gens)}
    table[(J, GP)] = _poly(field, {0: {(GP, 0): 1}})
    table[(J, GM)] = _poly(field, {0: {(GM, 0): -1}})
    table[(GP, GM)] = _poly(field, {0: {(L, 0): 1, (J, 1): Fraction(1, 2)},
                                    1: {(J, 0): 1}})
    partial = AlgebraDef("N2", field, gens, table)
    return complete_table_cs4(partial)


def _pauli(field):
    """The three Pauli matrices over Q(zeta_N), i = zeta_4."""
    i = field.root_of_unity(4)
    one = field.one()
    zero = field.zero()
    return [
        [[zero, one], [one, zero]],
        [[zero, -i], [i, zero]],
        [[one, zero], [zero, -one]],
    ]


def make_n4(conductor=DEFAULT_CONDUCTOR):
    """The N=4 superconformal algebra.

    Even part: L and the currents J1, J2, J3 with J^s = sigma^s / 2;
    odd part: two doublets G1, G2 and Gb1, Gb2.
    """
    if conductor % 4:
        raise ConductorError(
            "the N=4 table needs i = zeta_4; conductor %d is not divisible by 4"
            % conductor)
    field = CycloField.get(conductor)
    gens = [
        Generator("L", EVEN, 2),
        Generator("J1", EVEN, 1),
        Generator("J2", EVEN, 1),
        Generator("J3", EVEN, 1),
        Generator("G1", ODD, Fraction(3, 2)),
        Generator("G2", ODD, Fraction(3, 2)),
        Generator("Gb1", ODD, Fraction(3, 2)),
        Generator("Gb2", ODD, Fraction(3, 2)),
    ]
    L = 0
    J = [1, 2, 3]
    G = [4, 5]
    GB = [6, 7]
    sigma = _pauli(field)
    i_unit = field.root_of_unity(4)
    # L row: every generator is primary; the J-J diagonal and the G-G and
    # Gb-Gb pairs are zero and left to the completion
    table = {(L, g): _primary(field, g, gen.weight)
             for g, gen in enumerate(gens)}
    # current part: [J^m lambda J^n] = (1/4)[sigma^m, sigma^n] read back
    # into the J coordinates; concretely i * epsilon_{mnp} J^p, m < n
    for m, n, p, sgn in ((0, 1, 2, 1), (1, 2, 0, 1), (0, 2, 1, -1)):
        table[(J[m], J[n])] = _poly(field, {0: {(J[p], 0): i_unit * sgn}})
    # [J^s lambda G^a] = -(1/2) sum_b sigma^s_{ab} G^b
    # [J^s lambda Gb^a] = +(1/2) sum_b sigma^s_{ba} Gb^b
    for s in range(3):
        for a in range(2):
            table[(J[s], G[a])] = _poly(field, {0: {
                (G[b], 0): sigma[s][a][b] * Fraction(-1, 2)
                for b in range(2)}})
            table[(J[s], GB[a])] = _poly(field, {0: {
                (GB[b], 0): sigma[s][b][a] * Fraction(1, 2)
                for b in range(2)}})
    # odd-odd part
    for a in range(2):
        for b in range(2):
            n0 = {(L, 0): 2} if a == b else {}
            n1 = {}
            for s in range(3):
                n0[(J[s], 1)] = sigma[s][a][b] * -2
                n1[(J[s], 0)] = sigma[s][a][b] * -4
            table[(G[a], GB[b])] = _poly(field, {0: n0, 1: n1})
    partial = AlgebraDef("N4", field, gens, table)
    return complete_table_cs4(partial)
