"""Small exact linear algebra helpers.

All elimination over a field goes through one sparse exact eliminator,
the solved-form echelon below: rows are dicts {column: scalar} of exact
scalars, and each pivot is kept solved for its least column and free of
every other pivot column.  The eliminator holds one representation of a
scalar: a rational under the ``_q`` rule (an int when integral, else a
Fraction), and a CycloScalar only when it is irrational.  A product or a
normalized entry that comes out as a rational CycloScalar is lowered
(``_lower``) before it is stored, and an int pivot row is normalized by
exact division wherever its lead divides the entry, so the pivots of
integral rows stay integral.  The windowed centroid solve drives the
eliminator directly on such rows.  ``rank``, ``null_space`` and ``solve``
are dense adapters over it: they take CycloScalar entries of one field,
lower them on the way in, and lift what they return with ``zero + v``, so
their results are CycloScalars of that field.
Determinants and adjugates are also provided over the Laurent ring, where
division is not available, via minor expansion; the n^2 cofactors of an
adjugate share one memo of minors.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclotomic import CycloScalar, _add_to, _lower, _q
from .errors import DomainError


# Pivot rows are kept solved for their lead column and fully reduced:
# pivots[lead] = {u: m_u} stands for x_lead = sum_u m_u x_u, every u greater
# than lead and none of them a pivot column.  Eliminating a lead with
# coefficient coef then adds coef * m_u, a row reduces in one pass over its
# entries, and a null vector reads the m_u off directly, with no negation on
# any path.  Normalizing a new pivot by an int lead divides each int entry
# exactly when the lead divides it (95% of such ratios on the centroid
# solves), and builds Fraction(-1, lead) only for an entry it does not
# divide.  users[u] is a superset of the leads whose row mentions u (an
# entry that cancels leaves its lead behind), so a new pivot is substituted
# into those rows alone.  A column leaves users only when it becomes a lead,
# and one that cancels in a reduced row came from a pivot row listed under
# it, so the columns the inserted rows mention are exactly the leads and the
# keys of users.  pins lists the leads an insert leaves with an empty row,
# x_lead = 0: the new lead when its row reduces to it alone, and every lead
# whose row a substitution empties.  A caller that builds its rows as it
# goes drains it to leave those unknowns out of later rows; ``rank``,
# ``null_space`` and ``solve`` ignore it.  Callers read the solved form
# only through ``_null_basis``, ``_in_null_span`` and ``_pivot_vector``.
#
# The rows of the centroid solve average two entries, so the eliminator's
# cost is its per-entry overhead.  ``_reduce_against`` adds an int product,
# or an int entry of the row that meets an empty or int slot, in place, and
# so does the substitution of a new pivot into the rows that mention its
# lead: an int sum needs neither the ``_q`` rule nor an ``is_zero`` call,
# and one that cancels drops its key.  Every other sum goes through
# ``_add_to``.
#
# A row whose unknowns are all pivots with one-term rows x_u = m_u x_f on
# one free column f, and whose c_u m_u cancel, would reduce to nothing, so
# ``_echelon_insert`` returns None for it before any reduction: 4,154 of
# the 7,136 nonempty rows of the four perfbench centroid solves, out of the
# 4,238 that add no pivot.  A row that cancels on several free columns
# takes the full reduction.


class Echelon(dict):
    """Solved-form pivots {lead: row}, with the index ``users`` and the
    record ``pins``."""

    def __init__(self):
        super().__init__()
        self.users = {}  # column -> leads whose row may mention it
        self.pins = []  # leads pinned to 0 since the caller last drained it


def _product(c, f):
    """c * f in the one representation: an int, a non-integral Fraction or
    an irrational CycloScalar."""
    p = c * f
    return _lower(p) if p.__class__ is CycloScalar else _q(p)


def _reduce_against(pivots, vec):
    """Eliminate every pivot column from vec, into a new dict.

    Returns the reduced vector and its least column (None when it vanished).
    """
    out = {}
    get = out.get
    for col, coef in vec.items():
        piv = pivots.get(col)
        if piv is None:
            if coef.__class__ is int and col not in out:
                if coef:
                    out[col] = coef
            else:
                _add_to(out, col, coef)
            continue
        for u, m in piv.items():
            p = coef * m
            if p.__class__ is int:
                # an int sum in place; a sum that cancels leaves no key
                s = get(u, 0)
                if s.__class__ is int:
                    s += p
                    if s:
                        out[u] = s
                    else:
                        out.pop(u, None)
                    continue
            elif p.__class__ is CycloScalar:
                p = _lower(p)
            _add_to(out, u, p)
    return out, (min(out) if out else None)


def _echelon_insert(pivots, row):
    """Insert a sparse row into an ``Echelon``; pivot on the least column.

    The new pivot is substituted into every pivot that mentions its lead,
    so the set stays fully reduced.  Every lead left with an empty row is
    appended to ``pivots.pins``.
    """
    # a row implied by one-term pivots on one free column (see above)
    free = None
    for u, c in row.items():
        piv = pivots.get(u)
        if piv is None or len(piv) != 1:
            break
        ((f, m),) = piv.items()
        if free is None:
            free, total = f, c * m
        elif f == free:
            total += c * m
        else:
            break
    else:
        if free is not None and not total:
            return None
    new, lead = _reduce_against(pivots, row)
    if lead is not None:
        coef = new.pop(lead)
        ninv = None
        if coef.__class__ is int:
            for u, c in new.items():
                if c.__class__ is int and not c % coef:
                    new[u] = -c // coef
                else:
                    if ninv is None:
                        ninv = Fraction(-1, coef)
                    new[u] = _product(c, ninv)
        elif new:
            if coef.__class__ is CycloScalar:
                ninv = -coef.inverse()
            else:
                ninv = _q(Fraction(-1, coef))
            for u, c in new.items():
                new[u] = _product(c, ninv)
        users = pivots.users
        for other in users.pop(lead, ()):
            piv = pivots[other]
            c = piv.pop(lead, None)
            if c is not None:
                for u, m in new.items():
                    p = c * m
                    s = piv.get(u, 0)
                    if p.__class__ is int and s.__class__ is int:
                        # an int sum in place; one that cancels leaves no key
                        s += p
                        if s:
                            piv[u] = s
                        else:
                            piv.pop(u, None)
                    else:
                        if p.__class__ is CycloScalar:
                            p = _lower(p)
                        _add_to(piv, u, p)
                    user = users.get(u)
                    if user is None:
                        users[u] = {other}
                    else:
                        user.add(other)
                if not piv:
                    pivots.pins.append(other)
        for u in new:
            user = users.get(u)
            if user is None:
                users[u] = {lead}
            else:
                user.add(lead)
        if not new:
            pivots.pins.append(lead)
        pivots[lead] = new
    return lead


def _null_basis(pivots, columns):
    """{f: null vector} in increasing free column f: x_f = 1, the other
    free columns 0."""
    basis = {}
    for f in sorted(u for u in columns if u not in pivots):
        vec = basis[f] = {f: 1}
        for u, row in pivots.items():
            c = row.get(f)
            if c is not None:
                vec[u] = c
    return basis


def _in_null_span(basis, vec):
    """Whether vec lies in the span of a ``_null_basis``: each vector is 1
    at its own free column and 0 at the others, so vec lies in it exactly
    when it is their sum, each scaled by vec's entry at its free column."""
    total = {}
    for f, null in basis.items():
        x = vec.get(f)
        if x is not None:
            for u, v in null.items():
                _add_to(total, u, x * v)
    return total == vec


def _pivot_vector(pivots, lead):
    """The row space vector of pivot ``lead`` scaled to 1 at its lead: the
    pivot holds {u: m_u} for x_lead = sum_u m_u x_u, so the vector is 1 at
    the lead and -m_u at each u."""
    vec = {u: -m for u, m in pivots[lead].items()}
    vec[lead] = 1
    return vec


def _echelon(rows):
    """Fully reduced solved-form pivots of dense rows, their entries
    lowered to the one representation."""
    pivots = Echelon()
    for row in rows:
        _echelon_insert(pivots, {c: _lower(v) for c, v in enumerate(row)
                                 if v})
    return pivots


def rank(rows):
    return len(_echelon(rows))


def null_space(rows, ncols, zero):
    """Basis of the right null space of the matrix given by ``rows``.

    Rows may be empty, in which case the identity basis is returned.
    """
    basis = _null_basis(_echelon(rows), range(ncols))
    return [[zero + vec[c] if c in vec else zero for c in range(ncols)]
            for vec in basis.values()]


def solve(rows, rhs, ncols, zero):
    """One solution of A x = b over a field, or None if inconsistent.

    Free variables are set to zero.  The system is eliminated as
    [A | -b] (x, 1) = 0, so x reads off the column of -b.
    """
    pivots = _echelon(list(r) + [-b] for r, b in zip(rows, rhs))
    if ncols in pivots:  # pivot in the constant column: inconsistent
        return None
    sol = [zero] * ncols
    for lead, row in pivots.items():
        if ncols in row:
            sol[lead] = zero + row[ncols]
    return sol


def _minors(matrix, one):
    """minor(row, skip, mask): the determinant of the rows row, row + 1,
    ... other than ``skip`` (-1 for none) on the columns in the bit mask,
    by expansion along the first of them.  Once the expansion is past
    ``skip`` the rows left are those of every other skip, so one memo
    serves ``det`` and all n^2 cofactors of ``adjugate``."""
    n = len(matrix)
    memo = {}

    def minor(row, skip, mask):
        if row == skip:
            row += 1
        if not mask:
            return one
        key = (skip if skip > row else -1, mask)
        got = memo.get(key)
        if got is not None:
            return got
        acc = None
        sign = 1
        for col in range(n):
            bit = 1 << col
            if not mask & bit:
                continue
            entry = matrix[row][col]
            if not entry.is_zero():
                piece = entry * minor(row + 1, skip, mask & ~bit)
                if sign < 0:
                    piece = -piece
                acc = piece if acc is None else acc + piece
            sign = -sign
        if acc is None:
            acc = one - one
        memo[key] = acc
        return acc

    return minor


def det(matrix, one):
    """Determinant over a commutative ring by memoized minor expansion."""
    return _minors(matrix, one)(0, -1, (1 << len(matrix)) - 1)


def adjugate(matrix, one):
    """Adjugate over a commutative ring: adj(A) A = det(A) I.  Entry
    (j, i) is the cofactor (-1)^(i+j) of row i and column j, and every
    cofactor reads the one memo of ``_minors``."""
    n = len(matrix)
    minor = _minors(matrix, one)
    full = (1 << n) - 1
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            cof = minor(0, i, full & ~(1 << j))
            adj[j][i] = -cof if (i + j) % 2 else cof
    return adj


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for s in range(1, k):
                acc = acc + a[i][s] * b[s][j]
            row.append(acc)
        out.append(row)
    return out


def mat_inverse_laurent(matrix, one):
    """Inverse of a Laurent-entry matrix whose determinant is a unit."""
    d = det(matrix, one)
    if not d.is_unit():
        raise DomainError("matrix determinant %s is not a unit" % d)
    dinv = d.inverse()
    adj = adjugate(matrix, one)
    return [[entry * dinv for entry in row] for row in adj]
