"""Exact rational linear algebra: kernel and solve, with no floating point.

A matrix is a list of sparse rows ``{column: Rational}`` over ``ncols``
columns, a missing column being zero, and vectors come back sparse as
``{column: Fraction}``.  Columns must be ``int``s in ``[0, ncols)``.

When every row has at most two nonzeros, as in the homogeneous-kernel
matrices (22690 x 224 in degree 12), ``rational_kernel`` reads the kernel
from a weighted union-find: a row ``a v_i + b v_j = 0`` ties column j to
column i by an integer ratio, a one-entry row or a cycle whose ratios do not
close forces its component to zero, and each other component spans one
vector.  Every other matrix, and every ``rational_solve``, goes through
fraction-free elimination: each row is cleared to integers with the lcm of
its denominators, stored as ``{column: int}`` and kept primitive by its gcd
(the gcd division keeps the integers small, as Bareiss's exact division by
the previous pivot does).  An incoming row is reduced against at most one
stored row per column, and elimination stops once the rank equals the
column count.  The stored rows are kept in reduced row echelon form, which
is unique, so the kernel basis (one vector per free column) and the
solution (free variables zero) do not depend on the row order, and both
kernel paths return the same basis.
"""

import math
from fractions import Fraction
from itertools import chain


def _check_columns(rows, ncols: int):
    """Refuse a column that is not an ``int`` in ``[0, ncols)``.

    A float, ``Fraction`` or string key would be stored as a column of its
    own, or compare equal to an integer one, and the result would be wrong.
    """
    kinds = set(map(type, chain.from_iterable(rows)))
    if not kinds <= {int}:
        names = ", ".join(sorted(k.__name__ for k in kinds - {int}))
        raise ValueError(f"columns must be int, got {names}")
    columns = set(chain.from_iterable(rows))  # now int: equal keys are equal columns
    if columns:
        lo, hi = min(columns), max(columns)
        if lo < 0 or hi >= ncols:
            raise ValueError(f"columns {lo}..{hi} are not all in [0, {ncols})")


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = math.gcd(*row.values())
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], col: int) -> dict[int, int]:
    """Primitive integer combination of ``row`` and ``pivot_row`` that is zero at ``col``."""
    g = math.gcd(row[col], pivot_row[col])
    a, p = row[col] // g, pivot_row[col] // g
    out = {c: v * p for c, v in row.items()}
    for c, v in pivot_row.items():
        w = out.get(c, 0) - a * v
        if w:
            out[c] = w
        else:
            del out[c]
    return _primitive(out)


def _reduced_rows(rows, ncols: int) -> dict[int, dict[int, int]]:
    """Pivot column -> primitive integer row of the reduced row echelon form.

    The stored rows stay reduced: each is zero at every other pivot column,
    and its pivot is its least column.  An incoming row is cleared at the
    pivot columns it meets; what is left becomes a new pivot row, and its
    pivot column is cleared from the stored rows.
    """
    reduced: dict[int, dict[int, int]] = {}
    for row in rows:
        if len(reduced) == ncols:
            break
        entries = {c: v for c, v in row.items() if v}
        if not entries:
            continue
        scale = math.lcm(*(v.denominator for v in entries.values()))
        r = _primitive({c: v.numerator * (scale // v.denominator) for c, v in entries.items()})
        for p in [c for c in r if c in reduced]:
            r = _eliminate(r, reduced[p], p)
        if r:
            lead = min(r)
            for p, stored in reduced.items():
                if lead in stored:
                    reduced[p] = _eliminate(stored, r, lead)
            reduced[lead] = r
    return reduced


def _at_most_two_nonzeros(rows) -> bool:
    return (max(map(len, rows), default=0) <= 2
            or all(sum(map(bool, row.values())) <= 2 for row in rows))


def _pair_kernel(rows, ncols: int) -> list[dict[int, Fraction]]:
    """``rational_kernel`` of rows with at most two nonzeros each, by weighted union-find.

    ``v[c] = num[c] / den[c] * v[parent[c]]`` with ``den[c] > 0``, kept in
    lowest terms; a root's own ratio is 1.  Union by size and path compression
    keep the trees shallow, and no ``Fraction`` is made until the basis is
    read.  A live component spans one vector, nonzero at each of its columns;
    the free column of its reduced row echelon block is its largest, so the
    vector is normalized to 1 there, and the basis is ordered by that column.
    """
    parent = list(range(ncols))
    num, den, size = [1] * ncols, [1] * ncols, [1] * ncols
    live = [True] * ncols  # read at roots: the component is not forced to zero

    def find(c: int) -> int:
        """Root of ``c``, with every column on the way re-hung at the root."""
        path = []
        while parent[c] != c:
            path.append(c)
            c = parent[c]
        if len(path) > 1:
            n, d = num[path[-1]], den[path[-1]]
            for p in reversed(path[:-1]):
                n, d = num[p] * n, den[p] * d
                g = math.gcd(n, d)
                n, d = n // g, d // g
                num[p], den[p], parent[p] = n, d, c
        return c

    for row in rows:
        if len(row) != 2 or not all(row.values()):
            row = {c: v for c, v in row.items() if v}
            if len(row) != 2:
                if row:  # one nonzero: its column, and so its component, is zero
                    (c,) = row
                    live[find(c)] = False
                continue
        (i, a), (j, b) = row.items()
        ri, rj = parent[i], parent[j]  # the root, unless a path is longer than one step
        if parent[ri] != ri:
            ri = find(i)
        if parent[rj] != rj:
            rj = find(j)
        # a v_i + b v_j = 0 is p v_ri + q v_rj = 0, cleared by a positive factor
        p = a.numerator * b.denominator * num[i] * den[j]
        q = b.numerator * a.denominator * num[j] * den[i]
        if ri == rj:
            if p + q:  # a cycle whose ratios do not close
                live[ri] = False
            continue
        if size[ri] < size[rj]:
            ri, rj, p, q = rj, ri, q, p
        g = math.gcd(p, q) if q > 0 else -math.gcd(p, q)
        parent[rj], num[rj], den[rj] = ri, -p // g, q // g
        size[ri] += size[rj]
        live[ri] = live[ri] and live[rj]

    members: dict[int, list[int]] = {}
    for c in range(ncols):
        root = find(c)
        if live[root]:
            members.setdefault(root, []).append(c)
    basis = []
    for cols in sorted(members.values(), key=lambda cols: cols[-1]):
        top_num, top_den = num[cols[-1]], den[cols[-1]]
        basis.append({c: Fraction(num[c] * top_den, den[c] * top_num) for c in cols})
    return basis


def rational_kernel(rows: list[dict[int, Fraction]], ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the right kernel; one sparse vector per free column.

    Rows with at most two nonzeros each go through ``_pair_kernel``, any other
    matrix through elimination; both give the reduced row echelon basis.
    """
    _check_columns(rows, ncols)
    if _at_most_two_nonzeros(rows):
        return _pair_kernel(rows, ncols)
    reduced = _reduced_rows(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in reduced:
            continue
        vec = {f: Fraction(1)}
        for p, r in reduced.items():
            if f in r:
                vec[p] = Fraction(-r[f], r[p])
        basis.append(vec)
    return basis


def rational_solve(rows: list[dict[int, Fraction]], rhs: list[Fraction],
                   ncols: int) -> dict[int, Fraction] | None:
    """One sparse solution of rows * x = rhs, or None when inconsistent."""
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rows)} equations but {len(rhs)} right-hand sides")
    _check_columns(rows, ncols)
    reduced = _reduced_rows(({**row, ncols: b} for row, b in zip(rows, rhs)), ncols + 1)
    if ncols in reduced:
        return None
    return {p: Fraction(r[ncols], r[p]) for p, r in reduced.items() if ncols in r}
