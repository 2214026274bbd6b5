"""Exact Gaussian elimination over the rationals.

Matrices are lists of rows of Fractions: dense sequences, or `SparseRow`s,
which hold only their nonzero entries and read as the dense rows.  Pivot
choice is deterministic: columns left to right, first row with a nonzero
entry.  `det` eliminates on sparse rows ({column: nonzero entry}) under the
same pivot rule, so its cost follows the nonzero entries rather than the
cells, and multiplies the pivots out as integers, into one fraction.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import compress
from operator import index

ZERO = Fraction(0)
ONE = Fraction(1)


def _fractions(row) -> list:
    """A fresh list of the row's entries as Fractions.  Fractions are
    immutable, so existing ones are shared; only other numbers convert."""
    return [x if isinstance(x, Fraction) else Fraction(x) for x in row]


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns)."""
    m = [_fractions(row) for row in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def kernel_basis(rows):
    """Basis of the right null space {x : rows @ x = 0}, one vector per free
    column, in column order."""
    if not rows:
        return []
    m, pivots = rref(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def solve(rows, rhs):
    """One solution of rows @ x = rhs (free variables zero), or None."""
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    m, pivots = rref(aug)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:  # pivot in the augmented column: inconsistent
        return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x


def _sparse_row(row) -> dict:
    """{column: entry} over the row's nonzero entries, as Fractions: one
    truth test per entry, and only nonzero non-Fractions convert."""
    out = {j: row[j] for j in compress(range(len(row)), row)}
    for j, x in out.items():
        if not isinstance(x, Fraction):
            out[j] = Fraction(x)
    return out


class SparseRow(Sequence):
    """A row of `width` entries held on its support: `support` is
    {column: nonzero Fraction}.  It reads as the dense row: len() is the
    width, row[j] is the entry (ZERO off the support), iteration yields
    the dense entries, and it equals any sequence with the same entries.
    It has no item assignment and, like a list, no hash.  Rows share
    their supports with whoever built them, so `det` copies each one
    before it eliminates."""

    __slots__ = ("width", "support")

    def __init__(self, width: int, support: dict):
        self.width = width
        self.support = support

    @classmethod
    def of(cls, row) -> "SparseRow":
        """The dense row `row` on its support."""
        return cls(len(row), _sparse_row(row))

    def __len__(self) -> int:
        return self.width

    def __getitem__(self, j: int) -> Fraction:
        j = index(j)
        if j < 0:
            j += self.width
        if not 0 <= j < self.width:
            raise IndexError("row index out of range")
        return self.support.get(j, ZERO)

    def __iter__(self):
        dense = [ZERO] * self.width
        for j, x in self.support.items():
            dense[j] = x
        return iter(dense)

    def __eq__(self, other) -> bool:
        if isinstance(other, SparseRow):
            return self.width == other.width and self.support == other.support
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(other) == self.width and list(self) == list(other)

    def __repr__(self) -> str:
        return f"SparseRow({self.width}, {self.support!r})"


def det(rows) -> Fraction:
    """The exact determinant, eliminating on sparse rows.

    Each row is held as {column: nonzero entry}: a `SparseRow`'s support is
    read as it stands, a dense row is scanned once.  An index from each
    column to the rows not yet used as pivots that hold it gives the pivot
    and the rows to update, so the work follows the nonzero entries, and a
    diagonal matrix costs one step per column.  The pivot rule is the one
    `rref` uses, on the row positions that its swaps give, which `at` and
    `pos` track; a column held by one row takes it without a search.  The
    determinant is the signed product of the pivots, made as one Fraction
    of the products of their numerators and of their denominators.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("det needs a square matrix")
    m = [dict(row.support) if isinstance(row, SparseRow) else _sparse_row(row)
         for row in rows]
    holders = [set() for _ in range(n)]  # column -> non-pivot rows holding it
    for i, row in enumerate(m):
        for j in row:
            holders[j].add(i)
    at, pos = list(range(n)), list(range(n))  # row at position, and back
    num = den = 1
    for c in range(n):
        h = holders[c]
        if not h:
            return ZERO
        pr = next(iter(h)) if len(h) == 1 else min(h, key=pos.__getitem__)
        if pos[pr] != c:  # swap positions c and pos[pr]
            q = at[c]
            at[c], at[pos[pr]] = pr, q
            pos[q], pos[pr] = pos[pr], c
            num = -num
        pivot = m[pr]
        for j in pivot:
            holders[j].discard(pr)
        p = pivot[c]
        num, den = num * p.numerator, den * p.denominator
        for i in h.copy():
            row = m[i]
            f = row[c] / p
            for j, b in pivot.items():
                x = row.get(j, ZERO) - f * b
                if x:
                    if j not in row:
                        holders[j].add(i)
                    row[j] = x
                else:  # b and f are nonzero, so j was in the row
                    del row[j]
                    holders[j].discard(i)
    return Fraction(num, den)


def inverse(rows):
    n = len(rows)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)]
           for i, row in enumerate(rows)]
    m, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in m[:n]]


def span_select(vectors):
    """Rank of a family plus the indices of a spanning subfamily: the pivot
    columns of `rref` on the vectors taken as columns, so each vector is
    kept when independent of those before it and the selection is
    deterministic.
    """
    pivots = rref(list(zip(*vectors)))[1]
    return len(pivots), pivots
