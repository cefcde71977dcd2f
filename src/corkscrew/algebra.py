"""Exact arithmetic ground layer: F2[U,V] monomials, bigradings, grading
levels, and bit-packed F2 linear algebra.

A monomial U^a V^b is the exponent pair ``(a, b)``; it shifts the
bigrading by ``(-2a, -2b)``.  Nothing stores a polynomial: every element
and map is grading homogeneous, so each coefficient is zero or the one
monomial the gradings force (:func:`slice_monomial`).  Which generators
can carry a coefficient at a bigrading is a bit mask, read off the
grading groups of :class:`Levels` (``KnotComplex.admissible`` caches
them).  An element at a known bigrading is therefore an F2 bit vector
over the generators, a map is an F2 bit matrix given by its columns (see
``complexes``), and applying one to the other is :func:`mat_vec`.

Every F2 elimination in the package goes through one routine, the
incremental row echelon :class:`Echelon`: ranks and lexmin witnesses
here, :class:`ColumnSpan` for kernels, coordinates and linear solves
over keyed columns, and the homology, peeling and self-map spans of the
other modules.  A stored row is a bit vector and nothing else.  Where a
caller needs coordinates, it stores each row with marker bits above the
vectors' own bits; a row changes no bit below its pivot, so reducing a
vector leaves, above those bits, the XOR of the markers of the rows it
used.  Keyed columns go in through one column sweep
(:meth:`Echelon.sweep`), which yields each dependent column's relation;
a functional zero on the stored rows comes from one dual walk
(:meth:`Echelon.annihilator`).  A linear system ``A x = b`` is solved
in one sweep over A's columns (:meth:`ColumnSpan.solve`): the sweep
leaves the reduced echelon form's pivot columns, its null-space basis
and, for b outside the span, a row functional that refutes it, with no
row echelon and no back-substitution.  :func:`solve_f2_rows` keeps the
row-wise route for systems given by rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

Mono = tuple  # (u_exp, v_exp)
Grading = tuple  # (gr_u, gr_v)


# -- bigradings --------------------------------------------------------------

def gr_add(g1: Grading, g2: Grading) -> Grading:
    return (g1[0] + g2[0], g1[1] + g2[1])


def gr_neg(g: Grading) -> Grading:
    return (-g[0], -g[1])


def alexander(g: Grading) -> int:
    """Alexander grading (gr_u - gr_v)/2; derived, never stored."""
    d = g[0] - g[1]
    if d % 2:
        raise ValueError(f"bigrading {g} has odd gr_u - gr_v")
    return d // 2


# -- graded slices -----------------------------------------------------------

def slice_monomial(gen_grading: Grading, target: Grading) -> Optional[Mono]:
    """The unique monomial m with gr(gen) + deg(m) == target, or None."""
    du = gen_grading[0] - target[0]
    dv = gen_grading[1] - target[1]
    if du < 0 or dv < 0 or du % 2 or dv % 2:
        return None
    return (du // 2, dv // 2)


class Levels:
    """Indices grouped by height: ``masks`` lists (height, bits of the
    indices there), highest first; for integer heights, a power of U
    takes height d to the heights at or above it with d's parity."""

    def __init__(self, heights: Iterable[int]):
        at: dict = {}
        for t, h in enumerate(heights):
            at[h] = at.get(h, 0) | 1 << t
        self.masks = sorted(at.items(), reverse=True)
        self._above: dict = {}

    def above(self, d: int) -> int:
        if d not in self._above:
            self._above[d] = sum(bits for h, bits in self.masks
                                 if h >= d and (h - d) % 2 == 0)
        return self._above[d]

    def max_rise(self, cols: Sequence[int], base: Sequence[int]) -> int:
        """The largest height(t) - base[s] over set bits t of cols[s], or 0:
        per base, the OR of its columns scans the masks top down."""
        union: dict = {}
        for b, col in zip(base, cols):
            union[b] = union.get(b, 0) | col
        best = 0
        for b, col in union.items():
            for h, bits in self.masks:
                if h - b <= best:
                    break
                if col & bits:
                    best = h - b
                    break
        return best


# -- F2 linear algebra (rows as int bitmasks, bit j = column j) --------------

@dataclass
class F2Matrix:
    rows: int
    cols: int
    bits: list  # row-major bitmask per row

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], ncols: int) -> "F2Matrix":
        packed = []
        for row in rows:
            word = 0
            for j, x in enumerate(row):
                if x & 1:
                    word |= 1 << j
            packed.append(word)
        return cls(rows=len(packed), cols=ncols, bits=packed)


@dataclass
class F2Solution:
    particular: int  # bitmask over columns
    kernel: list  # list of bitmasks, deterministic order


@dataclass
class F2Inconsistency:
    """Left-kernel witness: combo . A == 0 while combo . b == 1."""

    combo: int  # bitmask over the rows of A, in the order A gives them


def ones(word: int) -> list:
    """Positions of the set bits of a non-negative word, lowest first.

    They are collected from the top bit down and then reversed: clearing
    the top bit builds only non-negative ints, where isolating the lowest
    one (``word & -word``) builds a negative int the size of the word."""
    out = []
    while word:
        top = word.bit_length() - 1
        out.append(top)
        word ^= 1 << top
    out.reverse()
    return out


def parity(word: int) -> int:
    """The number of set bits, mod 2: the value at ``word`` of the linear
    functional whose mask was ANDed into it."""
    return word.bit_count() & 1


def mat_vec(cols: Sequence[int], word: int) -> int:
    """The XOR of ``cols[i]`` over the set bits i of ``word``: a bit
    matrix, given by its columns, applied to a bit vector.  XOR does not
    depend on the order, so the bits are walked from the top (see
    :func:`ones`)."""
    out = 0
    while word:
        top = word.bit_length() - 1
        out ^= cols[top]
        word ^= 1 << top
    return out


class Echelon:
    """Incremental F2 span in row echelon form: every stored row has a
    distinct pivot, its lowest set bit, and ``_pivots`` is the mask of
    all pivot bits.

    A vector is reduced by clearing its lowest pivot bit with that pivot's
    row, repeatedly; a row changes no bit below its pivot, so this ends
    with a vector that is zero at every pivot.  That vector, and the rows
    used to reach it, do not depend on the order of the steps.  The
    vector ANDed with the pivot mask names the next pivot to clear, so a
    step never visits a bit that has no row.  This is the one elimination
    routine of the package: ranks, kernels, solutions, coordinates and
    inverses are all read off it.
    """

    def __init__(self, vectors: Iterable[int] = ()):
        self.rows: list = []  # (pivot, vec), in insertion order
        self._at: dict = {}  # pivot index -> vec
        self._pivots = 0
        for v in vectors:
            self.insert(v)

    def reduce(self, v: int) -> int:
        at = self._at
        pivots = self._pivots
        hit = v & pivots
        while hit:
            v ^= at[(hit & -hit).bit_length() - 1]
            hit = v & pivots
        return v

    def insert(self, v: int) -> int:
        """Store the reduction of v; returns it, 0 when v is already in
        the span (nothing is stored then)."""
        v = self.reduce(v)
        if v:
            low = v & -v
            pivot = low.bit_length() - 1
            self._at[pivot] = v
            self._pivots |= low
            self.rows.append((pivot, v))
        return v

    def sweep(self, cols, keys: Iterable[int], shift: int):
        """Insert ``cols[key] | 1 << (shift + key)`` for each key in turn;
        yield ``(key, z)`` for each column that depends on earlier ones,
        z the relation it reduces to above ``shift`` (bit ``key`` set).
        Such a column is not stored; stopping early leaves out the rest."""
        low = (1 << shift) - 1
        for key in keys:
            v = self.reduce(cols[key] | 1 << (shift + key))
            if v & low:
                self.insert(v)
            else:
                yield key, v >> shift

    def annihilator(self, y: int) -> int:
        """y plus pivot bits, zero on every stored row: by decreasing
        pivot, a row's pivot bit goes in when y is 1 on the row.  A row
        has no bit below its pivot, so no later step changes y on it."""
        at = self._at
        for pivot in sorted(at, reverse=True):
            if parity(at[pivot] & y):
                y ^= 1 << pivot
        return y

    @property
    def rank(self) -> int:
        return len(self.rows)


class ColumnSpan:
    """The span of keyed columns ``{key: c_key}`` with coordinates over
    the keys (non-negative integers).

    The columns are swept (:meth:`Echelon.sweep`) in increasing key
    order, with coordinate bits from ``shift`` up, so a vector that
    reduces to zero below ``shift`` reduces to its coordinates above it,
    bit ``key`` for column ``key``.  Each column that depends on earlier
    ones gives a kernel vector.  Columns that are stored are the pivot
    columns of the reduced echelon form, and coordinates use only those,
    so both match that form.  ``height`` is a number of rows the
    coordinate bits must start above, for vectors with more rows than the
    columns reach.
    """

    def __init__(self, cols: dict, height: int = 0):
        self.shift = max(height, max(cols.values(), default=0).bit_length())
        self.span = Echelon()
        self.kernel = [z for _, z in  # one per dependent column, in order
                       self.span.sweep(cols, sorted(cols), self.shift)]

    def coordinates(self, v: int) -> Optional[int]:
        """Bitmask over the keys of the columns summing to v; None outside
        the span."""
        if v >> self.shift:
            return None
        v = self.span.reduce(v)
        if v & ((1 << self.shift) - 1):
            return None
        return v >> self.shift

    def solve(self, v: int):
        """Solve "the columns sum to v" for v below ``height``: an
        :class:`F2Solution`, v's coordinates (zero at every dependent
        column, as read off the reduced echelon form) with the kernel, or
        an :class:`F2Inconsistency` whose combo y is zero on every column
        and 1 on v.

        v's reduction r is zero at every pivot.  y is the annihilator of
        the stored columns (:meth:`Echelon.annihilator`) that starts at
        r's lowest bit; no pivot bit changes y on r, where y is 1.  Every
        column is a sum of stored ones, and v + r is one, so y is 0 on
        every column and 1 on v.
        """
        low = (1 << self.shift) - 1
        r = self.span.reduce(v)
        if not r & low:
            return F2Solution(particular=r >> self.shift, kernel=self.kernel)
        return F2Inconsistency(combo=self.span.annihilator(r & -r))


def inverse_cols(cols: Sequence[int]) -> Optional[list]:
    """The bit columns of the inverse of the square bit matrix with
    columns ``cols``, or None when it is singular: column i of the
    inverse is the coordinates of e_i over ``cols``."""
    span = ColumnSpan(dict(enumerate(cols)))
    if span.kernel:
        return None
    return [span.coordinates(1 << i) for i in range(len(cols))]


def solve_f2_rows(rows: list, rhs: list, ncols: int):
    """Solve A x = b exactly over F2 with deterministic leftmost pivoting.

    Returns an F2Solution (the solution read off the reduced echelon form,
    free coordinates zero, plus a kernel basis ordered by free column) or
    an F2Inconsistency carrying a row combination that certifies b is not
    in the column span.
    """
    bare = 1 << ncols
    span = Echelon()
    stored = []  # rows that raised the rank; the others drop out
    for i, (row, b) in enumerate(zip(rows, rhs)):
        v = span.insert(row | (b << ncols))
        if v:
            stored.append(i)
        if v == bare:
            return F2Inconsistency(
                combo=_left_kernel_witness(rows, rhs, ncols, stored))
    # back-substitute: highest pivots first, each row reduced against the
    # rows above it, which leaves the (unique) reduced echelon form; a row
    # is then zero at every other pivot, so its other bits are free columns
    rref = Echelon(v for _, v in sorted(span.rows, reverse=True))
    pivots = {p for p, _ in rref.rows}
    kernel = {j: 1 << j for j in range(ncols) if j not in pivots}
    particular = 0
    for p, v in rref.rows:
        particular |= (v >> ncols) << p
        for j in ones((v ^ (1 << p)) & (bare - 1)):
            kernel[j] |= 1 << p
    return F2Solution(particular=particular, kernel=list(kernel.values()))


def _left_kernel_witness(rows: list, rhs: list, ncols: int,
                         stored: list) -> int:
    """A row combination y with y A = 0 and y b = 1: the coordinates of
    the bare rhs bit over the augmented rows.  Only the ``stored`` rows,
    those that raised the rank, can take part."""
    aug = ColumnSpan({i: rows[i] | (rhs[i] << ncols) for i in stored})
    return aug.coordinates(1 << ncols)


def solve_f2(a: F2Matrix, b: Sequence[int]):
    """Matrix-facing wrapper around :func:`solve_f2_rows`."""
    if len(b) != a.rows:
        raise ValueError("rhs length does not match row count")
    return solve_f2_rows(a.bits, list(b), a.cols)


def f2_rank(rows: list, ncols: int) -> int:
    return Echelon(rows).rank


def lexmin_affine(particular: int, kernel: list, ncols: int) -> int:
    """Lexicographically smallest element of particular + span(kernel).

    Coordinates are compared left to right (column 0 first) with 0 < 1.
    The reduction of ``particular`` is zero at every pivot, and any other
    element of the coset differs from it first at a pivot, where it has a
    one; so the reduction is the minimum.
    """
    return Echelon(kernel).reduce(particular)
