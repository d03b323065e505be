"""Domain types and regime predicates for 1-D convex codes.

A sensor matrix has k rows (intervals / neurons) and n columns (sensor
readings in left-to-right or clockwise order).  Its columns, read as
length-k binary words, are the codewords.  The four regimes are the
combinations of geometry (line / circle) and sensor density (sparse /
dense); their matrix signatures are CO, HCO, CCO and HCCO.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter, xor
from typing import Iterable, Iterator, Mapping, Sequence


class Geometry(Enum):
    LINE = "line"
    CIRCLE = "circle"


class Density(Enum):
    SPARSE = "sparse"
    DENSE = "dense"


class LengthMismatch(ValueError):
    """Operands have different word lengths."""


class DegenerateRow(ValueError):
    """Row statistics requested for a row on which they are undefined."""


class RegimeViolation(ValueError):
    """A matrix does not satisfy the regime required by an operation."""


class SizeLimit(ValueError):
    """An exhaustive computation was requested beyond its guard limit."""


class InternalError(RuntimeError):
    """A self-check failed: a bug in the library, not a property of the
    input.  Raised by ensure and verify_matrix, which unlike assert
    statements still run under python -O."""


@dataclass(frozen=True)
class Regime:
    """One of the four regimes; matrix signature CO / HCO / CCO / HCCO."""

    geometry: Geometry
    density: Density

    @property
    def name(self) -> str:
        h = "H" if self.density is Density.DENSE else ""
        c = "CCO" if self.geometry is Geometry.CIRCLE else "CO"
        return h + c


CO = Regime(Geometry.LINE, Density.SPARSE)
HCO = Regime(Geometry.LINE, Density.DENSE)
CCO = Regime(Geometry.CIRCLE, Density.SPARSE)
HCCO = Regime(Geometry.CIRCLE, Density.DENSE)


class BitVector:
    """Fixed-length binary word, stored as a mask with bit i = position i.

    Positions are 0-based internally; the string form writes position 0
    first, so ``BitVector.from_string("1100")`` has 1s at positions 0, 1.
    Immutable and hashable.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if n < 0:
            raise ValueError("negative length")
        if mask < 0 or mask >> n:
            raise ValueError("mask out of range for length %d" % n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("BitVector is immutable")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        digits = []
        for b in bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            digits.append("01"[b])
        return cls.from_string("".join(digits))

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        # checked first: int() also takes "_", signs and whitespace
        if s.strip("01"):
            raise ValueError("bits must be 0 or 1")
        # position 0 first, so the binary form read backwards
        return cls(len(s), int(s[::-1], 2) if s else 0)

    @classmethod
    def zeros(cls, n: int) -> "BitVector":
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> "BitVector":
        return cls(n, (1 << n) - 1)

    def bit(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.mask >> i) & 1

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return ((self.mask >> i) & 1 for i in range(self.n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitVector)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        # ints hash modulo 2**61 - 1; the bit length splits 1 << i, 1 << i + 61
        return hash((self.n, self.mask, self.mask.bit_length()))

    def _check_len(self, other: "BitVector") -> None:
        if self.n != other.n:
            raise LengthMismatch(f"lengths differ: {self.n} != {other.n}")

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_len(other)
        return BitVector(self.n, self.mask & other.mask)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_len(other)
        return BitVector(self.n, self.mask | other.mask)

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_len(other)
        return BitVector(self.n, self.mask ^ other.mask)

    def __invert__(self) -> "BitVector":
        return BitVector(self.n, ((1 << self.n) - 1) ^ self.mask)

    def leq(self, other: "BitVector") -> bool:
        """Positionwise <= (boolean-lattice order)."""
        self._check_len(other)
        return self.mask & ~other.mask == 0

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    @property
    def is_ones(self) -> bool:
        return self.mask == (1 << self.n) - 1

    def popcount(self) -> int:
        return self.mask.bit_count()

    def to_string(self) -> str:
        # position 0 first, so the binary form read backwards
        return format(self.mask, "0%db" % self.n)[::-1] if self.n else ""

    def __repr__(self) -> str:
        return f"BitVector({self.to_string()!r})"


def _block_contiguous(mask: int, n: int, geometry: Geometry) -> bool:
    """is_discrete_interval on a bare mask of n bits.

    Adding a mask's lowest 1 carries through its lowest block of 1s and
    clears it, so no 1 survives in common with the mask exactly when
    that block is the only one (vacuously true for 0).  Line: the 1s
    form one block.  Circle: the 1s or the 0s do.
    """
    if mask & (mask + (mask & -mask)) == 0:
        return True
    if geometry is Geometry.LINE:
        return False
    zeros = mask ^ (1 << n) - 1
    return zeros & (zeros + (zeros & -zeros)) == 0


def is_discrete_interval(row: BitVector, geometry: Geometry) -> bool:
    """Line: 1s form one contiguous block.  Circle: cyclically contiguous,
    equivalently the 1s or the 0s form one plain block."""
    return _block_contiguous(row.mask, row.n, geometry)


def row_stats(row: BitVector, geometry: Geometry) -> tuple[int, int]:
    """The (f, g) statistics of a discrete-interval row, 1-based.

    Line: f is the last index holding a 1, g is one less than the first.
    Circle: f is the last index of the cyclic 1-block, g the last index of
    the cyclic 0-block.  Undefined (DegenerateRow) for the all-zero row and,
    on the circle, the all-one row.
    """
    if not is_discrete_interval(row, geometry):
        raise ValueError("row is not a discrete interval for this geometry")
    if row.is_zero:
        raise DegenerateRow("all-zero row")
    if geometry is Geometry.CIRCLE and row.is_ones:
        raise DegenerateRow("all-one row on the circle")
    return _row_ends(row.mask, row.n, geometry)


def _row_ends(mask: int, n: int, geometry: Geometry) -> tuple[int, int]:
    """row_stats of the row with this mask of n bits, for callers that
    hold a mask already known to be a discrete interval, nonzero and, on
    the circle, not all ones."""
    if geometry is Geometry.LINE:
        return mask.bit_length(), (mask & -mask).bit_length() - 1
    nxt = (mask >> 1) | ((mask & 1) << (n - 1))  # bit i = bit i + 1, cyclically
    # the 1 before a 0 ends the 1-block; the 0 before a 1 ends the 0-block
    f, g = (mask & ~nxt).bit_length(), (nxt & ~mask).bit_length()
    ensure(f > 0 and g > 0, "circle row without block ends")
    return f, g


def inharmonious(x: BitVector, y: BitVector) -> bool:
    """True iff x and y are incomparable under positionwise <=."""
    x._check_len(y)
    return x.mask & ~y.mask != 0 and y.mask & ~x.mask != 0


@dataclass(frozen=True)
class Code:
    """Set of distinct codewords of common length k."""

    words: frozenset
    k: int

    @classmethod
    def of(cls, words: Iterable[BitVector]) -> "Code":
        ws = frozenset(words)
        if not ws:
            return cls(ws, 0)
        lens = {w.n for w in ws}
        if len(lens) != 1:
            raise LengthMismatch(f"mixed word lengths: {sorted(lens)}")
        return cls(ws, lens.pop())

    @classmethod
    def from_strings(cls, strings: Iterable[str]) -> "Code":
        return cls.of(BitVector.from_string(s) for s in strings)

    def sorted_words(self) -> list[BitVector]:
        # ascending mask value; cheap even for very long words
        return sorted(self.words, key=attrgetter("mask"))

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, w: BitVector) -> bool:
        return w in self.words

    def __iter__(self) -> Iterator[BitVector]:
        return iter(self.sorted_words())


@dataclass(frozen=True)
class CodeMultiset:
    """Multiset of codewords: word -> multiplicity (>= 1)."""

    entries: Mapping[BitVector, int]
    k: int

    @classmethod
    def of(cls, entries: Mapping[BitVector, int]) -> "CodeMultiset":
        for w, m in entries.items():
            if type(m) is not int:  # a bool is no count of copies
                raise ValueError(f"multiplicity {m!r} is not an int for"
                                 f" {w.to_string()}")
            if m < 1:
                raise ValueError(f"multiplicity {m} < 1 for {w.to_string()}")
        lens = {w.n for w in entries}
        if len(lens) > 1:
            raise LengthMismatch(f"mixed word lengths: {sorted(lens)}")
        k = lens.pop() if lens else 0
        return cls(dict(entries), k)

    @property
    def support(self) -> Code:
        return Code(frozenset(self.entries), self.k)

    def total(self) -> int:
        return sum(self.entries.values())


def _set_positions(masks: Iterable[int], length: int) -> list[list[int]]:
    """For each bit position below length, the ascending indices of the
    masks that hold it: a transpose in one Python step per set bit."""
    out: list[list[int]] = [[] for _ in range(length)]
    for j, m in enumerate(masks):
        while m:
            low = m & -m
            out[low.bit_length() - 1].append(j)
            m ^= low
    return out


def _row_runs(columns: Sequence[BitVector], k: int) -> list[list[int]]:
    """For each of the k rows of the matrix with these columns, the
    bounds b0 < b1 < ... of its runs of ones, [b0, b1), [b2, b3), ...

    The set bits of column j XOR column j - 1 are the rows that switch
    there, so the cost is one step per run end, not per one: at most two
    per row of an ordered CO matrix, however long its runs."""
    masks = [c.mask for c in columns]
    runs = _set_positions(map(xor, masks, [0] + masks), k)
    for bounds in runs:
        if len(bounds) % 2:  # the last run reaches the last column
            bounds.append(len(masks))
    return runs


class SensorMatrix:
    """k x n binary matrix: rows are intervals, columns sensor readings.
    Both are stored, so a matrix with no rows still has its n columns."""

    __slots__ = ("rows", "columns", "geometry")

    def __init__(self, rows: Iterable[BitVector], geometry: Geometry):
        rows = tuple(rows)
        if len({r.n for r in rows}) > 1:
            raise LengthMismatch("rows have differing lengths")
        n = rows[0].n if rows else 0
        # row i switches at column j where bit j differs from bit j - 1;
        # each column is the previous one with those rows toggled
        full = (1 << n) - 1
        switches = _set_positions(
            ((r.mask ^ r.mask << 1) & full for r in rows), n)
        columns = []
        col = 0
        for toggled in switches:
            for i in toggled:
                col ^= 1 << i
            columns.append(BitVector(len(rows), col))
        self._init(rows, tuple(columns), geometry)

    def _init(self, rows, columns, geometry) -> None:
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "geometry", geometry)

    def __setattr__(self, name, value):
        raise AttributeError("SensorMatrix is immutable")

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.columns)

    @classmethod
    def from_strings(cls, rows: Iterable[str], geometry: Geometry) -> "SensorMatrix":
        return cls((BitVector.from_string(r) for r in rows), geometry)

    @classmethod
    def from_columns(
        cls, columns: Iterable[BitVector], geometry: Geometry, *,
        k: int | None = None,
    ) -> "SensorMatrix":
        """The matrix with these columns.  k, the row count, is needed
        only when there are no columns; if given, it must match them."""
        cols = tuple(columns)
        lens = {c.n for c in cols}
        if len(lens) > 1:
            raise LengthMismatch("columns have differing lengths")
        if k is None:
            k = lens.pop() if lens else 0
        elif lens and lens != {k}:
            raise LengthMismatch("columns have length %d, not k = %d"
                                 % (lens.pop(), k))
        rows = []
        for bounds in _row_runs(cols, k):
            mask = 0
            for i in range(0, len(bounds), 2):
                mask |= (1 << bounds[i + 1]) - (1 << bounds[i])
            rows.append(BitVector(len(cols), mask))
        m = cls.__new__(cls)
        m._init(tuple(rows), cols, geometry)
        return m

    # Both constructors give every column k bits, so no length check.
    def column_set(self) -> Code:
        return Code(frozenset(self.columns), self.k)

    def column_multiset(self) -> CodeMultiset:
        return CodeMultiset(dict(Counter(self.columns)), self.k)

    def row_strings(self) -> list[str]:
        return [r.to_string() for r in self.rows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SensorMatrix)
            and self.rows == other.rows
            and self.n == other.n
            and self.geometry == other.geometry
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.n, self.geometry))

    def __repr__(self) -> str:
        return f"SensorMatrix({self.row_strings()}, {self.geometry.value})"


def regime_check(m: SensorMatrix, regime: Regime) -> bool:
    """Matrix signature of the regime: every row a discrete interval, and in
    the dense regimes no adjacent inharmonious column pair.

    The regime's geometry governs; the matrix's own geometry tag is ignored
    so the same matrix can be probed under both geometries.
    """
    if not all(is_discrete_interval(r, regime.geometry) for r in m.rows):
        return False
    if regime.density is Density.DENSE:
        cols = m.columns
        if any(map(inharmonious, cols, cols[1:])):
            return False
        if regime.geometry is Geometry.CIRCLE and len(cols) > 1:
            return not inharmonious(cols[-1], cols[0])
    return True


def ensure(ok: bool, what: str) -> None:
    """Self-check: raise InternalError(what) unless ok."""
    if not ok:
        raise InternalError(what)


def verify_matrix(m: SensorMatrix, regime: Regime,
                  expected_columns: Code | CodeMultiset) -> None:
    """Self-check of a constructed matrix: the regime's signature, and
    exactly the expected columns (with multiplicities for a CodeMultiset)."""
    ensure(regime_check(m, regime),
           "constructed matrix fails the %s signature" % regime.name)
    got = (m.column_set() if isinstance(expected_columns, Code)
           else m.column_multiset())
    ensure(got == expected_columns, "constructed matrix has the wrong columns")
