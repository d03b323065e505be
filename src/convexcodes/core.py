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
from typing import Iterable, Iterator, Mapping


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
        mask = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            mask |= b << n
            n += 1
        return cls(n, mask)

    @classmethod
    def from_string(cls, s: str) -> "BitVector":
        return cls.from_bits(int(ch) for ch in s)

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
        return hash((self.n, self.mask))

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
        return "".join("1" if (self.mask >> i) & 1 else "0" for i in range(self.n))

    def __repr__(self) -> str:
        return f"BitVector({self.to_string()!r})"


def _block_contiguous(mask: int) -> bool:
    # 1s of mask form a single contiguous block (vacuously true for 0)
    if mask == 0:
        return True
    shifted = mask >> (mask & -mask).bit_length() - 1
    return shifted & (shifted + 1) == 0


def is_discrete_interval(row: BitVector, geometry: Geometry) -> bool:
    """Line: 1s form one contiguous block.  Circle: cyclically contiguous,
    equivalently the 1s or the 0s form one plain block."""
    if geometry is Geometry.LINE:
        return _block_contiguous(row.mask)
    return _block_contiguous(row.mask) or _block_contiguous((~row).mask)


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
    if geometry is Geometry.LINE:
        f = row.mask.bit_length()
        g = (row.mask & -row.mask).bit_length() - 1
        return f, g
    if row.is_ones:
        raise DegenerateRow("all-one row on the circle")
    n, mask = row.n, row.mask
    f = g = None
    for i in range(n):
        here = (mask >> i) & 1
        nxt = (mask >> ((i + 1) % n)) & 1
        if here and not nxt:
            f = i + 1
        if not here and nxt:
            g = i + 1
    ensure(f is not None and g is not None, "circle row without block ends")
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
        return sorted(self.words, key=lambda w: w.mask)

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
            if m < 1:
                raise ValueError(f"multiplicity {m} < 1 for {w.to_string()}")
        lens = {w.n for w in entries}
        if len(lens) > 1:
            raise LengthMismatch(f"mixed word lengths: {sorted(lens)}")
        k = lens.pop() if lens else 0
        return cls(dict(entries), k)

    @property
    def support(self) -> Code:
        return Code.of(self.entries.keys())

    def total(self) -> int:
        return sum(self.entries.values())


def _transpose(vectors: tuple, length: int) -> tuple[BitVector, ...]:
    # walks set bits only, so sparse matrices are cheap
    masks = [0] * length
    for j, v in enumerate(vectors):
        m = v.mask
        while m:
            i = (m & -m).bit_length() - 1
            masks[i] |= 1 << j
            m &= m - 1
    return tuple(BitVector(len(vectors), mask) for mask in masks)


class SensorMatrix:
    """k x n binary matrix: rows are intervals, columns sensor readings.
    Both are stored, so a matrix with no rows still has its n columns."""

    __slots__ = ("rows", "columns", "geometry")

    def __init__(self, rows: Iterable[BitVector], geometry: Geometry):
        rows = tuple(rows)
        if len({r.n for r in rows}) > 1:
            raise LengthMismatch("rows have differing lengths")
        self._init(rows, _transpose(rows, rows[0].n if rows else 0), geometry)

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
        cls, columns: Iterable[BitVector], geometry: Geometry
    ) -> "SensorMatrix":
        cols = tuple(columns)
        if len({c.n for c in cols}) > 1:
            raise LengthMismatch("columns have differing lengths")
        m = cls.__new__(cls)
        m._init(_transpose(cols, cols[0].n if cols else 0), cols, geometry)
        return m

    def column(self, j: int) -> BitVector:
        return self.columns[j]

    def column_set(self) -> Code:
        if self.n == 0:
            return Code(frozenset(), self.k)
        return Code.of(self.columns)

    def column_multiset(self) -> CodeMultiset:
        counts = Counter(self.columns)
        return CodeMultiset.of(counts) if counts else CodeMultiset({}, self.k)

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


def adjacent_column_pairs(n: int, geometry: Geometry) -> list[tuple[int, int]]:
    """Index pairs of spatially adjacent columns (cyclic on the circle)."""
    if n < 2:
        return []
    pairs = [(j, j + 1) for j in range(n - 1)]
    if geometry is Geometry.CIRCLE:
        pairs.append((n - 1, 0))
    return pairs


def inharmonious_adjacent_pairs(
    m: SensorMatrix, geometry: Geometry | None = None
) -> list[tuple[int, int]]:
    """Adjacent column index pairs that are inharmonious."""
    geometry = geometry or m.geometry
    cols = m.columns
    return [
        (i, j)
        for i, j in adjacent_column_pairs(m.n, geometry)
        if inharmonious(cols[i], cols[j])
    ]


def regime_check(m: SensorMatrix, regime: Regime) -> bool:
    """Matrix signature of the regime: every row a discrete interval, and in
    the dense regimes no adjacent inharmonious column pair.

    The regime's geometry governs; the matrix's own geometry tag is ignored
    so the same matrix can be probed under both geometries.
    """
    if not all(is_discrete_interval(r, regime.geometry) for r in m.rows):
        return False
    if regime.density is Density.DENSE and inharmonious_adjacent_pairs(
        m, regime.geometry
    ):
        return False
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
