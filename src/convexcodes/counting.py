"""Exact enumeration of discrete interval sets.

Sparse regimes have closed-form counts: any k distinct valid rows form a
set, so the answer is a single binomial coefficient.  Dense regimes are
counted by truncated bivariate generating functions in x (number of
sensors) and y (number of rows), with exact integer coefficients
throughout.  A brute-force oracle and a subspace cross-check are
included for validation at small sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations
from math import comb
from typing import Mapping

from .core import (
    BitVector,
    Density,
    Geometry,
    Regime,
    SizeLimit,
    _block_contiguous,
    _row_ends,
    ensure,
)


@dataclass(frozen=True)
class BivariatePoly:
    """Polynomial in x and y, truncated to x-degree <= x_cap and
    y-degree <= y_cap, with exact integer coefficients."""

    coefficients: Mapping[tuple[int, int], int]
    x_cap: int
    y_cap: int

    @classmethod
    def of(cls, coefficients, x_cap, y_cap) -> "BivariatePoly":
        kept = {
            (dx, dy): c
            for (dx, dy), c in coefficients.items()
            if c and dx <= x_cap and dy <= y_cap
        }
        return cls(kept, x_cap, y_cap)

    @classmethod
    def const(cls, c: int, x_cap: int, y_cap: int) -> "BivariatePoly":
        return cls.of({(0, 0): c}, x_cap, y_cap)

    def coeff(self, dx: int, dy: int) -> int:
        return self.coefficients.get((dx, dy), 0)

    def _require_caps(self, other: "BivariatePoly") -> None:
        if (self.x_cap, self.y_cap) != (other.x_cap, other.y_cap):
            raise ValueError("cap mismatch")

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        self._require_caps(other)
        out = dict(self.coefficients)
        for key, c in other.coefficients.items():
            out[key] = out.get(key, 0) + c
        return BivariatePoly.of(out, self.x_cap, self.y_cap)

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        self._require_caps(other)
        out: dict[tuple[int, int], int] = {}
        for (ax, ay), ac in self.coefficients.items():
            for (bx, by), bc in other.coefficients.items():
                dx, dy = ax + bx, ay + by
                if dx > self.x_cap or dy > self.y_cap:
                    continue
                key = (dx, dy)
                out[key] = out.get(key, 0) + ac * bc
        return BivariatePoly.of(out, self.x_cap, self.y_cap)

    def scale(self, c: int) -> "BivariatePoly":
        return BivariatePoly.of(
            {key: c * v for key, v in self.coefficients.items()},
            self.x_cap,
            self.y_cap,
        )

    def pow(self, e: int) -> "BivariatePoly":
        out = BivariatePoly.const(1, self.x_cap, self.y_cap)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def eval_y(self, y: int) -> dict[int, int]:
        """Collapse the y variable at an integer value; x-degree -> value."""
        out: dict[int, int] = {}
        for (dx, dy), c in self.coefficients.items():
            out[dx] = out.get(dx, 0) + c * y**dy
        return out


@dataclass(frozen=True)
class CountTable:
    """Counts c[(n, k)] of discrete interval sets, for one regime."""

    c: Mapping[tuple[int, int], int]
    regime: Regime

    def count(self, n: int, k: int) -> int:
        return self.c.get((n, k), 0)


def count_sparse(n: int, k: int, geometry: Geometry) -> int:
    """Number of k-element sets of valid sparse rows on n sensors.

    Line: C(C(n+1, 2), k).  Circle: C(n^2 - n + 1, k) for n >= 2; the
    closed form does not cover n < 2, where the row universe is counted
    directly (n = 0 has no rows, n = 1 only the all-one row).
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if geometry is Geometry.LINE:
        return comb(comb(n + 1, 2), k)
    if n >= 2:
        return comb(n * n - n + 1, k)
    return comb(n, k)  # n = 0 -> [k == 0]; n = 1 -> C(1, k)


def _dense_series(geometry: Geometry, N: int, a: list[int], one_plus_y: int,
                  mask: int) -> list[int]:
    """Coefficients of x^0 .. x^N of the dense generating function.

    The coefficients live in a ring of y-polynomials given by a[i] =
    (1+y)^i - 1 for 0 <= i <= N, the element 1+y, and a mask that
    truncates a product; plain ints with y = 1 and mask = -1 (no
    truncation) are the same recurrences over the integers.

    Line: term_m = x^m / ((1 - a_1 x) ... (1 - a_{m+1} x)) is x times
    term_{m-1} divided by (1 - a_{m+1} x), so one prefix series r is
    divided in place with Q_t = P_t + a Q_{t-1}, up to x-degree N - m.
    Circle: 1 + (1+y) * sum over m >= 1 of
    x^m sum_t C(m+t, t) a_m^t x^t, with the powers of a_m iterated.
    """
    total = [0] * (N + 1)
    if geometry is Geometry.LINE:
        r = [1] + [0] * N
        for m in range(N + 1):
            for t in range(1, N - m + 1):
                r[t] += a[m + 1] * r[t - 1] & mask
            for t in range(N - m + 1):
                total[m + t] += r[t]
        return total
    for m in range(1, N + 1):
        power = 1
        for t in range(N - m + 1):
            total[m + t] += comb(m + t, t) * power
            if t < N - m:
                power = power * a[m] & mask
    total = [s * one_plus_y & mask for s in total]
    total[0] += 1
    return total


def _dense_table(geometry: Geometry, N: int, K: int) -> CountTable:
    """The dense count table up to n <= N sensors and k <= K rows.

    Each y-polynomial is packed into one int with B bits per
    coefficient (Kronecker substitution), so a product truncated to
    y-degree <= K is (p * q) & mask at C speed.  B = scalar_max's bit
    length + 1, where scalar_max is the largest x-coefficient of the same
    recurrences run at y = 1 on plain ints.  No packed coefficient can
    reach 2^B, so none carries into its neighbor:

    - every coefficient, of the inputs a_i and of every partial sum and
      product, is a nonnegative integer;
    - truncation only drops terms: y-degrees add under multiplication,
      so a dropped term never feeds a kept one, and each kept
      coefficient equals its untruncated value;
    - each term of the sum, and every quantity it is built from, is
      dominated coefficient by coefficient by the total (Q_t holds both
      P_t and a Q_{t-1}; each a_i that is multiplied appears in the
      total at x-degree i or i + 1), and every coefficient of the total
      at x-degree t is at most its value at y = 1.
    """
    if N < 0 or K < 0:
        raise ValueError("N and K must be nonnegative")
    scalars = _dense_series(geometry, N, [2**i - 1 for i in range(N + 1)],
                            2, -1)
    B = max(scalars).bit_length() + 1
    mask = (1 << (K + 1) * B) - 1
    one_plus_y = 1 + (1 << B)
    a, power = [0], 1
    for _ in range(N):
        power = power * one_plus_y & mask
        a.append(power - 1)
    digit = (1 << B) - 1
    c = {}
    for n, packed in enumerate(_dense_series(geometry, N, a, one_plus_y, mask)):
        for k in range(K + 1):
            v = packed >> k * B & digit
            if v:
                c[(n, k)] = v
    return CountTable(c, Regime(geometry, Density.DENSE))


def gf_dense_linear(N: int, K: int) -> CountTable:
    """Counts of linear-dense discrete interval sets, k rows on n sensors.

    Generating function: sum over m >= 0 of
    x^m / ((1 - a_1 x)(1 - a_2 x) ... (1 - a_{m+1} x)), a_i = (1+y)^i - 1.
    The m-th term has lowest x-degree m, so m <= N terms suffice.
    """
    return _dense_table(Geometry.LINE, N, K)


def gf_dense_circular(N: int, K: int) -> CountTable:
    """Counts of circular-dense discrete interval sets.

    Generating function: 1 + (1+y) * sum over m >= 1 of
    x^m / (1 - a_m x)^(m+1), expanded termwise via
    1/(1 - a x)^(m+1) = sum_t C(m+t, t) a^t x^t.  The inner sum counts
    sets without the all-one row; that row is compatible with every
    other row, so each such set yields one set with it and one without,
    a factor of (1+y) that degenerates to the familiar factor of 2 when
    y = 1.
    """
    return _dense_table(Geometry.CIRCLE, N, K)


# the largest n the brute-force oracles (brute_force_dense,
# brute_force_table and enumerate --oracle, dense or sparse) take: the
# dense oracle walks 2^n sets F, 0.05-0.14 s per geometry at n = 14
# (Python 3.11, one shared Xeon core)
ORACLE_MAX_N = 14


def valid_dense_rows(n: int, geometry: Geometry) -> list[BitVector]:
    """All nonzero discrete-interval rows of length n for the geometry."""
    return [BitVector(n, mask) for mask in range(1, 1 << n)
            if _block_contiguous(mask, n, geometry)]


def _oracle_groups(n: int,
                   geometry: Geometry) -> tuple[list[tuple[int, int]], int]:
    """The rows on n sensors as sorted (f, gmask[f]) pairs, gmask[f] the
    bitmask of the g values of the rows with that f, and the number of
    rows left out: the circle's all-one row, compatible with every row."""
    line = geometry is Geometry.LINE
    gmask: dict[int, int] = {}
    special = 0
    for r in valid_dense_rows(n, geometry):
        if not line and r.is_ones:
            special += 1
            continue
        f, g = _row_ends(r.mask, n, geometry)
        seen = gmask.get(f, 0)
        ensure(not seen >> g & 1, "two rows share (f, g) = (%d, %d)" % (f, g))
        ensure(not line or g < f, "line row with g = %d >= f = %d" % (g, f))
        gmask[f] = seen | 1 << g
    return sorted(gmask.items()), special


def _packed_factors(groups: list[tuple[int, int]]) -> tuple[list[int], int]:
    """fac[c] = (1+y)^c - 1 for every c up to the largest group, packed
    with B = R + 1 bits per coefficient, R the rows in the groups; and B."""
    B = sum(gm.bit_count() for _, gm in groups) + 1
    fac, power = [0], 1
    for _ in range(max((gm.bit_count() for _, gm in groups), default=0)):
        power *= 1 + (1 << B)
        fac.append(power - 1)
    return fac, B


def _unpack(total: int, B: int) -> dict[int, int]:
    """k -> the nonzero y^k coefficient of a packed polynomial."""
    digit = (1 << B) - 1
    counts = {}
    for k in range(total.bit_length() // B + 1):
        ways = total >> k * B & digit
        if ways:
            counts[k] = ways
    return counts


def _line_walk(N: int) -> tuple[list[int], int]:
    """The line oracle's packed totals of rows 0..N, and B.

    A line row's f is the bit length of its mask, so the rows on n <= N
    sensors are the rows on N sensors with f <= n, each with the same
    (f, g), and row n sums over the sets F of f-values <= n.  The sets
    are walked once, depth-first in ascending f: each extends its
    parent's product by the one factor of its largest f, which no later
    member changes since every g lies below its f.  Each term goes into
    the bucket of its largest f (the empty set into bucket 0), so row n
    is the sum of buckets 0..n.
    """
    groups, _ = _oracle_groups(N, Geometry.LINE)
    fac, B = _packed_factors(groups)
    buckets = [1] + [0] * N
    # (F's mask, F's product, index of the first f that may join F)
    stack = [(0, 1, 0)]
    while stack:
        F, term, start = stack.pop()
        for i in range(start, len(groups)):
            f, gm = groups[i]
            t = term * fac[(gm & ~F).bit_count()]
            buckets[f] += t
            stack.append((F | 1 << f, t, i + 1))
    return list(accumulate(buckets)), B


def _check_oracle_n(n: int, name: str) -> None:
    if n > ORACLE_MAX_N:
        raise SizeLimit("%s is limited to n <= %d" % (name, ORACLE_MAX_N))
    if n < 0:
        raise ValueError("n must be nonnegative")


def brute_force_dense(n: int, geometry: Geometry) -> CountTable:
    """Oracle: count discrete interval sets of each size directly.

    A set of rows is a discrete interval set when no pair (r1, r2) has
    g(r1) = f(r2).  A row is named by its (f, g) pair, so the rows with
    one f are kept as gmask[f], the bitmask of their g values.  Summing
    over the possible sets F of realized f-values, each f in F
    contributes a nonempty subset of its c_f rows whose g avoids F, a
    factor of (1+y)^c_f - 1.  On the circle the all-one row is
    compatible with everything and doubles every count.

    Each product is built once.  On the line every row's g lies below
    its f, so c_f depends only on the members of F below f: the sets are
    walked depth-first in ascending f, and each extends its parent's
    product by one multiply (_line_walk, whose row n is the result).  On
    the circle g can lie past f, so each F counts its c_f afresh, and the
    product of each sorted tuple of them is memoized.

    Each y-polynomial is packed into one int with B = R + 1 bits per
    coefficient, R the number of rows other than the circle's all-one
    row, so a product is one integer multiply.  No packed coefficient
    can reach 2^B, so none carries into its neighbor: every factor, and
    every carried or memoized product, is the term of a real set F (a
    parent is a set too, and a tuple is memoized from the first set
    that has it), whose y^k coefficient counts distinct sets of k of
    the R rows, as does the total's; so each is at most C(R, k) < 2^R.
    The method shares nothing with the series kernel.
    """
    _check_oracle_n(n, "brute_force_dense")
    regime = Regime(geometry, Density.DENSE)
    if geometry is Geometry.LINE:
        totals, B = _line_walk(n)
        counts = _unpack(totals[n], B)
        return CountTable({(n, k): v for k, v in counts.items()}, regime)

    groups, special = _oracle_groups(n, geometry)
    fac, B = _packed_factors(groups)
    total = 1  # the empty set
    memo: dict[tuple[int, ...], int] = {}
    for size in range(1, len(groups) + 1):
        for F in combinations(groups, size):
            avoid = ~sum(1 << f for f, _ in F)
            key = tuple(sorted([(gm & avoid).bit_count() for _, gm in F]))
            term = memo.get(key)
            if term is None:
                term = 1
                for c in key:
                    term *= fac[c]
                memo[key] = term
            total += term
    counts = _unpack(total, B)  # before the all-one row
    if special:
        doubled: dict[int, int] = {}
        for k, ways in counts.items():
            doubled[k] = doubled.get(k, 0) + ways
            doubled[k + 1] = doubled.get(k + 1, 0) + ways
        counts = doubled
    return CountTable({(n, k): v for k, v in counts.items()}, regime)


def brute_force_table(N: int, geometry: Geometry) -> CountTable:
    """The oracle's counts for every n <= N: brute_force_dense(n) for
    each n, in one table.

    Line: one walk over the sets F of f-values <= N gives every row (see
    _line_walk).  Every row is packed with the B = R_N + 1 bits of row
    N, R_n the C(n+1, 2) rows on n sensors.  None carries: each bucket,
    running sum and term is a sum of terms of real sets F of f-values
    <= n for some n <= N, so its y^k coefficient is at most row n's,
    C(R_n, k) < 2^R_n <= 2^R_N.

    Circle: row n is brute_force_dense(n, CIRCLE).  An arc's (f, g)
    depends on n, so the sets on n sensors share no product with those
    on n + 1.
    """
    _check_oracle_n(N, "brute_force_table")
    regime = Regime(geometry, Density.DENSE)
    if geometry is Geometry.CIRCLE:
        c: dict[tuple[int, int], int] = {}
        for n in range(N + 1):
            c.update(brute_force_dense(n, geometry).c)
        return CountTable(c, regime)
    totals, B = _line_walk(N)
    return CountTable({(n, k): v for n, total in enumerate(totals)
                       for k, v in _unpack(total, B).items()}, regime)


def count_full_support_subspaces(dim: int) -> int:
    """Subspaces of the dim-dimensional binary vector space whose basis
    vectors jointly touch every coordinate.

    Subspaces are enumerated once each through their reduced row echelon
    form: choose pivot columns, then fill the free entries to the right
    of each pivot in non-pivot columns.
    """
    if dim > 6:
        raise SizeLimit("subspace enumeration is limited to dim <= 6")
    if dim < 0:
        raise ValueError("dim must be nonnegative")
    full = (1 << dim) - 1
    count = 0
    for r in range(dim + 1):
        for pivots in combinations(range(dim), r):
            free_slots = []
            for i, p in enumerate(pivots):
                for col in range(p + 1, dim):
                    if col not in pivots:
                        free_slots.append((i, col))
            for bits in range(1 << len(free_slots)):
                basis = [1 << p for p in pivots]
                for idx, (i, col) in enumerate(free_slots):
                    if (bits >> idx) & 1:
                        basis[i] |= 1 << col
                support = 0
                for b in basis:
                    support |= b
                if support == full:
                    count += 1
    return count
