import hashlib
import itertools
from math import comb

import pytest

from convexcodes import counting
from convexcodes.core import (
    BitVector,
    Geometry,
    InternalError,
    SizeLimit,
    is_discrete_interval,
    row_stats,
)
from convexcodes.counting import (
    BivariatePoly,
    brute_force_dense,
    brute_force_table,
    count_full_support_subspaces,
    count_sparse,
    gf_dense_circular,
    gf_dense_linear,
    valid_dense_rows,
)

LINE_TOTALS = [1, 2, 6, 26, 158, 1330]
# the halved tail 3, 13, 87, 841 is OEIS A001831; the n = 5 total is
# also confirmed by the grouped oracle and a literal subset enumeration
CIRCLE_TOTALS = [1, 2, 6, 26, 174, 1682]
# sha256 of repr(sorted(table.c.items())) for the (16, 40) tables as the
# BivariatePoly expansion computed them
LINE_16_40_SHA256 = (
    "d8d3d160c9a9feb6f01e9679d114fa5ff924d76f6cc43ac7bd9abe8460fc20f7")
CIRCLE_16_40_SHA256 = (
    "852fd2149904950e135218dd100c5457933f9b30a0a6c269ac27bb195ba22ab0")
# sha256 of repr([sorted(brute_force_dense(n, g).c.items()) for n in
# range(13)]), as the oracle computed it when it rebuilt every set's
# product from its factors
ORACLE_12_SHA256 = {
    Geometry.LINE:
    "a07c52d181377d3c1f3b3a4410217e0feedade08e7db50a8cb571d89263e4917",
    Geometry.CIRCLE:
    "9c1ad765604b420e1ad5d1ce20225b5c020fe444bb2cb91394ee5dab1718c395",
}


def totals(table, n_max, k_cap):
    return [
        sum(table.count(n, k) for k in range(k_cap + 1)) for n in range(n_max + 1)
    ]


def _literal_rows(n, geometry):
    # the row universe by its definition: every nonzero word that is a
    # discrete interval, in mask order
    return [BitVector(n, m) for m in range(1, 1 << n)
            if is_discrete_interval(BitVector(n, m), geometry)]


def _grouped_reference(n, geometry):
    # the oracle's method on dicts, the tests' reference: over each set F
    # of realized f-values, each f in F takes a nonempty subset of its
    # rows whose g avoids F, convolved with binomials; the circle's
    # all-one row doubles every count; returns the table's c mapping
    if n == 0:
        return {(0, 0): 1}
    rows = _literal_rows(n, geometry)
    special = sum(1 for r in rows if geometry is Geometry.CIRCLE and r.is_ones)
    stats = [row_stats(r, geometry) for r in rows
             if not (geometry is Geometry.CIRCLE and r.is_ones)]
    f_values = sorted({f for f, _ in stats})
    counts = {0: 1}
    for size in range(1, len(f_values) + 1):
        for F in itertools.combinations(f_values, size):
            per_f = [sum(1 for ff, gg in stats if ff == f and gg not in F)
                     for f in F]
            if 0 in per_f:
                continue
            acc = {0: 1}
            for c in per_f:
                nxt = {}
                for used, ways in acc.items():
                    for take in range(1, c + 1):
                        nxt[used + take] = (nxt.get(used + take, 0)
                                            + ways * comb(c, take))
                acc = nxt
            for k, ways in acc.items():
                counts[k] = counts.get(k, 0) + ways
    if special:
        doubled = {}
        for k, ways in counts.items():
            doubled[k] = doubled.get(k, 0) + ways
            doubled[k + 1] = doubled.get(k + 1, 0) + ways
        counts = doubled
    return {(n, k): v for k, v in counts.items()}


class TestBivariatePoly:
    def test_arithmetic(self):
        x = BivariatePoly.of({(1, 0): 1}, 4, 4)
        y = BivariatePoly.of({(0, 1): 1}, 4, 4)
        p = (x + y).pow(2)
        assert p.coeff(2, 0) == 1
        assert p.coeff(1, 1) == 2
        assert p.coeff(0, 2) == 1

    def test_truncation(self):
        x = BivariatePoly.of({(1, 0): 1}, 2, 2)
        p = x.pow(5)
        assert p.coefficients == {}

    def test_eval_y(self):
        p = BivariatePoly.of({(1, 0): 1, (1, 1): 2, (2, 3): 1}, 3, 3)
        assert p.eval_y(1) == {1: 3, 2: 1}
        assert p.eval_y(0) == {1: 1, 2: 0}

    def test_cap_mismatch_rejected(self):
        a = BivariatePoly.const(1, 2, 2)
        b = BivariatePoly.const(1, 3, 2)
        with pytest.raises(ValueError):
            a + b


class TestSparseCounts:
    def test_line_closed_form(self):
        # C(n+1, 2) valid rows on the line, any k of them
        assert count_sparse(3, 2, Geometry.LINE) == comb(6, 2)
        assert count_sparse(0, 0, Geometry.LINE) == 1
        assert count_sparse(0, 1, Geometry.LINE) == 0

    def test_circle_closed_form_and_carve_out(self):
        assert count_sparse(3, 2, Geometry.CIRCLE) == comb(7, 2)
        assert count_sparse(1, 1, Geometry.CIRCLE) == 1
        assert count_sparse(1, 2, Geometry.CIRCLE) == 0
        assert count_sparse(0, 0, Geometry.CIRCLE) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            count_sparse(-1, 0, Geometry.LINE)

    def test_matches_row_universe(self):
        for geometry in (Geometry.LINE, Geometry.CIRCLE):
            for n in range(0, 7):
                rows = len(valid_dense_rows(n, geometry))
                for k in range(0, rows + 2):
                    assert count_sparse(n, k, geometry) == comb(rows, k)


class TestValidRows:
    def test_row_universe_sizes(self):
        for n in range(0, 8):
            line = valid_dense_rows(n, Geometry.LINE)
            circle = valid_dense_rows(n, Geometry.CIRCLE)
            assert len(line) == comb(n + 1, 2)
            if n >= 2:
                assert len(circle) == n * n - n + 1
            assert all(is_discrete_interval(r, Geometry.LINE) for r in line)
            assert set(line) <= set(circle)


class TestGoldenTotals:
    def test_line_totals(self):
        table = gf_dense_linear(5, 20)
        assert totals(table, 5, 20) == LINE_TOTALS

    def test_circle_totals(self):
        table = gf_dense_circular(5, 25)
        assert totals(table, 5, 25) == CIRCLE_TOTALS

    def test_line_n2_by_k(self):
        table = gf_dense_linear(2, 5)
        assert [table.count(2, k) for k in range(4)] == [1, 3, 2, 0]

    def test_zero_sensor_base_case(self):
        assert gf_dense_linear(0, 3).count(0, 0) == 1
        assert gf_dense_circular(0, 3).count(0, 0) == 1


class TestOracleAgreement:
    def test_line_gf_vs_brute(self):
        table = gf_dense_linear(6, 25)
        for n in range(0, 7):
            bf = brute_force_dense(n, Geometry.LINE)
            for k in range(0, 26):
                assert table.count(n, k) == bf.count(n, k), (n, k)

    def test_circle_gf_vs_brute(self):
        table = gf_dense_circular(6, 35)
        for n in range(0, 7):
            bf = brute_force_dense(n, Geometry.CIRCLE)
            for k in range(0, 36):
                assert table.count(n, k) == bf.count(n, k), (n, k)

    def test_brute_vs_literal_subsets(self):
        # triple-check the grouped oracle against literal subset enumeration
        for geometry in (Geometry.LINE, Geometry.CIRCLE):
            for n in range(0, 5):
                rows = valid_dense_rows(n, geometry)
                literal = {0: 1}
                for size in range(1, len(rows) + 1):
                    total = 0
                    for sub in itertools.combinations(rows, size):
                        stats = {}
                        ok = True
                        fs = set()
                        gs = set()
                        for r in sub:
                            if geometry is Geometry.CIRCLE and r.is_ones:
                                continue
                            f, g = row_stats(r, geometry)
                            fs.add(f)
                            gs.add(g)
                        if fs & gs:
                            ok = False
                        if ok:
                            total += 1
                    literal[size] = total
                bf = brute_force_dense(n, geometry)
                for k, v in literal.items():
                    assert bf.count(n, k) == v, (geometry, n, k)

    @pytest.mark.parametrize("geometry", [Geometry.LINE, Geometry.CIRCLE])
    def test_packed_oracle_vs_grouped_reference(self, geometry):
        for n in range(0, 10):
            assert brute_force_dense(n, geometry).c == _grouped_reference(
                n, geometry), n

    @pytest.mark.parametrize("geometry", [Geometry.LINE, Geometry.CIRCLE])
    def test_oracle_digest_to_n12(self, geometry):
        tables = [sorted(brute_force_dense(n, geometry).c.items())
                  for n in range(13)]
        assert hashlib.sha256(repr(tables).encode()).hexdigest() == (
            ORACLE_12_SHA256[geometry])
        table = brute_force_table(12, geometry).c
        rows = [sorted((key, v) for key, v in table.items() if key[0] == n)
                for n in range(13)]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            ORACLE_12_SHA256[geometry])

    def test_two_rows_with_one_f_and_g_fail_the_self_check(self, monkeypatch):
        # (f, g) names a row, so row ends that repeat a pair are a bug
        monkeypatch.setattr(counting, "_row_ends",
                            lambda mask, n, geometry: (2, 0))
        with pytest.raises(InternalError, match=r"share \(f, g\) = \(2, 0\)"):
            brute_force_dense(2, Geometry.LINE)

    def test_line_row_with_g_not_below_f_fails_the_self_check(
            self, monkeypatch):
        # the line's depth-first products rest on g < f for every row
        monkeypatch.setattr(counting, "_row_ends",
                            lambda mask, n, geometry: (1, 1))
        with pytest.raises(InternalError, match="g = 1 >= f = 1"):
            brute_force_dense(1, Geometry.LINE)

    @pytest.mark.parametrize("geometry", [Geometry.LINE, Geometry.CIRCLE])
    def test_row_universe_is_the_literal_filter(self, geometry):
        for n in range(0, 11):
            assert valid_dense_rows(n, geometry) == _literal_rows(n, geometry), n

    def test_truncation_soundness(self):
        # enlarging the caps never changes coefficients inside them
        small = gf_dense_linear(4, 6)
        large = gf_dense_linear(6, 12)
        for n in range(0, 5):
            for k in range(0, 7):
                assert small.count(n, k) == large.count(n, k)


class TestSubspaceBijection:
    def test_pinned_value(self):
        assert count_full_support_subspaces(3) == 6

    def test_small_values(self):
        assert count_full_support_subspaces(0) == 1
        assert count_full_support_subspaces(1) == 1
        assert count_full_support_subspaces(2) == 2

    def test_bijection_with_dense_line_totals(self):
        table = gf_dense_linear(5, 20)
        for n in range(0, 6):
            assert count_full_support_subspaces(n + 1) == totals(table, 5, 20)[n]

    def test_guards(self):
        with pytest.raises(SizeLimit):
            count_full_support_subspaces(7)
        with pytest.raises(ValueError):
            count_full_support_subspaces(-1)
        with pytest.raises(SizeLimit):
            brute_force_dense(15, Geometry.LINE)

    @pytest.mark.parametrize("geometry", [Geometry.LINE, Geometry.CIRCLE])
    def test_brute_force_negative_n(self, geometry):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            brute_force_dense(-1, geometry)

    @pytest.mark.parametrize("geometry", [Geometry.LINE, Geometry.CIRCLE])
    def test_brute_force_table_edges(self, geometry):
        # the table's edge cases are brute_force_dense's
        assert brute_force_table(0, geometry).c == brute_force_dense(
            0, geometry).c == {(0, 0): 1}
        with pytest.raises(ValueError, match="n must be nonnegative"):
            brute_force_table(-1, geometry)
        with pytest.raises(SizeLimit,
                           match="brute_force_table is limited to n <= 14"):
            brute_force_table(15, geometry)


class TestSeriesKernel:
    @staticmethod
    def digest(table):
        return hashlib.sha256(repr(sorted(table.c.items())).encode()).hexdigest()

    def test_golden_digests(self):
        assert self.digest(gf_dense_linear(16, 40)) == LINE_16_40_SHA256
        assert self.digest(gf_dense_circular(16, 40)) == CIRCLE_16_40_SHA256

    def test_circle_truncation_soundness(self):
        # enlarging the caps never changes coefficients inside them
        small = gf_dense_circular(4, 6)
        large = gf_dense_circular(7, 20)
        for n in range(0, 5):
            for k in range(0, 7):
                assert small.count(n, k) == large.count(n, k)

    @pytest.mark.parametrize("gf", [gf_dense_linear, gf_dense_circular])
    def test_edge_caps(self, gf):
        # N = 0: only the empty set on no sensors
        assert gf(0, 0).c == {(0, 0): 1}
        assert gf(0, 5).c == {(0, 0): 1}
        # K = 0: one empty set for every n
        assert gf(6, 0).c == {(n, 0): 1 for n in range(7)}

    @pytest.mark.parametrize("geometry, gf", [
        (Geometry.LINE, gf_dense_linear),
        (Geometry.CIRCLE, gf_dense_circular),
    ])
    def test_agrees_with_brute_force_to_n8(self, geometry, gf):
        # K = 60 exceeds the largest set on 8 sensors in either geometry
        table = gf(8, 60)
        for n in range(0, 9):
            bf = brute_force_dense(n, geometry)
            assert {k: v for (nn, k), v in table.c.items() if nn == n} == {
                k: v for (_, k), v in bf.c.items()}, n

    @pytest.mark.parametrize("geometry, gf, K", [
        (Geometry.LINE, gf_dense_linear, 110),
        (Geometry.CIRCLE, gf_dense_circular, 190),
    ])
    def test_agrees_with_brute_force_to_n14(self, geometry, gf, K):
        # K exceeds the largest set on 14 sensors: C(15, 2) = 105 rows on
        # the line, 14 * 13 + 1 = 183 on the circle
        table = gf(14, K)
        for n in range(0, 15):
            bf = brute_force_dense(n, geometry)
            assert {k: v for (nn, k), v in table.c.items() if nn == n} == {
                k: v for (_, k), v in bf.c.items()}, n
        assert table.c == brute_force_table(14, geometry).c

    @pytest.mark.parametrize("gf", [gf_dense_linear, gf_dense_circular])
    @pytest.mark.parametrize("N, K", [(-1, 3), (3, -2), (-1, -1)])
    def test_negative_caps_rejected(self, gf, N, K):
        with pytest.raises(ValueError):
            gf(N, K)
