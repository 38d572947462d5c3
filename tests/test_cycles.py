import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jahangir import (
    JahangirParams,
    ParameterDomainError,
    SizeGuardError,
    build_jahangir,
    census_j2m,
    find_simple_cycles,
    verify_census,
)
from jahangir.cycles import _edge_set_is_simple_cycle


class TestCensusRecords:
    def test_record_count_is_m_squared(self):
        for m in range(3, 13):
            assert len(census_j2m(m)) == m * m

    def test_m3_length_profile(self):
        records = census_j2m(3)
        lengths = sorted(r.length for r in records)
        assert lengths == [4, 4, 4, 6, 6, 6, 8, 8, 8]

    def test_m4_histogram(self):
        records = census_j2m(4)
        hist = {}
        for r in records:
            hist[r.length] = hist.get(r.length, 0) + 1
        assert hist == {4: 4, 6: 4, 8: 4, 10: 4}

    def test_span_sizes_and_claimed_lengths(self):
        for m in range(3, 9):
            for r in census_j2m(m):
                assert 1 <= len(r.spoke_span) <= m
                assert r.length == 2 * (len(r.spoke_span) + 1)

    # the flag is the proven k < m; the checker on the built graph is the oracle

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 40))
    def test_short_spans_are_simple_cycles(self, m):
        g = build_jahangir(JahangirParams(2, m))
        for r in census_j2m(m):
            if len(r.spoke_span) < m:
                assert r.is_simple_cycle
                assert _edge_set_is_simple_cycle(g, r.edge_indices)
                assert len(r.edge_indices) == r.length

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 40))
    def test_full_spans_are_degenerate(self, m):
        # joining all m inner cycles deletes every shared spoke: what is
        # left is the rim plus one spoke, one edge short of the claimed
        # length and not a cycle at all
        g = build_jahangir(JahangirParams(2, m))
        full = [r for r in census_j2m(m) if len(r.spoke_span) == m]
        assert len(full) == m
        for r in full:
            assert not r.is_simple_cycle
            assert not _edge_set_is_simple_cycle(g, r.edge_indices)
            assert len(r.edge_indices) == 2 * m + 1
            assert r.length == 2 * (m + 1)

    def test_unit_spans_are_inner_cycles(self):
        m = 5
        records = [r for r in census_j2m(m) if len(r.spoke_span) == 1]
        assert len(records) == m
        # inner cycle t: rim edges 2t-2, 2t-1 plus spokes t and t+1
        nm = 2 * m
        for t, r in enumerate(records, start=1):
            expected = sorted(
                [2 * t - 2, 2 * t - 1, nm + t - 1, nm + (t % m)]
            )
            assert list(r.edge_indices) == expected

    def test_m_below_three_rejected(self):
        with pytest.raises(ParameterDomainError):
            census_j2m(2)

    def test_empty_edge_set_is_not_a_cycle(self):
        assert not _edge_set_is_simple_cycle(build_jahangir(JahangirParams(2, 3)), ())

    def test_repeated_edge_is_not_a_cycle(self):
        # edge 0 twice touches two vertices, each twice: no simple 2-cycle
        assert not _edge_set_is_simple_cycle(build_jahangir(JahangirParams(2, 3)), (0, 0))


class TestGenericCycleFinder:
    def test_triangle(self, triangle):
        assert find_simple_cycles(triangle) == {frozenset({0, 1, 2})}

    def test_four_cycle(self, four_cycle):
        assert find_simple_cycles(four_cycle) == {frozenset({0, 1, 2, 3})}

    def test_k4_has_seven(self, k4):
        # four triangles plus three quadrilaterals
        cycles = find_simple_cycles(k4)
        assert len(cycles) == 7
        sizes = sorted(len(c) for c in cycles)
        assert sizes == [3, 3, 3, 3, 4, 4, 4]

    def test_tree_has_none(self, star5):
        assert find_simple_cycles(star5) == set()

    def test_jahangir_true_counts(self):
        for m in range(3, 7):
            g = build_jahangir(JahangirParams(2, m))
            assert len(find_simple_cycles(g)) == m * m - m + 1


class TestVerifyCensus:
    def test_reconciliation_m3_to_m6(self):
        for m in range(3, 7):
            report = verify_census(m)
            assert report.record_count == m * m
            assert report.simple_record_count == m * (m - 1)
            assert report.generic_count == m * m - m + 1
            assert report.simple_records_found_generically
            # the one cycle the joining construction can never produce
            # is the rim, made of all 2m rim edges
            assert report.generic_missing_from_census == (tuple(range(2 * m)),)
            assert len(report.degenerate_spans) == m
            assert all(len(s) == m for s in report.degenerate_spans)
            assert not report.claim_matches_generic

    def test_summary_mentions_counts(self):
        report = verify_census(4)
        text = report.summary()
        assert "16" in text and "13" in text

    def test_guard(self):
        with pytest.raises(SizeGuardError):
            verify_census(9)
        with pytest.raises(ParameterDomainError):
            verify_census(2)
