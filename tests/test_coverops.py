"""Cover containers, dedup/combine semantics, stats lines, and NMI."""

import logging
import math
import random
from collections import Counter

import numpy as np
import pytest

from commbench import (
    Cover,
    DataError,
    Partition,
    assignment_matrix,
    combine_runs,
    cover_stats,
    dedup,
    import_cover,
    jaccard,
    nmi,
    serialize_cover,
    write_cover,
)
from commbench.coverops import DEDUP_EPSILON, format_cover_stats
from commbench import Graph
from conftest import random_cover_communities, random_partition
from oracles import (
    dedup_postcondition_holds,
    jaccard_oracle,
    nmi_oracle,
    smallest_median_oracle,
)


class TestJaccard:
    def test_hand_values(self):
        assert jaccard({1, 2, 3}, {2, 3, 4}) == pytest.approx(0.5, abs=1e-15)
        assert jaccard({1, 2, 3, 4}, {1, 2, 3, 4, 5}) == pytest.approx(0.8, abs=1e-15)

    def test_disjoint_is_zero(self):
        assert jaccard({1, 2}, {3, 4}) == 0.0

    def test_identical_is_one(self):
        assert jaccard({5, 6, 7}, {5, 6, 7}) == 1.0

    def test_matches_oracle_on_random_sets(self, rng):
        for _ in range(200):
            a = set(rng.sample(range(12), rng.randint(1, 8)))
            b = set(rng.sample(range(12), rng.randint(1, 8)))
            assert jaccard(a, b) == pytest.approx(jaccard_oracle(a, b), abs=1e-15)


class TestPartition:
    def test_assignment_densified_in_first_seen_order(self):
        p = Partition(["x", 9, "x", "y", 9])
        assert p.assignment == (0, 1, 0, 2, 1)
        assert p.n_communities == 3

    def test_equal_groupings_compare_equal(self):
        assert Partition([5, 5, 2, 2]) == Partition(["a", "a", "b", "b"])
        assert Partition([0, 1]) != Partition([0, 0])

    def test_communities_and_sizes(self):
        p = Partition([1, 0, 1, 1])
        assert p.communities() == [[0, 2, 3], [1]]
        assert p.sizes() == [3, 1]
        assert p.n == 4


class TestCover:
    def test_rejects_empty_universe(self):
        with pytest.raises(DataError, match="at least one node"):
            Cover(0, [])

    def test_rejects_empty_community(self):
        with pytest.raises(DataError, match="empty community"):
            Cover(3, [set()])

    def test_rejects_member_outside_universe(self):
        with pytest.raises(DataError, match="outside universe"):
            Cover(3, [{0, 3}])

    def test_len_and_iteration(self):
        c = Cover(5, [{0, 1}, {2, 3, 4}])
        assert len(c) == 2
        assert list(c) == [frozenset({0, 1}), frozenset({2, 3, 4})]

    def test_dedupe_exact_keeps_first_occurrence(self):
        c = Cover(5, [{1, 2}, {3}, {2, 1}, {3}, {4}])
        assert c.communities == [frozenset({1, 2}), frozenset({3}), frozenset({4})]


class TestCoverSerialization:
    def test_sorted_by_size_then_label_list(self):
        g = Graph(["b", "a", "c", "d"], [(0, 1, 1.0), (2, 3, 1.0)])
        cover = Cover(4, [{2, 3}, {0, 1}, {1}])
        text = serialize_cover(cover, g)
        # labels sort lexicographically; "a b" precedes "c d" at equal size
        assert text == "a\na b\nc d\n"

    def test_empty_cover_serializes_empty(self):
        g = Graph(["a", "b"], [(0, 1, 1.0)])
        assert serialize_cover(Cover(2, []), g) == ""

    def test_write_then_import_round_trip(self, tmp_path):
        g = Graph([str(i) for i in range(6)], [(i, i + 1, 1.0) for i in range(5)])
        cover = Cover(6, [{0, 1, 2}, {2, 3}, {4, 5, 0}])
        path = tmp_path / "cover.txt"
        write_cover(cover, g, path)
        back = import_cover(path, g)
        assert set(back.communities) == set(cover.communities)


class TestImportCover:
    def test_comments_only_imports_empty_cover(self, tmp_path, caplog):
        g = Graph(["a", "b"], [(0, 1, 1.0)])
        path = tmp_path / "empty.txt"
        path.write_text("# produced upstream\n# nothing detected\n")
        with caplog.at_level(logging.WARNING, logger="commbench.covers"):
            cover = import_cover(path, g)
        assert len(cover) == 0
        assert cover.n == 2
        assert "zero communities" in caplog.text

    def test_file_without_any_line_is_an_error(self, tmp_path):
        g = Graph(["a", "b"], [(0, 1, 1.0)])
        path = tmp_path / "blank.txt"
        path.write_text("\n   \n")
        with pytest.raises(DataError, match="empty cover file"):
            import_cover(path, g)

    def test_unknown_label_reports_line(self, tmp_path):
        g = Graph(["a", "b"], [(0, 1, 1.0)])
        path = tmp_path / "bad.txt"
        path.write_text("a b\nb zz\n")
        with pytest.raises(DataError, match=r"bad\.txt:2"):
            import_cover(path, g)

    def test_duplicate_lines_dropped_with_warning(self, tmp_path, caplog):
        g = Graph(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 1.0)])
        path = tmp_path / "dup.txt"
        path.write_text("a b\nb a\nc\n# note\na  b\n")
        with caplog.at_level(logging.WARNING, logger="commbench.covers"):
            cover = import_cover(path, g)
        assert cover.communities == [frozenset({0, 1}), frozenset({2})]
        assert "dup.txt: dropped 2 exact-duplicate communities" in caplog.text


class TestDedup:
    def test_worked_example(self):
        cover = Cover(11, [{1, 2, 3, 4}, {1, 2, 3, 4, 5}, {7, 8, 9}, {6, 7, 8, 9}])
        out = dedup(cover)
        # size-ascending scan retains {7,8,9} first, then {1,2,3,4}; the two
        # supersets overlap a retained set at J = 3/4 and 4/5 and are dropped
        assert out.communities == [frozenset({7, 8, 9}), frozenset({1, 2, 3, 4})]

    def test_boundary_similarity_is_kept(self):
        # J({0,1}, {0,1,2,3}) == 0.5 exactly: not strictly above the cutoff
        out = dedup(Cover(4, [{0, 1, 2, 3}, {0, 1}]))
        assert set(out.communities) == {frozenset({0, 1}), frozenset({0, 1, 2, 3})}

    def test_equal_size_tie_keeps_lexicographically_earlier(self):
        out = dedup(Cover(5, [{0, 1, 2, 4}, {0, 1, 2, 3}]))
        assert out.communities == [frozenset({0, 1, 2, 3})]

    def test_epsilon_domain(self):
        cover = Cover(3, [{0, 1}])
        for eps in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="epsilon"):
                dedup(cover, eps)
        assert len(dedup(cover, 0.999)) == 1

    def test_postcondition_and_idempotence_on_random_covers(self, rng):
        for _ in range(100):
            n = rng.randint(3, 14)
            comms = random_cover_communities(rng, n)
            eps = rng.choice([0.3, 0.5, 0.7])
            out = dedup(Cover(n, comms), eps)
            assert dedup_postcondition_holds(out.communities, eps)
            again = dedup(out, eps)
            assert again.communities == out.communities
            # every dropped candidate near-duplicates something retained
            dropped = set(frozenset(c) for c in comms) - set(out.communities)
            for d in dropped:
                assert any(jaccard(d, r) > eps for r in out.communities)

    def test_output_in_canonical_order(self, rng):
        for _ in range(25):
            n = rng.randint(3, 12)
            out = dedup(Cover(n, random_cover_communities(rng, n)))
            key = [(len(c), sorted(c)) for c in out.communities]
            assert key == sorted(key)


class TestCombineRuns:
    def test_requires_at_least_one_cover(self):
        with pytest.raises(DataError, match="no covers"):
            combine_runs([])

    def test_rejects_mismatched_universes(self):
        with pytest.raises(DataError, match="different node universes"):
            combine_runs([Cover(3, [{0}]), Cover(4, [{0}])])

    def test_exact_duplicates_across_runs_collapse(self):
        a = Cover(6, [{0, 1, 2}])
        b = Cover(6, [{0, 1, 2}, {3, 4, 5}])
        out = combine_runs([a, b])
        assert set(out.communities) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}

    def test_near_duplicates_across_runs_dropped(self):
        a = Cover(6, [{0, 1, 2, 3}])
        b = Cover(6, [{0, 1, 2}])
        out = combine_runs([a, b])
        assert out.communities == [frozenset({0, 1, 2})]

    def test_input_order_does_not_change_communities(self, rng):
        for _ in range(40):
            n = rng.randint(4, 12)
            covers = [
                Cover(n, random_cover_communities(rng, n))
                for _ in range(rng.randint(2, 4))
            ]
            baseline = combine_runs(covers).communities
            shuffled = covers[:]
            rng.shuffle(shuffled)
            assert combine_runs(shuffled).communities == baseline


class TestAssignmentMatrix:
    def test_hand_matrix(self):
        am = assignment_matrix(Cover(4, [{0, 1}, {1, 2, 3}]))
        assert am.matrix.dtype == np.uint8
        assert am.matrix.tolist() == [[1, 0], [1, 1], [0, 1], [0, 1]]

    def test_column_sums_are_community_sizes(self, rng):
        for _ in range(30):
            n = rng.randint(2, 12)
            comms = random_cover_communities(rng, n)
            am = assignment_matrix(Cover(n, comms))
            assert am.matrix.shape == (n, len(comms))
            assert am.matrix.sum(axis=0).tolist() == [len(c) for c in comms]
            for v in range(n):
                assert am.matrix[v].sum() == sum(1 for c in comms if v in c)

    def test_matches_dense_oracle(self, rng):
        for _ in range(100):
            n = rng.randint(1, 12)
            comms = random_cover_communities(rng, n)
            am = assignment_matrix(Cover(n, comms))
            assert am.matrix.tolist() == [[int(v in c) for c in comms] for v in range(n)]


class TestCoverStats:
    def test_odd_median_and_uncovered(self):
        cover = Cover(6, [{0, 1, 2, 3}, {0, 1}, {4}])
        stats = cover_stats(cover)
        assert stats.community_count == 3
        # smallest containing sizes: [1, 2, 2, 4, 4] -> median 2
        assert stats.median_smallest == 2.0
        assert stats.uncovered_nodes == 1
        assert stats.size_histogram == {1: 1, 2: 1, 4: 1}

    def test_even_median_averages_middles(self):
        stats = cover_stats(Cover(4, [{0, 1}, {0, 2, 3}]))
        assert stats.median_smallest == pytest.approx(2.5)

    def test_matches_oracle_on_random_covers(self, rng):
        for _ in range(200):
            n = rng.randint(1, 14)
            comms = random_cover_communities(rng, n)
            stats = cover_stats(Cover(n, comms))
            median, uncovered = smallest_median_oracle(n, comms)
            # a numpy scalar would print differently in stats.tsv
            assert type(stats.median_smallest) is float
            assert (stats.median_smallest, stats.uncovered_nodes) == (median, uncovered)
            assert stats.size_histogram == dict(sorted(Counter(map(len, comms)).items()))

    def test_empty_cover_has_no_median(self):
        stats = cover_stats(Cover(5, []))
        assert stats.median_smallest is None
        assert stats.uncovered_nodes == 5
        assert stats.community_count == 0
        assert stats.size_histogram == {}

    def test_format_hand_line(self):
        line = format_cover_stats(cover_stats(Cover(6, [{0, 1, 2, 3}, {0, 1}, {4}])))
        assert line == "3\t2.0\t1\t1:1,2:1,4:1"
        assert format_cover_stats(cover_stats(Cover(5, []))) == "0\tNA\t5\t"


class TestNMI:
    def test_identical_partitions_score_one(self):
        p = Partition([0, 1, 1, 2])
        assert nmi(p, Partition(["a", "b", "b", "c"])) == 1.0

    def test_single_community_pair_scores_one(self):
        assert nmi(Partition([0, 0, 0]), Partition([7, 7, 7])) == 1.0

    def test_zero_entropy_against_different_scores_zero(self):
        assert nmi(Partition([0, 0, 0, 0]), Partition([0, 0, 1, 1])) == 0.0
        assert nmi(Partition([0, 1, 0, 1]), Partition([2, 2, 2, 2])) == 0.0

    def test_singletons_versus_two_halves_is_half(self):
        p = Partition(list(range(8)))
        q = Partition([0, 0, 0, 0, 1, 1, 1, 1])
        assert nmi(p, q) == pytest.approx(0.5, abs=1e-15)

    def test_independent_interleaving_is_zero(self):
        assert nmi(Partition([0, 1, 0, 1]), Partition([0, 0, 1, 1])) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_partitions_must_share_universe(self):
        with pytest.raises(DataError, match="different node universes"):
            nmi(Partition([0, 1]), Partition([0, 1, 2]))

    def test_empty_partitions_rejected(self):
        with pytest.raises(DataError, match="empty"):
            nmi(Partition([]), Partition([]))

    def test_matches_oracle_and_symmetric(self, rng):
        for _ in range(150):
            n = rng.randint(2, 16)
            a = random_partition(rng, n)
            b = random_partition(rng, n)
            p, q = Partition(a), Partition(b)
            got = nmi(p, q)
            assert got == pytest.approx(nmi_oracle(a, b), abs=1e-12)
            assert got == pytest.approx(nmi(q, p), abs=1e-15)
            assert 0.0 <= got <= 1.0

    def test_natural_log_normalization(self):
        # groups of sizes 1,1,2 against two halves: I = ln 2, Hp = 1.5 ln 2,
        # Hq = ln 2, so the score is 2/(2.5) = 0.8
        p = Partition([0, 1, 2, 2])
        q = Partition([0, 0, 1, 1])
        assert nmi(p, q) == pytest.approx(2 * math.log(2) / (2.5 * math.log(2)), abs=1e-15)

    def test_entropies_are_left_to_right_sums(self, compensated_sum):
        # group sizes 1, 1, 1, 2, 2, 3: a compensated sum moves the last bit
        p = Partition([0, 1, 2, 3, 3, 4, 4, 5, 5, 5])
        assert nmi(p, Partition([0] * 5 + [1] * 5)) == 0.5803090668322534


def test_default_dedup_epsilon():
    assert DEDUP_EPSILON == 0.5
