"""Boosted-tree trainer: splits, leaves, determinism, pinned trees."""

import hashlib
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from commbench import (
    DataError,
    GBDTParams,
    LabeledDataset,
    TreeEnsemble,
    train_gbdt,
)
from commbench import gbdt
from commbench.gbdt import (
    LEAF_CLIP,
    RegressionTree,
    fit_regression_tree,
    seed_entropy,
)
from oracles import (
    log_loss_oracle,
    regression_tree_oracle,
    renumber_tree,
    subsample_counts_oracle,
    tree_descent_oracle,
)

FAST = GBDTParams(
    learning_rate=0.5, n_trees=30, min_samples_split=2, subsample=1.0, max_depth=2
)


def dataset_from(X, raw_labels):
    classes = sorted(set(raw_labels))
    index = {c: k for k, c in enumerate(classes)}
    return LabeledDataset(
        features=np.asarray(X),
        labels=np.array([index[c] for c in raw_labels], dtype=np.int64),
        classes=classes,
    )


def pinned_model():
    """Trees of depths 0-3 over 25 rounds of 4 classes."""
    X, _, _, _, _ = wide_tree_case(11)
    labels = [str(v) for v in np.random.default_rng(11).integers(0, 4, len(X))]
    params = GBDTParams(n_trees=25, subsample=0.6, min_samples_split=2, seed=3)
    return train_gbdt(dataset_from(X, labels), params)


def model_arrays(model):
    """Every tree's raw feature (as int64) and value bytes, in class then tree
    order, then the priors: equal for two models exactly when their trees and
    priors are equal bit for bit."""
    parts = [
        part
        for sequence in model.trees
        for tree in sequence
        for part in (tree.feature.astype(np.int64).tobytes(), tree.value.tobytes())
    ]
    return parts + [model.priors.tobytes()]


def model_digest(model):
    digest = hashlib.sha256()
    for part in model_arrays(model):
        digest.update(part)
    return digest.hexdigest()


def binary_feature_data(rows_per_class=20):
    X = [[0.0]] * rows_per_class + [[1.0]] * rows_per_class
    y = ["no"] * rows_per_class + ["yes"] * rows_per_class
    return dataset_from(X, y)


class TestParams:
    def test_defaults(self):
        p = GBDTParams()
        assert (p.learning_rate, p.n_trees, p.min_samples_split) == (0.005, 1000, 5)
        assert (p.subsample, p.max_depth, p.seed) == (0.4, 3, 0)
        p.validate()

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(learning_rate=0.0), "learning_rate"),
            (dict(learning_rate=-0.1), "learning_rate"),
            (dict(n_trees=0), "n_trees"),
            (dict(min_samples_split=1), "min_samples_split"),
            (dict(subsample=0.0), "subsample"),
            (dict(subsample=1.1), "subsample"),
            (dict(max_depth=0), "max_depth"),
        ],
    )
    def test_validation_errors(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            GBDTParams(**kwargs).validate()

    def test_subsample_one_is_allowed(self):
        GBDTParams(subsample=1.0).validate()


class TestTraining:
    def test_single_observed_class_needs_no_trees(self):
        data = dataset_from([[0.0], [1.0], [1.0]], ["only"] * 3)
        model = train_gbdt(data, FAST)
        assert model.trees == [[]]
        assert model.predict(np.array([[0.0], [1.0]])) == ["only", "only"]

    def test_empty_dataset_rejected(self):
        data = LabeledDataset(
            features=np.zeros((0, 2)),
            labels=np.zeros(0, dtype=np.int64),
            classes=["a", "b"],
        )
        with pytest.raises(DataError, match="empty dataset"):
            train_gbdt(data, FAST)

    def test_priors_are_log_class_frequencies(self):
        data = dataset_from([[0.0]] * 3 + [[1.0]], ["a", "a", "a", "b"])
        model = train_gbdt(data, GBDTParams(n_trees=1, subsample=1.0))
        assert model.priors == pytest.approx([math.log(0.75), math.log(0.25)])

    def test_learns_binary_separable_data(self):
        data = binary_feature_data()
        model = train_gbdt(data, FAST)
        assert model.predict(data.features) == ["no"] * 20 + ["yes"] * 20
        assert model.predict(np.array([[0.0], [1.0]])) == ["no", "yes"]

    def test_learns_three_one_hot_classes(self):
        X, y = [], []
        for k, name in enumerate(["left", "mid", "right"]):
            row = [0.0, 0.0, 0.0]
            row[k] = 1.0
            X += [row] * 10
            y += [name] * 10
        model = train_gbdt(dataset_from(X, y), FAST)
        assert model.predict(np.eye(3)) == ["left", "mid", "right"]

    def test_training_reduces_log_loss(self):
        data = binary_feature_data()
        model = train_gbdt(data, FAST)
        prior_scores = np.tile(model.priors, (len(data.labels), 1))
        trained = log_loss_oracle(model.decision_scores(data.features), data.labels)
        assert trained < log_loss_oracle(prior_scores, data.labels)

    def test_max_depth_bounds_split_count(self):
        data = binary_feature_data()
        model = train_gbdt(
            data, GBDTParams(n_trees=8, subsample=1.0, max_depth=1, min_samples_split=2)
        )
        for sequence in model.trees:
            for tree in sequence:
                splits = sum(1 for f in tree.feature if f >= 0)
                assert splits <= 1

    def test_min_samples_split_blocks_all_splits(self):
        data = binary_feature_data(rows_per_class=5)
        model = train_gbdt(
            data, GBDTParams(n_trees=4, subsample=1.0, min_samples_split=11)
        )
        for sequence in model.trees:
            for tree in sequence:
                assert tree.feature == [-1]

    def test_same_seed_same_model_bytes(self):
        data = binary_feature_data()
        params = GBDTParams(n_trees=12, subsample=0.5, seed=42)
        assert model_arrays(train_gbdt(data, params)) == model_arrays(
            train_gbdt(data, params)
        )

    def test_tree_arrays_are_pinned(self):
        # numpy's exp and log differ in the last bit between its AVX-512 and
        # baseline x86-64 kernels, so each has its own digest; a change to
        # either digest changes the trained trees, and says why in CHANGES.md
        assert model_digest(pinned_model()) in (
            "9bddb005d291f85288c7b22499ab01f5c474bb553a15c2c761f1f1ed79b1ba72",
            "c5799c883c0ddfd5445159553a23ffe1a4084ce1173075dd52c2574f94aed514",
        )

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64, bool])
    def test_feature_dtype_leaves_model_unchanged(self, dtype):
        X, _, _, _, _ = wide_tree_case(5)
        labels = [str(v) for v in np.random.default_rng(5).integers(0, 3, len(X))]
        params = GBDTParams(n_trees=4, subsample=0.6, min_samples_split=2, seed=1)
        model = train_gbdt(dataset_from(X, labels), params)
        typed = train_gbdt(dataset_from(X.astype(dtype), labels), params)
        assert model_arrays(typed) == model_arrays(model)
        # so both score every dtype's features alike, bit for bit
        scores = model.decision_scores(X).tobytes()
        for features in (X, X.astype(dtype)):
            assert model.decision_scores(features).tobytes() == scores
            assert typed.decision_scores(features).tobytes() == scores
        assert typed.predict(X) == model.predict(X)

    def test_tie_split_prefers_lowest_feature(self):
        # two identical perfectly separating columns: gains tie exactly
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        g = np.array([-0.5, -0.5, 0.5, 0.5])
        h = np.full(4, 0.25)
        tree = fit_regression_tree(X, g, h, np.arange(4), FAST)
        assert tree.feature[0] == 0


NON_BINARY = [0.5, 2.0, -1.0, math.nan]


def features_holding(value):
    """0/1 features but value in column 1, and 3.0 in column 2 of an earlier row."""
    X = np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    X[2, 1] = value
    return X


def rejects_column_1(value):
    return pytest.raises(DataError, match=re.escape(f"feature column 1 holds {value!r}"))


class TestBinaryFeatureContract:
    """Any feature but 0 or 1 is a DataError naming the first column holding one."""

    @pytest.mark.parametrize("value", NON_BINARY)
    @pytest.mark.parametrize("labels", [["a", "b", "a", "b"], ["a"] * 4])
    def test_train_rejects(self, value, labels):
        data = dataset_from(features_holding(value), labels)
        with rejects_column_1(value):
            train_gbdt(data, FAST)

    @pytest.mark.parametrize("value", NON_BINARY)
    def test_fit_regression_tree_rejects(self, value):
        ones = np.ones(4)
        with rejects_column_1(value):
            fit_regression_tree(features_holding(value), ones, ones, np.arange(4), FAST)

    @pytest.mark.parametrize("value", NON_BINARY)
    def test_predict_rejects(self, value):
        X = features_holding(value)
        clean = features_holding(0.0)
        clean[0, 2] = 1.0
        model = train_gbdt(dataset_from(clean, ["a", "b", "a", "b"]), FAST)
        with rejects_column_1(value):
            model.predict(X)

    def test_integer_features_checked(self):
        X = features_holding(0.0).astype(np.uint8)
        X[2, 1] = 2
        with rejects_column_1(2.0):
            train_gbdt(dataset_from(X, ["a", "b", "a", "b"]), FAST)

    def test_negative_zero_is_zero(self):
        model = train_gbdt(binary_feature_data(), FAST)
        assert model.predict(np.array([[-0.0], [1.0]])) == ["no", "yes"]


class TestLeavesAndTrees:
    def test_leaf_values_clipped(self):
        X = np.zeros((1, 1))
        params = GBDTParams(min_samples_split=2)
        for gradient, expected in [(100.0, LEAF_CLIP), (-100.0, -LEAF_CLIP)]:
            tree = fit_regression_tree(
                X, np.array([gradient]), np.array([0.0]), np.array([0]), params
            )
            assert tree.value[0] == expected

    def test_newton_leaf_value(self):
        tree = fit_regression_tree(
            np.zeros((2, 1)),
            np.array([0.3, 0.1]),
            np.array([0.2, 0.2]),
            np.arange(2),
            GBDTParams(min_samples_split=5),
        )
        assert tree.value[0] == pytest.approx(0.4 / 0.4, rel=1e-9)

    def test_constant_column_cannot_split(self):
        # all rows share one feature value, so no cut exists
        tree = fit_regression_tree(
            np.full((6, 1), 1.0),
            np.array([1.0, -1.0] * 3),
            np.full(6, 0.25),
            np.arange(6),
            GBDTParams(min_samples_split=2),
        )
        assert tree.feature == [-1]

    @pytest.mark.parametrize("tol, splits", [(0.25, False), (0.125, True)])
    def test_split_must_gain_more_than_the_tolerance(self, monkeypatch, tol, splits):
        # the one split gains 0.5 ** 2 / 2 + 0 - 0.5 ** 2 / 4 = 0.25 exactly
        monkeypatch.setattr(gbdt, "GAIN_TOL", tol)
        tree = fit_regression_tree(
            np.array([[0.0], [0.0], [1.0], [1.0]]),
            np.array([0.5, 0.5, 0.0, 0.0]),
            np.full(4, 0.25),
            np.arange(4),
            GBDTParams(min_samples_split=2, max_depth=1),
        )
        assert tree.feature.tolist() == ([0, -1, -1] if splits else [-1])


def random_tree_case(seed):
    """0/1 columns over duplicated rows.

    g and h are multiples of 1/64, so every sum is exact in any order.
    """
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 2, (12, int(rng.integers(0, 7)))).astype(np.float64)
    n = int(rng.integers(1, 70))
    X = pool[rng.integers(0, len(pool), n)]
    g = rng.integers(-64, 65, n) / 64.0
    h = rng.integers(0, 17, n) / 64.0
    rows = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    params = GBDTParams(
        max_depth=int(rng.integers(1, 5)), min_samples_split=int(rng.integers(2, 7))
    )
    return X, g, h, rows, params


def wide_tree_case(seed):
    """Hundreds of 0/1 columns at about 1% density, a third of them copies.

    Copied columns tie exactly wherever they split, and so do columns that
    agree on a node's rows. g and h are multiples of 1/64, as above.
    """
    rng = np.random.default_rng(seed)
    d = int(rng.integers(200, 500))
    pool = rng.random((int(rng.integers(20, 150)), d)) < 0.01
    copies = rng.choice(d, d // 3, replace=False)
    pool[:, copies] = pool[:, rng.integers(0, d, copies.size)]
    n = int(rng.integers(30, 300))
    X = pool[rng.integers(0, len(pool), n)].astype(np.float64)
    g = rng.integers(-64, 65, n) / 64.0
    h = rng.integers(0, 17, n) / 64.0
    rows = np.sort(rng.choice(n, size=int(rng.integers(n // 2, n + 1)), replace=False))
    params = GBDTParams(
        max_depth=int(rng.integers(2, 5)), min_samples_split=int(rng.integers(2, 5))
    )
    return X, g, h, rows, params


TREE_CASES = [random_tree_case(seed) for seed in range(50)] + [
    wide_tree_case(seed) for seed in range(20)
]
TREE_IDS = [str(seed) for seed in range(50)] + [f"wide{seed}" for seed in range(20)]


class TestGrowerMatchesOracle:
    @pytest.mark.parametrize("case", TREE_CASES, ids=TREE_IDS)
    def test_node_for_node(self, case):
        X, g, h, rows, params = case
        tree = fit_regression_tree(X, g, h, rows, params)
        expected = regression_tree_oracle(
            X, g, h, rows, params.max_depth, params.min_samples_split
        )
        feature, value = renumber_tree(*expected)
        assert tree.feature.tolist() == feature
        assert tree.value.tolist() == value

    @pytest.mark.parametrize("case", TREE_CASES, ids=TREE_IDS)
    def test_scores_match_row_descent(self, case):
        # a one-tree ensemble with zero priors and learning rate 1 scores each
        # row with its leaf value
        X, g, h, rows, params = case
        model = TreeEnsemble(
            classes=["a"],
            priors=np.zeros(1),
            learning_rate=1.0,
            n_features=X.shape[1],
            trees=[[fit_regression_tree(X, g, h, rows, params)]],
        )
        expected = regression_tree_oracle(
            X, g, h, rows, params.max_depth, params.min_samples_split
        )
        assert model.decision_scores(X)[:, 0].tolist() == tree_descent_oracle(
            expected, X
        )


class TestWorkBound:
    def test_chunked_training_matches_unchunked(self, monkeypatch):
        # one class per group, one node per split-search block, one tree per
        # scoring step
        X, _, _, _, _ = wide_tree_case(3)
        labels = [str(v) for v in np.random.default_rng(3).integers(0, 4, len(X))]
        data = dataset_from(X, labels)
        params = GBDTParams(n_trees=5, subsample=0.7, min_samples_split=2, seed=9)
        whole = train_gbdt(data, params)
        whole_scores = whole.decision_scores(X)
        monkeypatch.setattr(gbdt, "WORK_ELEMENTS", 16)
        chunked = train_gbdt(data, params)
        assert model_arrays(chunked) == model_arrays(whole)
        assert np.array_equal(chunked.decision_scores(X), whole_scores)

    def test_huge_max_depth_is_capped(self):
        # a config may ask for any depth; past depth 20 every class grows its
        # trees alone, so the trees equal those at 64, and no 10**8-bit power
        # of two is built on the way
        X, _, _, _, _ = wide_tree_case(3)
        labels = [str(v) for v in np.random.default_rng(3).integers(0, 4, len(X))]
        data = dataset_from(X, labels)
        params = GBDTParams(n_trees=2, subsample=0.7, min_samples_split=2, max_depth=10**8)
        tracemalloc.start()
        try:
            deep = train_gbdt(data, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20
        assert model_arrays(deep) == model_arrays(train_gbdt(data, replace(params, max_depth=64)))


class TestCountDraw:
    """A round's row subsamples are drawn as (pattern, label) cell counts."""

    def cases(self):
        # 40 rows of 3 labels; pattern 1, 1, 1 is row 0's alone
        rng = np.random.default_rng(5)
        X = rng.random((40, 3)) < 0.5
        X[0] = [1, 1, 1]
        X[1:][(X[1:] == [1, 1, 1]).all(axis=1)] = [0, 0, 0]
        ids, values = gbdt._patterns(X)
        y = rng.integers(0, 3, 40)
        return ids, y, 3, len(values)

    def draw(self, cells, sub_size, K, P, seed):
        counts = np.empty((K, P), dtype=np.int64)
        cnt, pos = np.empty((K, P)), np.empty((K, P))
        gbdt._draw_counts(np.random.default_rng(seed), cells, sub_size, counts, cnt, pos)
        return cnt, pos

    def test_mean_counts_match_row_by_row_draw(self):
        ids, y, K, P = self.cases()
        cells = gbdt._cells(ids, y, K, P)
        n, s, R = len(y), 16, 2000
        sums = np.zeros((4, K, P))
        for seed in range(R):
            cnt, pos = self.draw(cells, s, K, P, seed)
            assert (cnt.sum(axis=1) == s).all() and (pos <= cnt).all()
            rows = subsample_counts_oracle(
                ids.tolist(), y.tolist(), K, s, np.random.default_rng(seed)
            )
            sums += np.stack([cnt, pos, *rows])
        mean_cnt, mean_pos, row_cnt, row_pos = sums / R
        # a cell of N rows shows up in a subsample a hypergeometric number of
        # times, with variance s (N/n) (1 - N/n) (n - s) / (n - 1); the means of
        # two independent R-draw samples must agree within 5 standard errors
        pattern_rows = np.bincount(ids, minlength=P)
        own_rows = np.array([np.bincount(ids[y == k], minlength=P) for k in range(K)])
        for got, want, N in (
            (mean_cnt, row_cnt, np.broadcast_to(pattern_rows, (K, P))),
            (mean_pos, row_pos, own_rows),
        ):
            var = s * (N / n) * (1 - N / n) * (n - s) / (n - 1)
            assert (np.abs(got - want) <= 5 * np.sqrt(2 * var / R) + 1e-12).all()
            assert (np.abs(got - s * N / n) <= 5 * np.sqrt(var / R) + 1e-12).all()

    def test_full_subsample_draws_every_row(self):
        ids, y, K, P = self.cases()
        cells = gbdt._cells(ids, y, K, P)
        cnt, pos = self.draw(cells, len(y), K, P, seed=0)
        rows = subsample_counts_oracle(
            ids.tolist(), y.tolist(), K, len(y), np.random.default_rng(0)
        )
        assert np.array_equal(cnt, rows[0]) and np.array_equal(pos, rows[1])
        assert np.array_equal(cnt, np.tile(np.bincount(ids), (K, 1)))


class TestPrediction:
    def test_pattern_scores_equal_rows_scored_alone(self):
        X, _, _, _, _ = random_tree_case(7)
        rng = np.random.default_rng(7)
        labels = [str(v) for v in rng.integers(0, 3, len(X))]
        data = dataset_from(X, labels)
        params = GBDTParams(n_trees=6, subsample=0.7, min_samples_split=2)
        model = train_gbdt(data, params)
        scores = model.decision_scores(X)
        alone = np.vstack([model.decision_scores(X[i : i + 1]) for i in range(len(X))])
        assert len(np.unique(X, axis=0)) < len(X)
        assert np.array_equal(scores, alone)

    def test_argmax_tie_takes_first_class(self):
        model = TreeEnsemble(
            classes=["alpha", "beta"],
            priors=np.zeros(2),
            learning_rate=0.1,
            n_features=1,
            trees=[[], []],
        )
        assert model.predict(np.array([[0.0]])) == ["alpha"]

    def test_child_outside_its_tree_rejected(self):
        # every tree's layout is checked before any row descends
        leaf = RegressionTree([-1], [0.0])
        for bad, message in [
            (
                RegressionTree([-1, 0, -1], [0.0, 0.0, 1.0]),
                "node 1 is split 0, whose children 1 and 2 do not follow it",
            ),
            (
                RegressionTree([0, -1, -1, -1], [0.0, 1.0, 2.0, 3.0]),
                "node 3 is extra; a split count of 1 means nodes 0..2",
            ),
            (
                RegressionTree([0, 0, -1, -1], [0.0, 0.0, 1.0, 2.0]),
                "node 4 is missing; a split count of 2 means nodes 0..4",
            ),
            (
                RegressionTree([], []),
                "node 0 is missing; a split count of 0 means nodes 0..0",
            ),
            (RegressionTree([0, -1, -1], [0.0]), "3 nodes but 1 values"),
            (RegressionTree([-1], [5.0, 7.0]), "1 nodes but 2 values"),
        ]:
            model = TreeEnsemble(
                classes=["a", "b"],
                priors=np.zeros(2),
                learning_rate=0.1,
                n_features=1,
                trees=[[leaf], [leaf, leaf, bad]],
            )
            message = f"tree 2 of class 'b': {message}"
            with pytest.raises(DataError, match=re.escape(message)):
                model.decision_scores(np.array([[1], [0]]))

    def test_split_on_missing_feature_rejected(self):
        leaf = RegressionTree([-1], [0.0])
        wide = RegressionTree([3, -1, -1], [0.0, 1.0, 2.0])
        model = TreeEnsemble(
            classes=["a", "b"],
            priors=np.zeros(2),
            learning_rate=0.1,
            n_features=1,
            trees=[[leaf], [leaf, wide]],
        )
        message = "tree 1 of class 'b': node 0 splits on feature 3, outside 0..0"
        with pytest.raises(DataError, match=re.escape(message)):
            model.decision_scores(np.array([[1], [0]]))

    def test_feature_width_mismatch(self):
        data = binary_feature_data(rows_per_class=5)
        model = train_gbdt(data, GBDTParams(n_trees=1, subsample=1.0))
        with pytest.raises(DataError, match="feature width mismatch"):
            model.predict(np.zeros((2, 3)))
        with pytest.raises(DataError, match="feature width mismatch"):
            model.predict(np.zeros(4))


class TestHelpers:
    def test_log_loss_uniform_binary(self):
        uniform = log_loss_oracle(np.zeros((4, 2)), np.zeros(4, dtype=int))
        assert uniform == pytest.approx(math.log(2))

    def test_log_loss_confident_correct_is_small(self):
        scores = np.array([[10.0, -10.0], [10.0, -10.0]])
        assert log_loss_oracle(scores, np.zeros(2, dtype=int)) < 1e-6

    def test_seed_entropy_is_non_negative(self):
        values = seed_entropy(-1, 0, 2**70, 123)
        assert all(0 <= v < 2**63 for v in values)
        assert values[1] == 0 and values[3] == 123
