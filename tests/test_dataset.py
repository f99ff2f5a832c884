"""Dataset assembly, stratified folds, cross-validation."""

import numpy as np
import pytest

from commbench import (
    AttributeTable,
    Cover,
    DataError,
    GBDTParams,
    LabeledDataset,
    assignment_matrix,
    build_dataset,
    cross_validate,
    stratified_folds,
)
from commbench.dataset import fold_seed
from commbench.graph import MISSING

FAST = GBDTParams(
    learning_rate=0.5, n_trees=20, min_samples_split=2, subsample=1.0, max_depth=2
)


def table(n, **columns):
    return AttributeTable(list(columns), columns, n)


class TestBuildDataset:
    def test_missing_rows_excluded(self):
        matrix = assignment_matrix(Cover(4, [{0, 1}, {2, 3}]), 4)
        attrs = table(4, color=["red", MISSING, "blue", "red"])
        data = build_dataset(matrix, attrs, "color")
        assert data.rows == [0, 2, 3]
        assert data.classes == ["blue", "red"]
        assert data.labels.tolist() == [1, 0, 1]
        assert data.features.dtype == np.uint8
        assert data.features.tolist() == [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]

    def test_classes_sorted_regardless_of_row_order(self):
        matrix = assignment_matrix(Cover(3, [{0, 1, 2}]), 3)
        attrs = table(3, grade=["z", "a", "m"])
        data = build_dataset(matrix, attrs, "grade")
        assert data.classes == ["a", "m", "z"]
        assert data.labels.tolist() == [2, 0, 1]

    def test_size_mismatch_rejected(self):
        matrix = assignment_matrix(Cover(3, [{0}]), 3)
        attrs = table(4, color=["red"] * 4)
        with pytest.raises(DataError, match="disagree on n"):
            build_dataset(matrix, attrs, "color")

    def test_all_missing_attribute_rejected(self):
        matrix = assignment_matrix(Cover(2, [{0, 1}]), 2)
        attrs = table(2, color=[MISSING, MISSING])
        with pytest.raises(DataError, match="no labeled rows"):
            build_dataset(matrix, attrs, "color")

    def test_unknown_attribute_rejected(self):
        matrix = assignment_matrix(Cover(2, [{0, 1}]), 2)
        attrs = table(2, color=["red", "red"])
        with pytest.raises(DataError, match="unknown attribute"):
            build_dataset(matrix, attrs, "size")


class TestStratifiedFolds:
    def test_class_counts_balanced_within_one(self, rng):
        for _ in range(40):
            n = rng.randint(6, 60)
            k = rng.randint(2, 6)
            labels = [rng.randrange(3) for _ in range(n)]
            folds = stratified_folds(labels, k, seed=rng.randrange(1000))
            for cls in set(labels):
                total = labels.count(cls)
                per_fold = [
                    sum(1 for l, f in zip(labels, folds) if l == cls and f == fold)
                    for fold in range(k)
                ]
                assert all(total // k <= c <= -(-total // k) for c in per_fold)

    def test_every_fold_used(self):
        folds = stratified_folds([0, 0, 0, 1, 1, 1, 1, 1], k=4, seed=9)
        assert set(folds.tolist()) == {0, 1, 2, 3}

    def test_deterministic_per_seed(self):
        labels = [0, 1] * 20
        a = stratified_folds(labels, 5, seed=17)
        b = stratified_folds(labels, 5, seed=17)
        assert a.tolist() == b.tolist()

    def test_fold_seed_is_stable_and_distinct(self):
        assert fold_seed(0, 0) == fold_seed(0, 0)
        assert fold_seed(0, 0) != fold_seed(0, 1)
        assert fold_seed(1, 0) != fold_seed(0, 0)


def separable_data(n_per_class=15):
    X = np.array([[0.0]] * n_per_class + [[1.0]] * n_per_class)
    labels = np.array([0] * n_per_class + [1] * n_per_class, dtype=np.int64)
    return LabeledDataset(X, labels, classes=["no", "yes"], rows=list(range(2 * n_per_class)))


class TestCrossValidate:
    def test_separable_data_scores_perfectly(self):
        accuracies = cross_validate(separable_data(), FAST, k=3, folds_evaluated=3)
        assert accuracies == [1.0, 1.0, 1.0]

    def test_returns_requested_fold_count(self):
        assert len(cross_validate(separable_data(), FAST, k=5, folds_evaluated=2)) == 2

    def test_deterministic(self):
        a = cross_validate(separable_data(), FAST, k=3, folds_evaluated=3)
        b = cross_validate(separable_data(), FAST, k=3, folds_evaluated=3)
        assert a == b

    def test_constant_features_fall_back_to_majority(self):
        # no split is possible, so every test row gets the same prediction;
        # accuracy must equal the majority-class share of the test fold
        labels = np.array([0] * 20 + [1] * 10, dtype=np.int64)
        data = LabeledDataset(
            np.zeros((30, 2)), labels, classes=["maj", "min"], rows=list(range(30))
        )
        params = GBDTParams(n_trees=5, subsample=1.0)
        folds = stratified_folds(labels, 3, seed=params.seed)
        got = cross_validate(data, params, k=3, folds_evaluated=1)
        test_rows = np.nonzero(folds == 0)[0]
        majority_share = (labels[test_rows] == 0).mean()
        assert got[0] == pytest.approx(majority_share)

    def test_k_domain(self):
        with pytest.raises(ValueError, match="k must be"):
            cross_validate(separable_data(), FAST, k=1)

    def test_folds_evaluated_domain(self):
        for bad in (0, 4):
            with pytest.raises(ValueError, match="folds_evaluated"):
                cross_validate(separable_data(), FAST, k=3, folds_evaluated=bad)

    def test_too_few_rows(self):
        with pytest.raises(DataError, match="need at least"):
            cross_validate(separable_data(n_per_class=2), FAST, k=10)
