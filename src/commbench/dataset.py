"""Labeled feature datasets and cross-validation.

The features are the binary community-membership matrix, paired with one
attribute's non-missing labels. Stratified folds are dealt deterministically
from a seeded shuffle, so per-fold class counts deviate from proportionality
by at most one row per class.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .gbdt import seed_entropy, train_gbdt
from .graph import MISSING


@dataclass
class LabeledDataset:
    features: np.ndarray  # (rows, columns) uint8, each 0 or 1
    labels: np.ndarray  # (rows,) int class indices
    classes: list  # class vocabulary, sorted
    rows: list  # node index per dataset row


def build_dataset(matrix, attrs, attribute):
    """Pair membership features with one attribute's non-missing labels."""
    column = attrs.column(attribute)
    if matrix.matrix.shape[0] != attrs.n:
        raise DataError("assignment matrix and attribute table disagree on n")
    keep = [i for i, v in enumerate(column) if v is not MISSING]
    if not keep:
        raise DataError(f"attribute {attribute!r} has no labeled rows")
    classes = sorted({column[i] for i in keep})
    class_index = {c: k for k, c in enumerate(classes)}
    features = matrix.matrix[keep]
    labels = np.array([class_index[column[i]] for i in keep], dtype=np.int64)
    return LabeledDataset(features, labels, classes, keep)


def stratified_folds(labels, k, seed):
    """Fold index per row: seeded shuffle, stable sort by class, deal mod k."""
    labels = np.asarray(labels)
    n = len(labels)
    rng = np.random.default_rng(np.random.SeedSequence(seed_entropy(seed)))
    perm = rng.permutation(n)
    order = perm[np.argsort(labels[perm], kind="stable")]
    folds = np.empty(n, dtype=np.int64)
    folds[order] = np.arange(n) % k
    return folds


def _subset(data, rows):
    labels = [data.classes[t] for t in data.labels[rows]]
    classes = sorted(set(labels))
    class_index = {c: k for k, c in enumerate(classes)}
    return LabeledDataset(
        features=data.features[rows],
        labels=np.array([class_index[c] for c in labels], dtype=np.int64),
        classes=classes,
        rows=[data.rows[int(r)] for r in rows],
    )


def fold_seed(seed, fold):
    """Stable per-fold training seed derived from the base seed."""
    ss = np.random.SeedSequence(seed_entropy(seed, fold))
    return int(ss.generate_state(1, np.uint64)[0])


def cross_validate(data, params, k=10, folds_evaluated=3):
    """Held-out accuracy for the first folds_evaluated of k stratified folds."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if not 1 <= folds_evaluated <= k:
        raise ValueError(
            f"folds_evaluated must be in 1..{k}, got {folds_evaluated}"
        )
    n = len(data.labels)
    if n < k:
        raise DataError(f"need at least {k} rows for {k}-fold splits, got {n}")
    folds = stratified_folds(data.labels, k, params.seed)
    accuracies = []
    for fold in range(folds_evaluated):
        test = np.nonzero(folds == fold)[0]
        train = np.nonzero(folds != fold)[0]
        model = train_gbdt(
            _subset(data, train), replace(params, seed=fold_seed(params.seed, fold))
        )
        predicted = model.predict(data.features[test])
        truth = [data.classes[t] for t in data.labels[test]]
        correct = sum(1 for a, b in zip(predicted, truth) if a == b)
        accuracies.append(correct / len(test))
    return accuracies
