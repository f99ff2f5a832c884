"""Stochastic gradient-boosted regression trees for categorical targets.

Multiclass boosting keeps one regression-tree sequence per class. Every
round computes softmax probabilities over the accumulated scores, then fits
each class's tree to that class's cross-entropy residuals (y - p) on a fresh
row subsample of ceil(subsample * rows) drawn without replacement from one
seeded stream. Tree structure is greedy squared-error reduction: binary 0/1
columns split directly on the value, continuous columns on midpoints between
consecutive observed values; a node splits only when it holds at least
min_samples_split rows and some split has positive gain. Leaf values are a
single Newton step sum(g)/sum(h) with h = p(1-p), clipped to [-4, 4], and
scores advance by learning_rate times the tree output. Prediction is the
argmax score with ties resolved by class-vocabulary order. Identical seeds
give identical models and predictions, byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

LEAF_CLIP = 4.0
GAIN_TOL = 1e-12
MODEL_MAGIC = "commbench-gbdt 1"

_SEED_MASK = (1 << 63) - 1


def seed_entropy(*parts):
    """Non-negative entropy list for np.random.SeedSequence."""
    return [int(p) & _SEED_MASK for p in parts]


@dataclass(frozen=True)
class GBDTParams:
    learning_rate: float = 0.005
    n_trees: int = 1000
    min_samples_split: int = 5
    subsample: float = 0.4
    max_depth: int = 3
    seed: int = 0

    def validate(self):
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be at least 1, got {self.n_trees}")
        if self.min_samples_split < 2:
            raise ValueError(
                f"min_samples_split must be at least 2, got {self.min_samples_split}"
            )
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {self.subsample}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be at least 1, got {self.max_depth}")


class RegressionTree:
    """Flat-array binary tree; feature[k] < 0 marks node k as a leaf."""

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self):
        self.feature = []
        self.threshold = []
        self.left = []
        self.right = []
        self.value = []

    def add_leaf(self, value):
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(value))
        return len(self.feature) - 1

    def add_split(self, feature, threshold):
        self.feature.append(int(feature))
        self.threshold.append(float(threshold))
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def predict(self, X):
        out = np.zeros(len(X))
        if not self.feature:
            return out
        stack = [(0, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if self.feature[node] < 0:
                out[idx] = self.value[node]
                continue
            mask = X[idx, self.feature[node]] <= self.threshold[node]
            stack.append((self.left[node], idx[mask]))
            stack.append((self.right[node], idx[~mask]))
        return out


def _best_split(X, g, rows, binary_cols, cont_cols):
    """Best (gain, feature, threshold) by squared-error reduction, or None."""
    gr = g[rows]
    n_tot = rows.size
    s_tot = gr.sum()
    parent = s_tot * s_tot / n_tot
    best_gain = GAIN_TOL
    best_feature = -1
    best_threshold = 0.0
    if binary_cols.size:
        Xr = X[rows]
        B = Xr if binary_cols.size == X.shape[1] else Xr[:, binary_cols]
        c1 = B.sum(axis=0)
        c0 = n_tot - c1
        s1 = gr @ B
        s0 = s_tot - s1
        valid = (c1 > 0) & (c0 > 0)
        score = np.full(c1.shape, -np.inf)
        np.divide(s1 * s1, c1, out=score, where=valid)
        score0 = np.zeros(c1.shape)
        np.divide(s0 * s0, c0, out=score0, where=valid)
        gains = np.where(valid, score + score0 - parent, -np.inf)
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            best_feature = int(binary_cols[k])
            best_threshold = 0.5
    for f in cont_cols:
        v = X[rows, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        csum = np.cumsum(g[rows][order])
        cuts = np.nonzero(vs[1:] != vs[:-1])[0]
        if cuts.size == 0:
            continue
        nl = cuts + 1.0
        sl = csum[cuts]
        sr = s_tot - sl
        gains = sl * sl / nl + sr * sr / (n_tot - nl) - parent
        k = int(np.argmax(gains))
        if gains[k] > best_gain:
            best_gain = float(gains[k])
            best_feature = int(f)
            best_threshold = (vs[cuts[k]] + vs[cuts[k] + 1]) / 2.0
    if best_feature < 0:
        return None
    return best_feature, best_threshold


def fit_regression_tree(X, g, h, rows, params, binary_cols, cont_cols):
    """Fit one tree to gradients g with Newton leaves from hessians h."""
    tree = RegressionTree()

    def leaf(idx):
        gs = g[idx].sum()
        hs = h[idx].sum()
        value = gs / (hs + 1e-12)
        return tree.add_leaf(max(-LEAF_CLIP, min(LEAF_CLIP, value)))

    def grow(idx, depth):
        if depth >= params.max_depth or idx.size < params.min_samples_split:
            return leaf(idx)
        split = _best_split(X, g, idx, binary_cols, cont_cols)
        if split is None:
            return leaf(idx)
        feature, threshold = split
        mask = X[idx, feature] <= threshold
        node = tree.add_split(feature, threshold)
        left = grow(idx[mask], depth + 1)
        right = grow(idx[~mask], depth + 1)
        tree.left[node] = left
        tree.right[node] = right
        return node

    grow(np.asarray(rows), 0)
    return tree


@dataclass
class TreeEnsemble:
    """Trained multiclass model: per-class tree sequences over log-prior scores."""

    classes: list
    priors: np.ndarray  # (K,) log prior per class
    learning_rate: float
    n_features: int
    trees: list = field(default_factory=list)  # trees[k] is class k's sequence

    def decision_scores(self, X):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DataError(
                f"feature width mismatch: model expects {self.n_features} columns"
            )
        scores = np.tile(self.priors, (len(X), 1))
        for k, sequence in enumerate(self.trees):
            for tree in sequence:
                scores[:, k] += self.learning_rate * tree.predict(X)
        return scores

    def predict(self, X):
        scores = self.decision_scores(X)
        # argmax takes the first maximum, i.e. class-vocabulary order on ties
        return [self.classes[k] for k in np.argmax(scores, axis=1)]


def _softmax(scores):
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def log_loss(scores, y):
    """Mean cross-entropy of softmax scores against integer labels."""
    p = _softmax(scores)
    picked = p[np.arange(len(y)), y]
    return float(-np.log(np.maximum(picked, 1e-300)).mean())


def train_gbdt(data, params):
    """Train the boosted ensemble on a LabeledDataset."""
    params.validate()
    X = np.asarray(data.features, dtype=np.float64)
    y = np.asarray(data.labels)
    n, d = X.shape
    if n == 0:
        raise DataError("cannot train on an empty dataset")
    K = len(data.classes)
    counts = np.bincount(y, minlength=K).astype(np.float64)
    priors = np.log(np.maximum(counts, 1e-12) / n)
    ensemble = TreeEnsemble(
        classes=list(data.classes),
        priors=priors,
        learning_rate=params.learning_rate,
        n_features=d,
        trees=[[] for _ in range(K)],
    )
    if K <= 1:
        # a single observed class needs no trees; the prior decides
        return ensemble
    is_binary = np.array(
        [bool(np.all((X[:, f] == 0.0) | (X[:, f] == 1.0))) for f in range(d)],
        dtype=bool,
    )
    binary_cols = np.nonzero(is_binary)[0]
    cont_cols = np.nonzero(~is_binary)[0]
    rng = np.random.default_rng(np.random.SeedSequence(seed_entropy(params.seed)))
    sub_size = max(1, math.ceil(params.subsample * n))
    scores = np.tile(priors, (n, 1))
    onehot = np.zeros((n, K))
    onehot[np.arange(n), y] = 1.0
    for _ in range(params.n_trees):
        p = _softmax(scores)
        g_all = onehot - p
        h_all = p * (1.0 - p)
        for k in range(K):
            rows = np.sort(rng.choice(n, size=sub_size, replace=False))
            tree = fit_regression_tree(
                X, g_all[:, k], h_all[:, k], rows, params, binary_cols, cont_cols
            )
            scores[:, k] += params.learning_rate * tree.predict(X)
            ensemble.trees[k].append(tree)
    return ensemble


def save_model(model, path):
    """Versioned plain-text serialization; floats round-trip via repr."""
    lines = [MODEL_MAGIC]
    lines.append(f"learning_rate {model.learning_rate!r}")
    lines.append(f"n_features {model.n_features}")
    lines.append(f"n_classes {len(model.classes)}")
    for c in model.classes:
        lines.append(f"class {c}")
    for p in model.priors:
        lines.append(f"prior {float(p)!r}")
    for k, sequence in enumerate(model.trees):
        lines.append(f"ensemble {k} trees {len(sequence)}")
        for tree in sequence:
            lines.append(f"tree nodes {len(tree.feature)}")
            for idx in range(len(tree.feature)):
                if tree.feature[idx] < 0:
                    lines.append(f"leaf {tree.value[idx]!r}")
                else:
                    lines.append(
                        f"split {tree.feature[idx]} {tree.threshold[idx]!r} "
                        f"{tree.left[idx]} {tree.right[idx]}"
                    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    pos = 0

    def take(prefix):
        nonlocal pos
        if pos >= len(lines) or not lines[pos].startswith(prefix):
            raise DataError(f"{path}: expected {prefix!r} at line {pos + 1}")
        line = lines[pos]
        pos += 1
        return line

    if take(MODEL_MAGIC.split()[0]) != MODEL_MAGIC:
        raise DataError(f"{path}: unsupported model version")
    learning_rate = float(take("learning_rate").split()[1])
    n_features = int(take("n_features").split()[1])
    n_classes = int(take("n_classes").split()[1])
    classes = [take("class")[len("class "):] for _ in range(n_classes)]
    priors = np.array([float(take("prior").split()[1]) for _ in range(n_classes)])
    trees = []
    for k in range(n_classes):
        header = take("ensemble").split()
        if int(header[1]) != k:
            raise DataError(f"{path}: ensembles out of order")
        sequence = []
        for _ in range(int(header[3])):
            count = int(take("tree").split()[2])
            tree = RegressionTree()
            for _ in range(count):
                line = take("")
                parts = line.split()
                if parts[0] == "leaf":
                    tree.add_leaf(float(parts[1]))
                elif parts[0] == "split":
                    node = tree.add_split(int(parts[1]), float(parts[2]))
                    tree.left[node] = int(parts[3])
                    tree.right[node] = int(parts[4])
                else:
                    raise DataError(f"{path}: bad node line {line!r}")
            sequence.append(tree)
        trees.append(sequence)
    return TreeEnsemble(
        classes=classes,
        priors=priors,
        learning_rate=learning_rate,
        n_features=n_features,
        trees=trees,
    )
