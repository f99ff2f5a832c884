"""Stochastic gradient-boosted regression trees for categorical targets.

Multiclass boosting keeps one regression-tree sequence per class. Every
round computes softmax probabilities over the accumulated scores, then fits
each class's tree to that class's cross-entropy residuals (y - p) on a fresh
row subsample of ceil(subsample * rows) drawn without replacement from one
seeded stream. Tree structure is greedy squared-error reduction: a split on
a column sends the rows holding 0 left and those holding 1 right, and a node
splits only when it holds at least min_samples_split rows and some split has
positive gain. Leaf values are a single Newton step sum(g)/sum(h) with
h = p(1-p), clipped to [-4, 4], and scores advance by learning_rate times the
tree output. Prediction is the argmax score with ties resolved by
class-vocabulary order. Identical seeds give identical models and
predictions, byte for byte.

Features must be 0 or 1, because the benchmark's features are community
memberships; training and scoring reject any other value (NaN included) with
a DataError naming the column, and then work on bools. Model files keep a
threshold per split, 0.5 for every trained one, and a loaded tree sends a row
left when its feature is at most that threshold. Trained trees keep their
nodes in level order (root first, then depth by depth, left before right), so
the j-th split has its children at nodes 2j + 1 and 2j + 2.

Rows with the same feature values (patterns) always reach the same leaf, so
all work runs per pattern: a round's row subsamples become per-(class,
pattern) row counts and g/h sums, and the round's K trees grow together one
depth at a time. The split search touches only the nonzero features (the
sparse-feature idea of LightGBM, Ke et al., NeurIPS 2017): each sampled
(tree, pattern) entry is paired once per round with its pattern's 1-columns,
and a depth's per-(node, column) row counts and g sums of the rows holding 1
are two scatter-adds over those pairs. Patterns reach a bin in ascending
order, so equal columns give equal sums and ties go to the lowest column.
A depth's split search thus costs the sampled patterns' 1-entries plus one
gain per (node, column), not patterns x columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

LEAF_CLIP = 4.0
GAIN_TOL = 1e-12
MODEL_MAGIC = "commbench-gbdt 4"
# elements of the largest working array: (tree, pattern) entries and their
# (entry, 1-column) pairs, (nodes x columns) split sums and gains,
# (patterns x trees) predictions
WORK_ELEMENTS = 1 << 20

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
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be positive and finite, got {self.learning_rate}"
            )
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
    """Node arrays; feature[k] < 0 marks node k as a leaf.

    Children always follow their parent (k < left[k], right[k]), so a descent
    ends within the node count. Trained trees are in level order, so the j-th
    split in node order has its children at 2j + 1 and 2j + 2.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature=(), threshold=(), left=(), right=(), value=()):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)


def _leaf_values(trees, values):
    """(rows x trees) leaf values: all trees descend together, a depth a step."""
    sizes = np.array([tree.feature.size for tree in trees], dtype=np.intp)
    ends = np.cumsum(sizes)
    # an empty tree starts at a trailing leaf of value 0
    start = np.where(sizes > 0, ends - sizes, ends[-1])
    feature, threshold, left, right, value = (
        np.concatenate([getattr(t, name) for t in trees] + [tail])
        for name, tail in (
            ("feature", [-1]),
            ("threshold", [0.0]),
            ("left", [-1]),
            ("right", [-1]),
            ("value", [0.0]),
        )
    )
    node = np.tile(start, (len(values), 1))
    rows = np.arange(len(values))[:, None]
    while True:
        f = feature[node]
        inner = f >= 0
        if not inner.any():
            return value[node]
        go_left = values[rows, np.where(inner, f, 0)] <= threshold[node]
        child = np.where(go_left, left[node], right[node]) + start
        node = np.where(inner, child, node)


def _check_binary(X):
    """The features X as a bool matrix.

    Any value other than 0 or 1 is a DataError naming the first column holding one.
    """
    X = np.asarray(X)
    ones = X != 0
    bad = ones & (X != 1)  # NaN compares unequal to both
    if bad.any():
        j = int(bad.any(axis=0).argmax())
        value = float(X[bad[:, j].argmax(), j])
        raise DataError(f"feature column {j} holds {value!r}; features must be 0 or 1")
    return ones


def _patterns(X):
    """Pattern id of every row (ids in first-seen order) and the distinct rows.

    Rows of the bool matrix X are keyed by their packed bits.
    """
    key = np.packbits(X, axis=1)
    n, width = key.shape
    if width == 0:
        ids = np.zeros(n, dtype=np.intp)
    else:
        raw = key.tobytes()
        index = {}
        rows = range(0, n * width, width)
        ids = np.fromiter(
            (index.setdefault(raw[i : i + width], len(index)) for i in rows),
            dtype=np.intp,
            count=n,
        )
    first = np.unique(ids, return_index=True)[1]
    # with every row distinct, first is 0..n-1 and X itself holds the patterns
    return ids, X if first.size == n else X[first]


def _ones(values):
    """The patterns' 1-columns as CSR: pattern p's are cols[start[p]:start[p + 1]]."""
    rows, cols = np.nonzero(values)
    start = np.zeros(len(values) + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=len(values)), out=start[1:])
    return start, cols


def _best_splits(C1, S1, n_tot, s_tot):
    """Best feature of each node, -1 where no split gains.

    C1 and S1 hold each (node, column)'s row count and g sum over the rows
    holding 1; the lowest column wins ties.
    """
    C0 = n_tot[:, None] - C1
    S0 = s_tot[:, None] - S1
    valid = (C1 > 0) & (C0 > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = S1 * S1 / C1 + S0 * S0 / C0 - (s_tot * s_tot / n_tot)[:, None]
    gains[~valid] = -np.inf
    j = gains.argmax(axis=1)
    return np.where(gains[np.arange(len(j)), j] > GAIN_TOL, j, -1)


def _grow(values, ones, cnt, G, H, params):
    """Grow one tree per row of the (trees x patterns) row counts and g/h sums.

    The trees grow together, one depth at a time; a depth's nodes are numbered
    tree by tree, and the children of its i-th split node are nodes 2i and
    2i + 1 of the next depth. values holds the patterns' features as bools and
    ones their 1-columns (see _ones). Returns the level-order trees and each
    pattern's leaf value in each tree, as a (trees x patterns) matrix.
    """
    S, P = cnt.shape
    d = values.shape[1]
    pattern = np.tile(np.arange(P), S)
    node = np.repeat(np.arange(S), P)  # node of each (tree, pattern); -1 once at a leaf
    out = np.zeros(S * P)
    # only sampled entries add to the sums; each is paired with its pattern's
    # 1-columns in entry order, so every split-sum bin adds its patterns in
    # ascending order
    sampled = np.flatnonzero(np.ravel(cnt) > 0)
    cnt, G, H = (np.ravel(a)[sampled] for a in (cnt, G, H))
    start, cols = ones
    first = start[pattern[sampled]]
    width = start[pattern[sampled] + 1] - first
    pair = np.repeat(np.arange(sampled.size), width)  # sampled entry of each pair
    slot = np.arange(pair.size) + np.repeat(first - np.cumsum(width) + width, width)
    column = cols[slot]
    pair_cnt, pair_g = cnt[pair], G[pair]
    chunk = max(1, WORK_ELEMENTS // max(1, d))  # nodes per (nodes x columns) block
    tree = np.arange(S)  # tree of each node at this depth
    levels = []
    for depth in range(params.max_depth + 1):
        m = tree.size
        key = np.where(node >= 0, node, m)
        sampled_key = key[sampled]
        n_node, g_node, h_node = (
            np.bincount(sampled_key, w, m + 1)[:m] for w in (cnt, G, H)
        )
        feature = np.full(m, -1, dtype=np.intp)
        if depth < params.max_depth and d:
            search = np.flatnonzero(n_node >= params.min_samples_split)
            rank = np.full(m + 1, -1)
            rank[search] = np.arange(search.size)
            pair_rank = rank[sampled_key][pair]
            for a0 in range(0, search.size, chunk):
                part = search[a0 : a0 + chunk]
                mine = np.flatnonzero((pair_rank >= a0) & (pair_rank < a0 + chunk))
                cell = (pair_rank[mine] - a0) * d + column[mine]
                C1, S1 = (
                    np.bincount(cell, w[mine], part.size * d).reshape(part.size, d)
                    for w in (pair_cnt, pair_g)
                )
                feature[part] = _best_splits(C1, S1, n_node[part], g_node[part])
        inner = feature >= 0
        value = np.where(
            inner, 0.0, np.clip(g_node / (h_node + 1e-12), -LEAF_CLIP, LEAF_CLIP)
        )
        levels.append((tree, feature, value))
        inner_of = np.append(inner, False)[key]
        ended = (key < m) & ~inner_of
        out[ended] = value[key[ended]]
        if not inner.any():
            break
        moving = np.flatnonzero(inner_of)
        at = key[moving]
        go_right = values.ravel()[pattern[moving] * d + feature[at]]  # 0 goes left
        node = np.full(S * P, -1)
        node[moving] = 2 * (np.cumsum(inner) - 1)[at] + go_right
        tree = np.repeat(tree[inner], 2)
    # a tree's nodes, depth by depth, are its level order, so one stable sort
    # by tree gives every tree; every split gets threshold 0.5 (0 left, 1 right)
    tree, feature, value = (np.concatenate(a) for a in zip(*levels))
    order = np.argsort(tree, kind="stable")
    tree, feature, value = tree[order], feature[order], value[order]
    size = np.bincount(tree, minlength=S)
    ends = np.cumsum(size)
    starts = ends - size
    inner = feature >= 0
    j = np.cumsum(inner) - inner  # splits before each node, then within its tree
    j -= j[starts][tree]
    left = np.where(inner, 2 * j + 1, -1)
    right = np.where(inner, 2 * j + 2, -1)
    threshold = np.where(inner, 0.5, 0.0)
    trees = [
        RegressionTree(*(a[lo:hi] for a in (feature, threshold, left, right, value)))
        for lo, hi in zip(starts.tolist(), ends.tolist())
    ]
    return trees, out.reshape(S, P)


def fit_regression_tree(X, g, h, rows, params):
    """Fit one tree over 0/1 features to g, with Newton leaves from hessians h."""
    ids, values = _patterns(_check_binary(X))
    at = ids[rows]
    P = len(values)
    cnt, G, H = (np.bincount(at, w, P)[None, :] for w in (None, g[rows], h[rows]))
    trees, _ = _grow(values, _ones(values), cnt, G, H, params)
    return trees[0]


@dataclass
class TreeEnsemble:
    """Trained multiclass model: per-class tree sequences over log-prior scores."""

    classes: list
    priors: np.ndarray  # (K,) log prior per class
    learning_rate: float
    n_features: int
    trees: list = field(default_factory=list)  # trees[k] is class k's sequence

    def decision_scores(self, X):
        X = np.asarray(X)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DataError(
                f"feature width mismatch: model expects {self.n_features} columns"
            )
        ids, values = _patterns(_check_binary(X))
        scores = np.tile(self.priors, (len(values), 1))
        step = max(1, WORK_ELEMENTS // max(1, len(values)))
        for k, sequence in enumerate(self.trees):
            for t0 in range(0, len(sequence), step):
                leaves = _leaf_values(sequence[t0 : t0 + step], values)
                terms = self.learning_rate * leaves
                # tree by tree, in sequence order, as the scores were trained
                running = np.column_stack([scores[:, k], terms])
                scores[:, k] = np.cumsum(running, axis=1)[:, -1]
        return scores[ids]

    def predict(self, X):
        scores = self.decision_scores(X)
        # argmax takes the first maximum, i.e. class-vocabulary order on ties
        return [self.classes[k] for k in np.argmax(scores, axis=1)]


def _softmax(scores):
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def train_gbdt(data, params):
    """Train the boosted ensemble on a LabeledDataset."""
    params.validate()
    X = _check_binary(data.features)
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
    ids, values = _patterns(X)
    ones = _ones(values)
    P = len(values)
    rng = np.random.default_rng(np.random.SeedSequence(seed_entropy(params.seed)))
    sub_size = max(1, math.ceil(params.subsample * n))
    # classes whose trees grow together: bounds the per-depth (tree, pattern)
    # entries and the round's (entry, 1-column) pairs
    step = max(1, WORK_ELEMENTS // max(2**params.max_depth * P, ones[1].size))
    scores = np.tile(priors, (P, 1))
    for _ in range(params.n_trees):
        p = _softmax(scores)
        for k0 in range(0, K, step):
            ks = np.arange(k0, min(K, k0 + step))
            rows = np.array(
                [np.sort(rng.choice(n, size=sub_size, replace=False)) for _ in ks]
            )
            at = ids[rows]
            pk = p[at, ks[:, None]]
            cell = (np.arange(ks.size)[:, None] * P + at).ravel()
            g = (y[rows] == ks[:, None]) - pk
            cnt, G, H = (
                np.bincount(cell, w, ks.size * P).reshape(ks.size, P)
                for w in (None, g.ravel(), (pk * (1.0 - pk)).ravel())
            )
            trees, out = _grow(values, ones, cnt, G, H, params)
            scores[:, ks] += params.learning_rate * out.T
            for k, tree in zip(ks, trees):
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
            lines.append(f"tree nodes {tree.feature.size}")
            for f, t, left, right, v in zip(
                tree.feature.tolist(),
                tree.threshold.tolist(),
                tree.left.tolist(),
                tree.right.tolist(),
                tree.value.tolist(),
            ):
                if f < 0:
                    lines.append(f"leaf {v!r}")
                else:
                    lines.append(f"split {f} {t!r} {left} {right}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    pos = 0

    def take(keyword=None):
        """The next line; its first word must be keyword, when one is given."""
        nonlocal pos
        if pos >= len(lines):
            what = keyword or "node"
            raise DataError(f"{path}:{pos + 1}: expected a {what} line, found the end")
        line = lines[pos]
        pos += 1
        if keyword is not None and line.split()[:1] != [keyword]:
            raise DataError(
                f"{path}:{pos}: bad {keyword} line {line!r}, expected {keyword!r} first"
            )
        return line

    def fields(keyword, *shape):
        """Values of the next line: keyword, then a word per shape entry (str: as is)."""
        line = take(keyword)
        try:
            # strict: a missing or extra word raises ValueError
            pairs = list(zip(line.split()[1:], shape, strict=True))
            if any(isinstance(want, str) and word != want for word, want in pairs):
                raise ValueError
            return [kind(word) for word, kind in pairs if not isinstance(kind, str)]
        except ValueError:
            raise DataError(f"{path}:{pos}: bad {keyword} line {line!r}") from None

    def node(index, count):
        line = take()
        parts = line.split()
        try:
            if parts[0] == "leaf" and len(parts) == 2:
                return -1, 0.0, -1, -1, float(parts[1])
            if parts[0] == "split" and len(parts) == 5:
                f, left, right = int(parts[1]), int(parts[3]), int(parts[4])
                threshold = float(parts[2])
            else:
                raise ValueError
        except (ValueError, IndexError):
            raise DataError(f"{path}:{pos}: bad node line {line!r}") from None
        if not 0 <= f < n_features:
            raise DataError(
                f"{path}:{pos}: split feature {f} outside 0..{n_features - 1}"
            )
        if not (index < left < count and index < right < count):
            raise DataError(
                f"{path}:{pos}: children of node {index} "
                f"must lie in {index + 1}..{count - 1}"
            )
        return f, threshold, left, right, 0.0

    if take(MODEL_MAGIC.split()[0]) != MODEL_MAGIC:
        raise DataError(f"{path}:1: unsupported model version")
    [learning_rate] = fields("learning_rate", float)
    [n_features] = fields("n_features", int)
    [n_classes] = fields("n_classes", int)
    classes = [take("class")[len("class "):] for _ in range(n_classes)]
    priors = np.array([fields("prior", float)[0] for _ in range(n_classes)])
    trees = []
    for k in range(n_classes):
        index, ntrees = fields("ensemble", int, "trees", int)
        if index != k:
            raise DataError(f"{path}:{pos}: ensembles out of order")
        sequence = []
        for _ in range(ntrees):
            [count] = fields("tree", "nodes", int)
            nodes = [node(i, count) for i in range(count)]
            sequence.append(RegressionTree(*zip(*nodes)))
        trees.append(sequence)
    if pos < len(lines):
        raise DataError(
            f"{path}:{pos + 1}: unexpected line after the last ensemble"
        )
    return TreeEnsemble(
        classes=classes,
        priors=priors,
        learning_rate=learning_rate,
        n_features=n_features,
        trees=trees,
    )
