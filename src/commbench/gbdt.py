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

Rows with the same feature values (patterns) always reach the same leaf, so
all work runs per pattern: a round's row subsamples become per-(class,
pattern) row counts and g/h sums, the round's K trees grow together one depth
at a time, and every split gain of a depth comes from one matrix product of
per-node pattern sums with the patterns x binary-columns matrix. Training
cost thus scales with distinct feature rows x columns, not rows x columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

LEAF_CLIP = 4.0
GAIN_TOL = 1e-12
MODEL_MAGIC = "commbench-gbdt 2"
# elements of the largest working matrix: (class-nodes x patterns) sums,
# (class-nodes x columns) gains, (patterns x trees) predictions
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
    """Preorder node arrays; feature[k] < 0 marks node k as a leaf.

    Children always follow their parent (k < left[k], right[k]), so a descent
    ends within the node count.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, feature=(), threshold=(), left=(), right=(), value=()):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.intp)
        self.right = np.asarray(right, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)

    def predict(self, X):
        return _leaf_values([self], np.asarray(X, dtype=np.float64))[:, 0]


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


def _binary_columns(X):
    zero_or_one = X == 0.0
    zero_or_one |= X == 1.0
    return zero_or_one.all(axis=0)


def _pattern_ids(X, binary):
    """Pattern id of every row (ids in first-seen order) and each pattern's first row.

    Rows are keyed by their bytes: the bits of the binary columns, the raw
    float64 bytes of the rest.
    """
    key = np.packbits((X == 1.0)[:, binary], axis=1)
    if not binary.all():
        key = np.hstack([key, np.ascontiguousarray(X[:, ~binary]).view(np.uint8)])
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
    return ids, np.unique(ids, return_index=True)[1]


class _Patterns:
    """The distinct rows of X, the pattern of each row, and the split columns."""

    def __init__(self, X, binary, binary_cols, cont_cols):
        self.ids, first = _pattern_ids(X, binary)
        # with every row distinct, first is 0..n-1 and X itself holds the patterns
        self.values = X if first.size == len(X) else X[first]  # (P, d)
        self.binary_cols = np.asarray(binary_cols, dtype=np.intp)
        self.cont_cols = np.asarray(cont_cols, dtype=np.intp)
        whole = self.binary_cols.size == X.shape[1]
        self.binary = self.values if whole else self.values[:, self.binary_cols]
        self.cont = self.values[:, self.cont_cols]


def _best_splits(pm, W, n_tot, s_tot):
    """Best (feature, threshold) of each node, feature -1 where none gains.

    W stacks the nodes' per-pattern row counts over their per-pattern g sums.
    The binary columns are searched first, lowest column winning ties; a
    continuous column, searched in column order, must beat the best so far.
    """
    A = len(n_tot)
    parent = s_tot * s_tot / n_tot
    best_gain = np.full(A, GAIN_TOL)
    best_feature = np.full(A, -1, dtype=np.intp)
    best_threshold = np.zeros(A)
    binary, cont = pm.binary, pm.cont
    if binary.shape[1]:
        C1, S1 = np.split(W @ binary, 2)
        C0 = n_tot[:, None] - C1
        S0 = s_tot[:, None] - S1
        valid = (C1 > 0) & (C0 > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = S1 * S1 / C1 + S0 * S0 / C0 - parent[:, None]
        gains[~valid] = -np.inf
        j = gains.argmax(axis=1)
        top = gains[np.arange(A), j]
        won = top > best_gain
        best_gain[won] = top[won]
        best_feature[won] = pm.binary_cols[j[won]]
        best_threshold[won] = 0.5
    if cont.shape[1]:
        columns = np.arange(cont.shape[1])
        for a in range(A):
            present = np.flatnonzero(W[a])
            v = cont[present]
            order = np.argsort(v, axis=0, kind="stable")
            vs = np.take_along_axis(v, order, axis=0)
            nl = np.cumsum(W[a, present][order], axis=0)[:-1]
            sl = np.cumsum(W[A + a, present][order], axis=0)[:-1]
            sr = s_tot[a] - sl
            gains = np.where(
                vs[1:] != vs[:-1],
                sl * sl / nl + sr * sr / (n_tot[a] - nl) - parent[a],
                -np.inf,
            )
            if gains.size == 0:
                continue
            cut = gains.argmax(axis=0)
            top = gains[cut, columns]
            j = int(top.argmax())
            if top[j] > best_gain[a]:
                best_gain[a] = top[j]
                best_feature[a] = pm.cont_cols[j]
                best_threshold[a] = (vs[cut[j], j] + vs[cut[j] + 1, j]) / 2.0
    return best_feature, best_threshold


def _grow(pm, cnt, G, H, params):
    """Grow one tree per row of the (trees x patterns) row counts and g/h sums.

    The trees grow together, one depth at a time; a depth's nodes are numbered
    tree by tree, and the children of its i-th split node are nodes 2i and
    2i + 1 of the next depth. Returns the trees and each pattern's leaf value
    in each tree, as a (trees x patterns) matrix.
    """
    S, P = cnt.shape
    cnt, G, H = (np.asarray(a, dtype=np.float64).ravel() for a in (cnt, G, H))
    pattern = np.tile(np.arange(P), S)
    node = np.repeat(np.arange(S), P)  # node of each (tree, pattern); -1 once at a leaf
    out = np.zeros(S * P)
    chunk = max(1, WORK_ELEMENTS // (2 * max(P, pm.binary.shape[1])))
    tree = np.arange(S)  # tree of each node at this depth
    levels = []
    for depth in range(params.max_depth + 1):
        m = tree.size
        key = np.where(node >= 0, node, m)
        n_node, g_node, h_node = (np.bincount(key, w, m + 1)[:m] for w in (cnt, G, H))
        feature = np.full(m, -1, dtype=np.intp)
        threshold = np.zeros(m)
        if depth < params.max_depth:
            search = np.flatnonzero(n_node >= params.min_samples_split)
            rank = np.full(m + 1, -1)
            rank[search] = np.arange(search.size)
            entry_rank = rank[key]
            for a0 in range(0, search.size, chunk):
                part = search[a0 : a0 + chunk]
                mine = np.flatnonzero((entry_rank >= a0) & (entry_rank < a0 + chunk))
                cell = (entry_rank[mine] - a0) * P + pattern[mine]
                W = np.zeros((2, part.size * P))
                W[0, cell] = cnt[mine]
                W[1, cell] = G[mine]
                feature[part], threshold[part] = _best_splits(
                    pm, W.reshape(2 * part.size, P), n_node[part], g_node[part]
                )
        inner = feature >= 0
        value = np.where(
            inner, 0.0, np.clip(g_node / (h_node + 1e-12), -LEAF_CLIP, LEAF_CLIP)
        )
        levels.append((tree, feature, threshold, value))
        inner_of = np.append(inner, False)[key]
        ended = (key < m) & ~inner_of
        out[ended] = value[key[ended]]
        if not inner.any():
            break
        moving = np.flatnonzero(inner_of)
        at = key[moving]
        go_left = pm.values[pattern[moving], feature[at]] <= threshold[at]
        node = np.full(S * P, -1)
        node[moving] = 2 * (np.cumsum(inner) - 1)[at] + np.where(go_left, 0, 1)
        tree = np.repeat(tree[inner], 2)
    return _preorder(S, levels), out.reshape(S, P)


def _preorder(S, levels):
    """Per-tree preorder RegressionTrees from the depth-by-depth node lists."""
    # subtree sizes bottom-up, preorder positions top-down
    size = [None] * len(levels)
    below = np.zeros(0, dtype=np.intp)
    for d in range(len(levels) - 1, -1, -1):
        inner = levels[d][1] >= 0
        grown = np.ones(inner.size, dtype=np.intp)
        grown[inner] += below[0::2] + below[1::2]
        size[d] = below = grown
    pre = [np.zeros(S, dtype=np.intp)]
    for d in range(len(levels) - 1):
        inner = levels[d][1] >= 0
        left = pre[d][inner] + 1
        nxt = np.empty(2 * left.size, dtype=np.intp)
        nxt[0::2] = left
        nxt[1::2] = left + size[d + 1][0::2]
        pre.append(nxt)
    ends = np.cumsum(size[0])
    base = ends - size[0]
    total = int(ends[-1])
    feature = np.empty(total, dtype=np.intp)
    threshold = np.empty(total)
    value = np.empty(total)
    left = np.full(total, -1, dtype=np.intp)
    right = np.full(total, -1, dtype=np.intp)
    for d, (tree, f, t, v) in enumerate(levels):
        at = base[tree] + pre[d]
        feature[at] = f
        threshold[at] = t
        value[at] = v
        inner = f >= 0
        if inner.any():
            left[at[inner]] = pre[d + 1][0::2]
            right[at[inner]] = pre[d + 1][1::2]
    return [
        RegressionTree(*(a[lo:hi] for a in (feature, threshold, left, right, value)))
        for lo, hi in zip(base.tolist(), ends.tolist())
    ]


def fit_regression_tree(X, g, h, rows, params, binary_cols, cont_cols):
    """Fit one tree to gradients g with Newton leaves from hessians h."""
    X = np.asarray(X, dtype=np.float64)
    pm = _Patterns(X, _binary_columns(X), binary_cols, cont_cols)
    at = pm.ids[rows]
    P = len(pm.values)
    cnt, G, H = (np.bincount(at, w, P)[None, :] for w in (None, g[rows], h[rows]))
    trees, _ = _grow(pm, cnt, G, H, params)
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
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DataError(
                f"feature width mismatch: model expects {self.n_features} columns"
            )
        ids, first = _pattern_ids(X, _binary_columns(X))
        values = X[first]
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
    binary = _binary_columns(X)
    pm = _Patterns(X, binary, np.flatnonzero(binary), np.flatnonzero(~binary))
    P = len(pm.values)
    rng = np.random.default_rng(np.random.SeedSequence(seed_entropy(params.seed)))
    sub_size = max(1, math.ceil(params.subsample * n))
    # classes whose trees grow together: bounds the per-depth working set
    step = max(1, WORK_ELEMENTS // (2**params.max_depth * P))
    scores = np.tile(priors, (P, 1))
    for _ in range(params.n_trees):
        p = _softmax(scores)
        for k0 in range(0, K, step):
            ks = np.arange(k0, min(K, k0 + step))
            rows = np.array(
                [np.sort(rng.choice(n, size=sub_size, replace=False)) for _ in ks]
            )
            at = pm.ids[rows]
            pk = p[at, ks[:, None]]
            cell = (np.arange(ks.size)[:, None] * P + at).ravel()
            g = (y[rows] == ks[:, None]) - pk
            cnt, G, H = (
                np.bincount(cell, w, ks.size * P).reshape(ks.size, P)
                for w in (None, g.ravel(), (pk * (1.0 - pk)).ravel())
            )
            trees, out = _grow(pm, cnt, G, H, params)
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

    def take(prefix):
        nonlocal pos
        if pos >= len(lines) or not lines[pos].startswith(prefix):
            raise DataError(f"{path}: expected {prefix!r} at line {pos + 1}")
        line = lines[pos]
        pos += 1
        return line

    def fields(prefix, kind, *indices):
        """The words at indices of the next line, which starts with prefix."""
        line = take(prefix)
        parts = line.split()
        try:
            return [kind(parts[i]) for i in indices]
        except (ValueError, IndexError):
            raise DataError(f"{path}:{pos}: bad {prefix} line {line!r}") from None

    def node(index, count):
        line = take("")
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
        raise DataError(f"{path}: unsupported model version")
    [learning_rate] = fields("learning_rate", float, 1)
    [n_features] = fields("n_features", int, 1)
    [n_classes] = fields("n_classes", int, 1)
    classes = [take("class")[len("class "):] for _ in range(n_classes)]
    priors = np.array([fields("prior", float, 1)[0] for _ in range(n_classes)])
    trees = []
    for k in range(n_classes):
        index, ntrees = fields("ensemble", int, 1, 3)
        if index != k:
            raise DataError(f"{path}:{pos}: ensembles out of order")
        sequence = []
        for _ in range(ntrees):
            [count] = fields("tree", int, 2)
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
