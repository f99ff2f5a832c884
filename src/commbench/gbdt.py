"""Stochastic gradient-boosted regression trees for categorical targets.

Multiclass boosting keeps one regression-tree sequence per class. Every
round computes softmax probabilities over the accumulated scores, then fits
each class's tree to that class's cross-entropy residuals (y - p) on a fresh
row subsample of ceil(subsample * rows) drawn without replacement from one
seeded stream. Tree structure is greedy squared-error reduction: a split on
a column parts the rows holding 0 from those holding 1, and a node splits
only when it holds at least min_samples_split rows and some split has
positive gain. Leaf values are a single Newton step sum(g)/sum(h) with
h = p(1-p), clipped to [-4, 4], and scores advance by learning_rate times the
tree output. Prediction is the argmax score with ties resolved by
class-vocabulary order. Identical seeds give identical models and
predictions, byte for byte.

Features must be 0 or 1, because the benchmark's features are community
memberships; training and scoring reject any other value (NaN included) with
a DataError naming the column, and then work on bools. A tree is its nodes'
features and values in level order (root first, then depth by depth, the
0-branch before the 1-branch): the j-th split of a tree, j counted within
it, sends rows holding 0 to node 2j + 1 and rows holding 1 to node 2j + 2, so
a tree of s splits has 2s + 1 nodes. Model files list each tree's nodes in
that order and nothing more, since a tree ends at the first node where its
leaves outnumber its splits.

Rows with the same feature values (patterns) always reach the same leaf, so
all work runs per pattern. Rows of one pattern and label are interchangeable,
so a round draws counts, not rows: the training rows are keyed by (pattern,
label) cell, and one multivariate hypergeometric draw (numpy's "count"
method, distributed as a row-by-row draw) gives every class's per-cell
counts at once. Class k's entry for pattern p then holds cnt rows, pos of
them labelled k, with g sum G = pos - cnt * p and h sum H = cnt * p * (1 - p).
The round's K trees grow together one depth at a time, in working arrays
allocated once per training. The split search touches only the nonzero
features (the sparse-feature idea of LightGBM, Ke et al., NeurIPS 2017): each
sampled (tree, pattern) entry is paired once per round with its pattern's
1-columns, and a depth's per-(node, column) row counts and g sums of the rows
holding 1 are two scatter-adds over those pairs. Patterns reach a bin in
ascending order, so equal columns give equal sums and ties go to the lowest
column. A depth's split search thus costs the sampled patterns' 1-entries
plus one gain per (node, column), not patterns x columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

LEAF_CLIP = 4.0
GAIN_TOL = 1e-12
MODEL_MAGIC = "commbench-gbdt 6"
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
    """A tree's node arrays in level order; feature[k] < 0 marks node k as a leaf.

    The j-th split in node order sends rows holding 0 to node 2j + 1 and rows
    holding 1 to node 2j + 2, so s splits make 2s + 1 nodes; value[k] is leaf
    k's output (0 at splits).
    """

    __slots__ = ("feature", "value")

    def __init__(self, feature, value):
        self.feature = np.asarray(feature, dtype=np.intp)
        self.value = np.asarray(value, dtype=np.float64)


def _leaf_values(trees, values, origin):
    """(rows x trees) leaf values: all trees descend together, a depth a step.

    ``origin`` is ``(class, index of trees[0] in its sequence)``. A tree out
    of level order is a DataError naming the tree and node: it must have
    2s + 1 nodes for s splits, and the split of rank j (0-based, within its
    tree) at node k must precede its children, k <= 2j. So is a split on a
    feature that values does not have.
    """
    feature = np.concatenate([tree.feature for tree in trees])
    value = np.concatenate([tree.value for tree in trees])
    sizes = np.array([tree.feature.size for tree in trees], dtype=np.intp)
    start = np.cumsum(sizes) - sizes
    tree = np.repeat(np.arange(len(trees)), sizes)
    split = feature >= 0
    splits = np.bincount(tree[split], minlength=len(trees))
    rank = np.cumsum(split) - split  # splits before each node, then within its tree
    rank -= (np.cumsum(splits) - splits)[tree]
    local = np.arange(feature.size) - start[tree]
    cls, first = origin
    bad = np.flatnonzero(sizes != 2 * splits + 1)
    if bad.size:
        t = int(bad[0])
        n, s = int(sizes[t]), int(splits[t])
        state = "missing" if n < 2 * s + 1 else "extra"
        raise DataError(
            f"tree {first + t} of class {cls!r}: node {min(n, 2 * s + 1)} is "
            f"{state}; a split count of {s} means nodes 0..{2 * s}"
        )
    bad = split & (local > 2 * rank)
    if bad.any():
        k = int(bad.argmax())
        raise DataError(
            f"tree {first + tree[k]} of class {cls!r}: node {local[k]} is split "
            f"{rank[k]}, whose children {2 * rank[k] + 1} and {2 * rank[k] + 2} "
            "do not follow it"
        )
    width = values.shape[1]
    bad = split & (feature >= width)
    if bad.any():
        k = int(bad.argmax())
        raise DataError(
            f"tree {first + tree[k]} of class {cls!r}: node {local[k]} splits on "
            f"feature {feature[k]}, outside 0..{width - 1}"
        )
    zero_child = start[tree] + 2 * rank + 1  # a split's child for rows holding 0
    node = np.tile(start, (len(values), 1))
    rows = np.arange(len(values))[:, None]
    while True:
        f = feature[node]
        inner = f >= 0
        if not inner.any():
            return value[node]
        bit = values[rows, np.where(inner, f, 0)]
        node = np.where(inner, zero_child[node] + bit, node)


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


class _Workspace:
    """_grow's working arrays, allocated once and refilled by every call.

    It serves calls of up to ``trees`` trees over the patterns ``values`` with
    1-columns ``ones`` (see _ones). Entry (tree, pattern) is numbered
    tree * patterns + pattern, and the full pair lists pair every entry with
    its pattern's 1-columns, in entry order, then column order. A call fills
    prefixes: of the entry arrays; of the pair arrays, whose last slot takes
    the pairs of unsampled entries; and of the (node, column) block arrays,
    whose last row takes the pairs of nodes outside the block. Allocating
    arrays this size every round instead tips glibc into returning heap pages
    and faulting them back in, round after round.
    """

    def __init__(self, values, ones, trees, params):
        P, d = values.shape
        start, cols = ones
        width = np.diff(start)
        entries = trees * P
        self.params = params
        self.columns = d
        self.values = values.ravel()
        self.entry_tree = np.repeat(np.arange(trees), P)
        self.entry_offset = np.tile(np.arange(P) * d, trees)  # pattern's row in values
        self.entry_width = np.tile(width, trees)
        self.tree_pairs = cols.size
        self.pair_entry = np.repeat(np.arange(entries), self.entry_width)
        self.pair_column = np.tile(cols, trees)
        # each pair's place among its entry's pairs
        local = np.arange(cols.size) - np.repeat(start[:-1], width)
        self.pair_local = np.tile(local, trees)
        pairs = self.pair_entry.size
        self.node, self.key, self.index = (np.empty(entries, np.intp) for _ in range(3))
        self.out, self.leaf = np.empty(entries), np.empty(entries)
        self.flag = np.empty(entries, dtype=bool)
        self.pair, self.column, self.cell = (
            np.empty(pairs + 1, np.intp) for _ in range(3)
        )
        self.pair_cnt, self.pair_g = np.empty(pairs), np.empty(pairs)
        # a depth holds at most trees * min(2 ** depth, patterns) nodes
        widest = trees * min(P, 1 << min(params.max_depth - 1, 62))
        self.block = min(max(1, WORK_ELEMENTS // max(1, d)), widest)
        self.C1, self.S1 = (np.empty((self.block + 1) * d) for _ in range(2))
        self.C0, self.S0 = (np.empty(self.block * d) for _ in range(2))
        self.bad, self.bad0 = (np.empty(self.block * d, dtype=bool) for _ in range(2))


def _best_splits(work, C1, S1, n_tot, s_tot):
    """Best feature of each node, -1 where no split gains.

    C1 and S1 hold each (node, column)'s row count and g sum over the rows
    holding 1; the lowest column wins ties. S1 is overwritten with the gains.
    """
    r, d = C1.shape
    C0, S0 = (a[: r * d].reshape(r, d) for a in (work.C0, work.S0))
    bad, bad0 = (a[: r * d].reshape(r, d) for a in (work.bad, work.bad0))
    np.subtract(n_tot[:, None], C1, out=C0)
    np.subtract(s_tot[:, None], S1, out=S0)
    np.less_equal(C1, 0, out=bad)
    np.less_equal(C0, 0, out=bad0)
    np.logical_or(bad, bad0, out=bad)
    # S1 * S1 / C1 + S0 * S0 / C0 - s_tot * s_tot / n_tot, operation by operation
    with np.errstate(divide="ignore", invalid="ignore"):
        for S, C in ((S1, C1), (S0, C0)):
            np.multiply(S, S, out=S)
            np.divide(S, C, out=S)
    np.add(S1, S0, out=S1)
    np.subtract(S1, (s_tot * s_tot / n_tot)[:, None], out=S1)
    np.copyto(S1, -np.inf, where=bad)
    j = S1.argmax(axis=1)
    return np.where(S1[np.arange(r), j] > GAIN_TOL, j, -1)


def _grow(work, cnt, G, H):
    """Grow one tree per row of the (trees x patterns) row counts and g/h sums.

    The trees grow together, one depth at a time; a depth's nodes are numbered
    tree by tree, and the children of its i-th split node are nodes 2i and
    2i + 1 of the next depth. work is a _Workspace for at least as many trees.
    Returns the level-order trees and each pattern's leaf value in each tree,
    as a (trees x patterns) view into work, valid until the next call.
    """
    S, P = cnt.shape
    E = S * P
    d, params = work.columns, work.params
    cnt, G, H = (np.ravel(a) for a in (cnt, G, H))
    node, key, index, out, leaf, flag = (
        a[:E] for a in (work.node, work.key, work.index, work.out, work.leaf, work.flag)
    )
    np.copyto(node, work.entry_tree[:E])  # node of each entry; < 0 once at a leaf
    # only sampled entries add to the split sums: their pairs, in entry order,
    # go to the front of the pair buffers, every other pair to the last slot,
    # so every split-sum bin adds its patterns in ascending order
    n_pairs = S * work.tree_pairs
    np.greater(cnt, 0, out=flag)
    np.multiply(work.entry_width[:E], flag, out=index)
    Q = int(index.sum())
    np.cumsum(index, out=index)
    np.subtract(index, work.entry_width[:E], out=index)  # first slot of each entry
    np.logical_not(flag, out=flag)
    last = work.pair.size - 1
    np.copyto(index, last, where=flag)
    slot = work.cell[:n_pairs]
    np.take(index, work.pair_entry[:n_pairs], out=slot, mode="clip")
    np.add(slot, work.pair_local[:n_pairs], out=slot)
    np.minimum(slot, last, out=slot)
    work.pair[slot] = work.pair_entry[:n_pairs]
    work.column[slot] = work.pair_column[:n_pairs]
    pair, column, cell = work.pair[:Q], work.column[:Q], work.cell[:Q]
    pair_cnt = np.take(cnt, pair, out=work.pair_cnt[:Q], mode="clip")
    pair_g = np.take(G, pair, out=work.pair_g[:Q], mode="clip")
    tree = np.arange(S)  # tree of each node at this depth
    levels = []
    for depth in range(params.max_depth + 1):
        m = tree.size
        np.copyto(key, node)
        np.less(node, 0, out=flag)
        np.copyto(key, m, where=flag)
        # unsampled entries add zeros, which leave every sum's bits unchanged
        n_node, g_node, h_node = (np.bincount(key, w, m + 1)[:m] for w in (cnt, G, H))
        feature = np.full(m, -1, dtype=np.intp)
        if depth < params.max_depth and d:
            search = np.flatnonzero(n_node >= params.min_samples_split)
            for a0 in range(0, search.size, work.block):
                part = search[a0 : a0 + work.block]
                r = part.size
                row = np.full(m + 1, r)  # row r collects every other node's pairs
                row[part] = np.arange(r)
                np.take(row, key, out=index, mode="clip")
                np.take(index, pair, out=cell, mode="clip")
                np.multiply(cell, d, out=cell)
                np.add(cell, column, out=cell)
                C1, S1 = (a[: (r + 1) * d] for a in (work.C1, work.S1))
                for sums, w in ((C1, pair_cnt), (S1, pair_g)):
                    sums.fill(0.0)
                    np.add.at(sums, cell, w)
                feature[part] = _best_splits(
                    work,
                    C1[: r * d].reshape(r, d),
                    S1[: r * d].reshape(r, d),
                    n_node[part],
                    g_node[part],
                )
        inner = feature >= 0
        value = np.where(
            inner, 0.0, np.clip(g_node / (h_node + 1e-12), -LEAF_CLIP, LEAF_CLIP)
        )
        levels.append((tree, feature, value))
        # entries at this depth's nodes take their node's value; a split's 0
        # is overwritten a depth later
        np.take(np.append(value, 0.0), key, out=leaf, mode="clip")
        np.less(key, m, out=flag)
        np.copyto(out, leaf, where=flag)
        if not inner.any():
            break
        # an entry at a split moves to child 2i (its feature is 0) or 2i + 1
        # (it is 1); every other entry gets -2 or -1
        np.take(np.append(np.maximum(feature, 0), 0), key, out=index, mode="clip")
        np.add(index, work.entry_offset[:E], out=index)
        np.take(work.values, index, out=flag, mode="clip")
        child = np.where(inner, 2 * (np.cumsum(inner) - 1), -2)
        np.take(np.append(child, -2), key, out=node, mode="clip")
        np.add(node, flag, out=node)
        tree = np.repeat(tree[inner], 2)
    # a tree's nodes, depth by depth, are its level order, so one stable sort
    # by tree gives every tree
    tree, feature, value = (np.concatenate(a) for a in zip(*levels))
    order = np.argsort(tree, kind="stable")
    feature, value = feature[order], value[order]
    ends = np.cumsum(np.bincount(tree, minlength=S)).tolist()
    trees = [
        RegressionTree(feature[lo:hi], value[lo:hi])
        for lo, hi in zip([0] + ends[:-1], ends)
    ]
    return trees, out.reshape(S, P)


def fit_regression_tree(X, g, h, rows, params):
    """Fit one tree over 0/1 features to g, with Newton leaves from hessians h."""
    ids, values = _patterns(_check_binary(X))
    at = ids[rows]
    P = len(values)
    cnt, G, H = (
        np.bincount(at, w, P)[None, :] for w in (np.ones(at.size), g[rows], h[rows])
    )
    trees, _ = _grow(_Workspace(values, _ones(values), 1, params), cnt, G, H)
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
                leaves = _leaf_values(
                    sequence[t0 : t0 + step], values, (self.classes[k], t0)
                )
                terms = self.learning_rate * leaves
                # tree by tree, in sequence order, as the scores were trained
                running = np.column_stack([scores[:, k], terms])
                scores[:, k] = np.cumsum(running, axis=1)[:, -1]
        return scores[ids]

    def predict(self, X):
        scores = self.decision_scores(X)
        # argmax takes the first maximum, i.e. class-vocabulary order on ties
        return [self.classes[k] for k in np.argmax(scores, axis=1)]


def _softmax(scores, out):
    """Softmax of each row of scores, into out."""
    np.subtract(scores, scores.max(axis=1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=1, keepdims=True)


def _cells(ids, y, K, P):
    """The training rows keyed by (pattern, label) cell, in pattern then label order.

    ids holds each row's pattern (0..P-1, each present) and y its label
    (0..K-1). Returns each cell's row count, each pattern's first cell, and
    for each cell the flat index of its count in its own label's row of a
    (classes x cells) draw and of its (label, pattern) in a (classes x
    patterns) array.
    """
    key, count = np.unique(ids * K + y, return_counts=True)
    pattern, label = np.divmod(key, K)
    first = np.flatnonzero(np.diff(pattern, prepend=-1))
    own = label * key.size + np.arange(key.size)
    at = label * P + pattern
    return count, first, own, at


def _draw_counts(rng, cells, sub_size, counts, cnt, pos):
    """Draw every class's row subsample as (pattern, label) counts, in one call.

    Each of the K = len(cnt) subsamples takes sub_size rows without
    replacement. Fills cnt[k, p] with the number of pattern-p rows in class
    k's subsample and pos[k, p] with how many of those are labelled k;
    counts is an int64 array of cnt's shape.
    """
    count, first, own, at = cells
    draw = rng.multivariate_hypergeometric(
        count, sub_size, size=len(cnt), method="count"
    )
    np.add.reduceat(draw, first, axis=1, out=counts)
    np.copyto(cnt, counts)
    pos.fill(0.0)
    pos.ravel()[at] = draw.ravel()[own]


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
    cells = _cells(ids, y, K, P)
    rng = np.random.default_rng(np.random.SeedSequence(seed_entropy(params.seed)))
    sub_size = max(1, math.ceil(params.subsample * n))
    # classes whose trees grow together: bounds the per-depth (tree, pattern)
    # entries and the round's (entry, 1-column) pairs
    step = max(1, WORK_ELEMENTS // max(2**params.max_depth * P, ones[1].size))
    work = _Workspace(values, ones, min(K, step), params)
    scores = np.tile(priors, (P, 1))
    p = np.empty((P, K))
    counts = np.empty((K, P), dtype=np.int64)
    cnt, pos, G, H = (np.empty((K, P)) for _ in range(4))
    pT = p.T
    for _ in range(params.n_trees):
        _softmax(scores, out=p)
        _draw_counts(rng, cells, sub_size, counts, cnt, pos)
        # G = pos - cnt p and H = cnt p (1 - p) per (class, pattern)
        np.multiply(cnt, pT, out=G)
        np.subtract(pos, G, out=G)
        np.subtract(1.0, pT, out=H)
        np.multiply(pT, H, out=H)
        np.multiply(cnt, H, out=H)
        for k0 in range(0, K, step):
            k1 = min(K, k0 + step)
            trees, out = _grow(work, cnt[k0:k1], G[k0:k1], H[k0:k1])
            np.multiply(out, params.learning_rate, out=out)
            scores[:, k0:k1] += out.T
            for k, tree in zip(range(k0, k1), trees):
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
            for f, v in zip(tree.feature.tolist(), tree.value.tolist()):
                lines.append(f"leaf {v!r}" if f < 0 else f"split {f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _checked(kind, valid):
    """A word parser: kind(word), a ValueError unless valid(that value)."""

    def parse(word):
        value = kind(word)
        if not valid(value):
            raise ValueError(word)
        return value

    return parse


_finite = _checked(float, math.isfinite)
_positive = _checked(float, lambda r: 0 < r < math.inf)
_count = _checked(int, lambda n: n >= 0)


def load_model(path):
    """Read a save_model file; anything the trainer never writes is a DataError.

    A tree read this way has 2s + 1 nodes for s splits, each split before its
    children, so it is in level order.
    """
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

    def tree():
        """The next tree: node lines up to the first where leaves outnumber splits."""
        feature, value, leaves = [], [], 0
        while 2 * leaves <= len(feature):
            line = take()
            try:
                kind, word = line.split()
                if kind not in ("leaf", "split"):
                    raise ValueError(kind)
                leaf = kind == "leaf"
                f, v = (-1, _finite(word)) if leaf else (int(word), 0.0)
            except ValueError:
                raise DataError(f"{path}:{pos}: bad node line {line!r}") from None
            if not leaf and not 0 <= f < n_features:
                raise DataError(
                    f"{path}:{pos}: split feature {f} outside 0..{n_features - 1}"
                )
            leaves += leaf
            feature.append(f)
            value.append(v)
        return RegressionTree(feature, value)

    if take(MODEL_MAGIC.split()[0]) != MODEL_MAGIC:
        raise DataError(f"{path}:1: unsupported model version")
    [learning_rate] = fields("learning_rate", _positive)
    [n_features] = fields("n_features", _count)
    [n_classes] = fields("n_classes", _checked(int, lambda n: n >= 1))
    classes = []
    for _ in range(n_classes):
        name = take("class")[len("class "):]
        if name in classes:
            raise DataError(f"{path}:{pos}: bad class line: class {name!r} repeats")
        classes.append(name)
    priors = np.array([fields("prior", _finite)[0] for _ in range(n_classes)])
    trees = []
    for k in range(n_classes):
        index, ntrees = fields("ensemble", int, "trees", _count)
        if index != k:
            raise DataError(f"{path}:{pos}: ensembles out of order")
        trees.append([tree() for _ in range(ntrees)])
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
