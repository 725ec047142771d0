"""From-scratch random forest classifier.

Breiman's forest (Breiman, "Random Forests", Machine Learning 45, 2001):
each Gini-impurity CART tree grows on a bootstrap sample of the n training
rows, drawn with replacement, and draws max(1, floor(sqrt(d))) of the d
features at each split. Growth is deliberately eager: a node splits even at
zero impurity gain as long as a valid split exists, so a tree grown to
enough depth with one-row leaves memorizes the rows it drew (XOR included).
Determinism is part of the contract: a fixed seed yields an identical
forest, and split ties resolve to the lowest feature index, then the lowest
threshold. `fit` takes `cfg`, the dict that config.check_config returns,
and reads the FOREST keys and `seed` from it.
"""

import sys

import numpy as np

from .config import FOREST
from .jsonio import choice, integer, record

_FLOAT_MAX = sys.float_info.max


class DecisionTree:
    """Preorder node list: internal nodes route on x[feature] <= threshold;
    leaves carry the class histogram of the training rows that reached them."""

    def __init__(self, nodes: list, n_classes: int):
        self.nodes = nodes
        self.n_classes = n_classes


class RandomForest:
    """Trees, and the columns that prediction reads, built once from their nodes; `config`
    is the header of its document, but for its sizes.

    The columns are one table of every tree's nodes, tree after tree, from
    row roots[t] on: `feature`, `threshold`, `left` and `right` of each row
    (a leaf routes to itself), `leaf`, the row of `value` that a leaf owns
    (-1 at a split), and `value`, the [leaves, classes] normalized
    histograms. A malformed node raises naming its tree and index.
    """

    def __init__(self, trees: list, config: dict, n_features: int, n_classes: int):
        self.trees = trees
        self.config = config
        self.n_features = n_features
        self.n_classes = n_classes
        (self.roots, self.feature, self.threshold, self.left, self.right, self.leaf,
         self.value) = _node_table(trees, n_features, n_classes)


def _node_table(trees: list, n_features: int, n_classes: int) -> tuple:
    """RandomForest's columns, from one pass over every tree's nodes in tree order.

    Each node is checked as its row is appended, and the first that is
    neither a split nor a leaf raises. A split names a feature below
    n_features, a finite threshold and children after it in its own tree:
    preorder puts children after their parent, so row < child < the tree's
    end rules out cycles. A leaf holds n_classes non-negative counts, not
    all zero. A bool is no int, and no number lies past the float range.
    """
    roots, feature, threshold, left, right, leaf, counts = ([] for _ in range(7))
    for t, tree in enumerate(trees):
        nodes = tree.nodes
        if type(nodes) is not list or not nodes:
            raise ValueError(f"tree {t} is not a non-empty list of nodes")
        base = len(feature)
        roots.append(base)
        for i, node in enumerate(nodes):
            if type(node) is dict and "feature" in node:
                f, x, lo, hi = map(node.get, ("feature", "threshold", "left", "right"))
                if (type(f) is int and 0 <= f < n_features
                        and type(x) in (int, float) and abs(x) <= _FLOAT_MAX
                        and type(lo) is int and i < lo < len(nodes)
                        and type(hi) is int and i < hi < len(nodes)):
                    feature.append(f)
                    threshold.append(x)
                    left.append(base + lo)
                    right.append(base + hi)
                    leaf.append(-1)
                    continue
            elif type(node) is dict:
                hist = node.get("histogram")
                if (type(hist) is list and len(hist) == n_classes
                        and all(type(c) is int and 0 <= c <= _FLOAT_MAX for c in hist)
                        and any(hist)):
                    feature.append(0)
                    threshold.append(0.0)
                    left.append(base + i)
                    right.append(base + i)
                    leaf.append(len(counts))
                    counts.append(hist)
                    continue
            raise ValueError(f"tree {t} node {i} is neither a split (a feature below "
                             f"{n_features}, a finite threshold, children after it) nor a "
                             f"leaf of {n_classes} class counts: {node!r}")
    value = np.array(counts, dtype=float).reshape(-1, n_classes)
    return (np.array(roots, dtype=np.intp), np.array(feature, dtype=np.intp),
            np.array(threshold, dtype=float), np.array(left, dtype=np.intp),
            np.array(right, dtype=np.intp), np.array(leaf, dtype=np.intp),
            value / value.sum(axis=1, keepdims=True))


def _gini(hist: np.ndarray) -> np.ndarray:
    """Gini impurity of the class histograms along the last axis (none empty).

    The sum of squares is a vector-vector matmul, which numpy hands to the same
    BLAS dot kernel as `np.dot`, so every impurity is bit-identical to a
    one-histogram `np.dot(frac, frac)`.
    """
    frac = hist / hist.sum(axis=-1, keepdims=True)
    return 1.0 - (frac[..., None, :] @ frac[..., :, None])[..., 0, 0]


def _best_split(X, y, rows, n_classes, features, min_samples_leaf):
    """Best (feature, threshold, gain) over `features`, or None if no valid split.

    Scores every boundary of every feature at once (Louppe, arXiv:1407.7502,
    section 3): sort each feature column, take prefix class counts, and keep
    the first maximum gain in (feature, threshold) order.
    """
    labels = y[rows]
    node_hist = np.bincount(labels, minlength=n_classes).astype(float)
    m = rows.size
    node_gini = _gini(node_hist)
    vals = X[np.ix_(rows, features)]
    order = np.argsort(vals, axis=0, kind="stable")
    sv = np.take_along_axis(vals, order, axis=0)
    # boundary i splits off the p = i + 1 smallest rows
    p = np.arange(1, m)[:, None]
    valid = (sv[:-1] < sv[1:]) & (p >= min_samples_leaf) & (m - p >= min_samples_leaf)
    fi, bi = np.nonzero(valid.T)  # feature-major, so argmax keeps the first maximum
    if fi.size == 0:
        return None
    # left[i, f] = class histogram of the p smallest rows on feature f
    left = np.cumsum(np.eye(n_classes)[labels[order[:-1]]], axis=0)[bi, fi]
    p = bi + 1
    weighted = (p * _gini(left) + (m - p) * _gini(node_hist - left)) / m
    gain = node_gini - weighted
    k = int(np.argmax(gain))
    return gain[k], features[fi[k]], 0.5 * (sv[bi[k], fi[k]] + sv[bi[k] + 1, fi[k]])


def _grow_tree(X, y, rows, n_classes, cfg, rng) -> list:
    n_total_features = X.shape[1]
    m_feat = max(1, int(np.sqrt(n_total_features)))
    max_depth, min_samples_leaf = cfg["max_depth"], cfg["min_samples_leaf"]

    nodes = []

    def build(rows, depth):
        index = len(nodes)
        nodes.append(None)  # reserve slot
        hist = np.bincount(y[rows], minlength=n_classes)
        pure = np.count_nonzero(hist) <= 1
        split = None
        if not pure and depth < max_depth and rows.size >= 2 * min_samples_leaf:
            subset = np.sort(rng.choice(n_total_features, size=m_feat, replace=False))
            split = _best_split(X, y, rows, n_classes, subset, min_samples_leaf)
            if split is None and m_feat < n_total_features:
                # the drawn subset was constant on this node; retry with all features
                split = _best_split(
                    X, y, rows, n_classes, np.arange(n_total_features), min_samples_leaf
                )
        if split is None:
            nodes[index] = {"histogram": [int(c) for c in hist]}
            return index
        _, feature, threshold = split
        go_left = X[rows, feature] <= threshold
        left = build(rows[go_left], depth + 1)
        right = build(rows[~go_left], depth + 1)
        nodes[index] = {
            "feature": int(feature),
            "threshold": float(threshold),
            "left": left,
            "right": right,
        }
        return index

    build(rows, 0)
    return nodes


def fit(X, y, cfg: dict) -> RandomForest:
    """cfg's n_trees trees, tree t grown on a bootstrap sample drawn with seed [seed, t]."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or y.shape != (X.shape[0],):
        raise ValueError(f"need X [n, d] and y [n], got {X.shape} and {y.shape}")
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least 2 training rows")
    if y.min() < 0:
        raise ValueError("labels must be non-negative class indices")
    n_classes = int(y.max()) + 1

    trees = []
    for t in range(cfg["n_trees"]):
        rng = np.random.default_rng([cfg["seed"], t])
        rows = rng.integers(0, n, size=n)
        trees.append(DecisionTree(_grow_tree(X, y, rows, n_classes, cfg, rng), n_classes))
    config = {**{key: cfg[key] for key in FOREST}, "max_features": "sqrt", "bootstrap": True,
              "seed": cfg["seed"]}
    return RandomForest(trees, config, X.shape[1], n_classes)


def predict_proba(forest: RandomForest, X) -> np.ndarray:
    """Mean of the per-tree leaf distributions of each row of X [N, n], or of one
    row [n]; each sums to 1.

    All rows move down all trees together, one level a step, until each sits
    at a leaf. Each row then adds the trees' distributions in tree order, so
    its probabilities have the same bits in a batch of any size.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != forest.n_features:
        raise ValueError(f"expected {forest.n_features} features, got shape {X.shape}")
    rows = X.reshape(-1, forest.n_features)
    n_rows, n_trees = rows.shape[0], len(forest.trees)
    row = np.tile(np.arange(n_rows), n_trees)
    node = np.repeat(forest.roots, n_rows)  # tree-major: tree t's rows are block t
    leaf = forest.leaf[node]
    while (leaf < 0).any():
        go_left = rows[row, forest.feature[node]] <= forest.threshold[node]
        node = np.where(go_left, forest.left[node], forest.right[node])
        leaf = forest.leaf[node]
    proba = np.zeros((n_rows, forest.n_classes))
    for dist in forest.value[leaf].reshape(n_trees, n_rows, forest.n_classes):
        proba += dist
    proba /= n_trees
    return proba if X.ndim == 2 else proba[0]


def predict(forest: RandomForest, x) -> int:
    # argmax breaks ties toward the lowest class index
    return int(np.argmax(predict_proba(forest, x)))


def forest_to_doc(forest: RandomForest) -> dict:
    header = {**forest.config, "n_features": forest.n_features, "n_classes": forest.n_classes}
    return {"header": header, "trees": [tree.nodes for tree in forest.trees]}


_SIZE = integer(1)
# the checks of a forest document's header fields: exactly what fit writes
HEADER = record({"n_trees": _SIZE, "max_depth": _SIZE, "min_samples_leaf": _SIZE,
                 "max_features": choice(("sqrt",)), "bootstrap": choice((True,)),
                 "seed": integer(0), "n_features": _SIZE, "n_classes": _SIZE})


def forest_from_doc(doc: dict) -> RandomForest:
    """The forest of a forest_to_doc document, as a cn checkpoint holds it in `forest`;
    a bad header field raises naming it, a malformed node naming its tree."""
    h = HEADER(doc["header"], ("forest", "header"))
    n_features, n_classes = h.pop("n_features"), h.pop("n_classes")
    trees = [DecisionTree(nodes, n_classes) for nodes in doc["trees"]]
    return RandomForest(trees, h, n_features, n_classes)
