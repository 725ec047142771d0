"""From-scratch random forest classifier.

Gini-impurity CART trees on bootstrap samples with a random feature
subset per split. Growth is deliberately eager: a node splits even at
zero impurity gain as long as a valid split exists, so a forest with
unlimited depth memorizes any consistently-labeled training set (XOR
included). Determinism is part of the contract: a fixed seed yields an
identical forest, and split ties resolve to the lowest feature index,
then the lowest threshold.
"""

import math
from dataclasses import asdict, dataclass, fields

import numpy as np


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 16  # None for unbounded
    min_samples_leaf: int = 2
    max_features: object = "sqrt"  # "sqrt", an int, or None for all
    bootstrap: bool = True
    seed: int = 0


class DecisionTree:
    """Flat node-array tree. Internal nodes route on x[feature] <= threshold;
    leaves carry the class histogram of the training rows that reached them."""

    def __init__(self, nodes: list, n_classes: int):
        self.nodes = nodes
        self.n_classes = n_classes

    def leaf_histogram(self, x: np.ndarray) -> np.ndarray:
        node = self.nodes[0]
        while "feature" in node:
            if x[node["feature"]] <= node["threshold"]:
                node = self.nodes[node["left"]]
            else:
                node = self.nodes[node["right"]]
        return np.asarray(node["histogram"], dtype=float)


class RandomForest:
    def __init__(self, trees: list, config: ForestConfig, n_features: int, n_classes: int):
        self.trees = trees
        self.config = config
        self.n_features = n_features
        self.n_classes = n_classes


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


def _grow_tree(X, y, rows, n_classes, config, rng) -> list:
    n_total_features = X.shape[1]
    if config.max_features is None:
        m_feat = n_total_features
    elif config.max_features == "sqrt":
        m_feat = max(1, int(np.sqrt(n_total_features)))
    else:
        m_feat = min(int(config.max_features), n_total_features)

    nodes = []

    def build(rows, depth):
        index = len(nodes)
        nodes.append(None)  # reserve slot
        hist = np.bincount(y[rows], minlength=n_classes)
        pure = np.count_nonzero(hist) <= 1
        at_depth = config.max_depth is not None and depth >= config.max_depth
        split = None
        if not pure and not at_depth and rows.size >= 2 * config.min_samples_leaf:
            subset = np.sort(rng.choice(n_total_features, size=m_feat, replace=False))
            split = _best_split(X, y, rows, n_classes, subset, config.min_samples_leaf)
            if split is None and m_feat < n_total_features:
                # the drawn subset was constant on this node; retry with all features
                split = _best_split(
                    X, y, rows, n_classes, np.arange(n_total_features), config.min_samples_leaf
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


def fit(X, y, config: ForestConfig = ForestConfig()) -> RandomForest:
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
    if config.n_trees < 1:
        raise ValueError("n_trees must be at least 1")

    trees = []
    for t in range(config.n_trees):
        rng = np.random.default_rng([config.seed, t])
        rows = rng.integers(0, n, size=n) if config.bootstrap else np.arange(n)
        trees.append(DecisionTree(_grow_tree(X, y, rows, n_classes, config, rng), n_classes))
    return RandomForest(trees, config, X.shape[1], n_classes)


def predict_proba(forest: RandomForest, x) -> np.ndarray:
    """Average of the per-tree leaf distributions; sums to 1."""
    x = np.asarray(x, dtype=float)
    if x.shape != (forest.n_features,):
        raise ValueError(f"expected {forest.n_features} features, got shape {x.shape}")
    proba = np.zeros(forest.n_classes)
    for tree in forest.trees:
        hist = tree.leaf_histogram(x)
        proba += hist / hist.sum()
    return proba / len(forest.trees)


def predict(forest: RandomForest, x) -> int:
    # argmax breaks ties toward the lowest class index
    return int(np.argmax(predict_proba(forest, x)))


def forest_to_doc(forest: RandomForest) -> dict:
    header = {**asdict(forest.config), "n_features": forest.n_features, "n_classes": forest.n_classes}
    return {"header": header, "trees": [tree.nodes for tree in forest.trees]}


def _valid_node(node, i: int, n_nodes: int, n_features: int, n_classes: int) -> bool:
    """Whether node i of a preorder node list is a well-formed split or leaf.

    Preorder puts children after their parent, so i < child < n_nodes rules out cycles.
    """
    if type(node) is not dict:
        return False
    if "feature" in node:
        feature, threshold = node["feature"], node.get("threshold")
        return (type(feature) is int and 0 <= feature < n_features
                and type(threshold) in (int, float) and -math.inf < threshold < math.inf
                and all(type(c) is int and i < c < n_nodes
                        for c in (node.get("left"), node.get("right"))))
    hist = node.get("histogram")
    return (type(hist) is list and len(hist) == n_classes
            and all(type(c) is int and c >= 0 for c in hist) and sum(hist) > 0)


def forest_from_doc(doc: dict) -> RandomForest:
    """The forest of a forest_to_doc document; a malformed node raises naming its tree."""
    h = doc["header"]
    config = ForestConfig(**{f.name: h[f.name] for f in fields(ForestConfig)})
    n_features, n_classes = h["n_features"], h["n_classes"]
    for t, nodes in enumerate(doc["trees"]):
        if type(nodes) is not list or not nodes:
            raise ValueError(f"tree {t} is not a non-empty list of nodes")
        for i, node in enumerate(nodes):
            if not _valid_node(node, i, len(nodes), n_features, n_classes):
                raise ValueError(f"tree {t} node {i} is neither a split (a feature below {n_features}, "
                                 f"a finite threshold, children after it) nor a leaf of "
                                 f"{n_classes} class counts: {node!r}")
    trees = [DecisionTree(nodes, n_classes) for nodes in doc["trees"]]
    return RandomForest(trees, config, n_features, n_classes)
