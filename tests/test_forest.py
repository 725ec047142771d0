import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xastruct.config import check_config
from xastruct.forest import (
    DecisionTree,
    RandomForest,
    _best_split,
    _grow_tree,
    fit,
    forest_from_doc,
    forest_to_doc,
    predict,
    predict_proba,
)


# the config of a forest that a test builds from its trees, as fit writes it
CONFIG = {"n_trees": 1, "max_depth": 16, "min_samples_leaf": 2, "max_features": "sqrt",
          "bootstrap": True, "seed": 0}


def reference_gini(hist):
    m = hist.sum()
    if m == 0:
        return 0.0
    frac = hist / m
    return 1.0 - float(np.dot(frac, frac))


def reference_best_split(X, y, rows, n_classes, features, min_samples_leaf):
    """The per-feature, per-threshold loop that the vectorized search replaced."""
    labels = y[rows]
    node_hist = np.bincount(labels, minlength=n_classes).astype(float)
    m = rows.size
    node_gini = reference_gini(node_hist)
    best = None  # (gain, feature, threshold)
    for f in features:
        vals = X[rows, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sl = labels[order]
        onehot = np.zeros((m, n_classes))
        onehot[np.arange(m), sl] = 1.0
        prefix = np.cumsum(onehot, axis=0)
        boundaries = np.nonzero(sv[:-1] < sv[1:])[0] + 1
        for p in boundaries:
            if p < min_samples_leaf or m - p < min_samples_leaf:
                continue
            left = prefix[p - 1]
            right = node_hist - left
            weighted = (p * reference_gini(left) + (m - p) * reference_gini(right)) / m
            gain = node_gini - weighted
            if best is None or gain > best[0]:
                best = (gain, f, 0.5 * (sv[p - 1] + sv[p]))
    return best


def reference_proba(forest, x):
    """The per-tree walk over node dicts that the column routing replaced."""
    proba = np.zeros(forest.n_classes)
    for tree in forest.trees:
        node = tree.nodes[0]
        while "feature" in node:
            side = "left" if x[node["feature"]] <= node["threshold"] else "right"
            node = tree.nodes[node[side]]
        hist = np.asarray(node["histogram"], dtype=float)
        proba += hist / hist.sum()
    return proba / len(forest.trees)


def grown_on_every_row(X, y, rng):
    """A one-tree forest grown on every row of X, each once, with one-row leaves allowed and
    depth enough to grow until every leaf is pure: it memorizes consistent labels."""
    n_classes = int(y.max()) + 1
    cfg = check_config({"max_depth": len(y), "min_samples_leaf": 1})
    nodes = _grow_tree(X, y, np.arange(len(y)), n_classes, cfg, rng)
    return RandomForest([DecisionTree(nodes, n_classes)], CONFIG, X.shape[1], n_classes)


def pure_leaf_tree(class_index, n_classes=2):
    hist = [0] * n_classes
    hist[class_index] = 1
    return DecisionTree([{"histogram": hist}], n_classes)


class TestFit:
    def test_single_class_always_predicted(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.full(20, 2)
        forest = fit(X, y, check_config({"n_trees": 5, "seed": 1}))
        assert all(predict(forest, row) == 2 for row in X)

    def test_linearly_separable_training_accuracy(self):
        # class = 1 iff x0 + x1 > 0; separable with axis splits at depth 2
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(80, 2))
        X = X[np.abs(X.sum(axis=1)) > 0.1]  # margin keeps the task clean
        y = (X.sum(axis=1) > 0).astype(int)
        cfg = check_config({"n_trees": 30, "max_depth": 8, "min_samples_leaf": 1, "seed": 3})
        forest = fit(X, y, cfg)
        assert np.mean(np.array([predict(forest, x) for x in X]) == y) == 1.0

    def test_fixed_seed_reproduces_forest(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 5))
        y = rng.integers(0, 3, size=40)
        cfg = check_config({"n_trees": 7, "seed": 11})
        a, b = fit(X, y, cfg), fit(X, y, cfg)
        assert json.dumps(forest_to_doc(a)) == json.dumps(forest_to_doc(b))

    def test_memorizes_consistent_data(self):
        # XOR: zero Gini gain at the root, still must split and reach purity
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        forest = grown_on_every_row(X, y, np.random.default_rng(0))
        assert [predict(forest, x) for x in X] == [0, 1, 1, 0]

    def test_memorizes_random_consistent_data(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, 4, size=60)
        forest = grown_on_every_row(X, y, rng)
        assert np.mean(np.array([predict(forest, x) for x in X]) == y) == 1.0

    def test_input_validation(self):
        cfg = check_config({})
        with pytest.raises(ValueError):
            fit(np.zeros((1, 2)), np.zeros(1, dtype=int), cfg)
        with pytest.raises(ValueError):
            fit(np.zeros((4, 2)), np.array([0, 1, 0, -1]), cfg)
        with pytest.raises(ValueError, match="n_trees"):  # the config refuses a forest of none
            fit(np.zeros((4, 2)), np.array([0, 1, 0, 1]), check_config({"n_trees": 0}))

    def test_leaf_histograms_count_routed_rows(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        # a bootstrap sample draws 30 rows too, some more than once
        forest = fit(X, y, check_config({"n_trees": 1, "seed": 7}))
        leaf_total = sum(
            sum(node["histogram"]) for node in forest.trees[0].nodes if "histogram" in node
        )
        assert leaf_total == 30


class TestSplitSearch:
    def test_vectorized_search_equals_reference_loop(self):
        outcomes = set()
        for seed in range(300):
            rng = np.random.default_rng(seed)
            n_classes = 2 + seed % 4
            min_samples_leaf = 1 + seed % 3
            n, d = int(rng.integers(2, 60)), int(rng.integers(1, 9))
            X = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 3)))  # repeated values
            X[:, rng.integers(d)] = 0.25  # one constant feature
            y = rng.integers(0, n_classes, size=n)
            rows = rng.integers(0, n, size=n)  # bootstrap rows repeat
            features = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
            got = _best_split(X, y, rows, n_classes, features, min_samples_leaf)
            want = reference_best_split(X, y, rows, n_classes, features, min_samples_leaf)
            if want is None:
                assert got is None, seed
            else:
                gain, feature, threshold = got
                assert (float(gain), int(feature), float(threshold)) == (
                    float(want[0]), int(want[1]), float(want[2])
                ), seed
            outcomes.add(want is None)
        assert outcomes == {True, False}  # both split and no-split nodes were exercised

    def test_seeded_forest_json_is_pinned(self):
        # hash of the forest grown by the per-threshold loop before vectorization
        rng = np.random.default_rng(21)
        X = np.round(rng.normal(size=(90, 12)), 1)
        X[:, 3] = 0.0
        y = rng.integers(0, 3, size=90)
        forest = fit(X, y, check_config({"n_trees": 6, "max_depth": 6, "seed": 5}))
        text = json.dumps(forest_to_doc(forest), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "31a9c49721fc62fa0986d4c3bbd015d260b8dbe969078607a6ad9bec2ef098a5"
        )


class TestPredict:
    def test_one_tree_forest_returns_its_distribution(self):
        tree = DecisionTree(
            [
                {"feature": 0, "threshold": 0.5, "left": 1, "right": 2},
                {"histogram": [3, 1]},
                {"histogram": [0, 5]},
            ],
            2,
        )
        forest = RandomForest([tree], CONFIG, 1, 2)
        assert np.allclose(predict_proba(forest, [0.2]), [0.75, 0.25])
        assert np.allclose(predict_proba(forest, [0.9]), [0.0, 1.0])

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 3, size=50)
        forest = fit(X, y, check_config({"n_trees": 9, "seed": 9}))
        for row in X[:10]:
            assert abs(predict_proba(forest, row).sum() - 1.0) < 1e-12

    def test_two_to_one_vote(self):
        trees = [pure_leaf_tree(0), pure_leaf_tree(0), pure_leaf_tree(1)]
        forest = RandomForest(trees, CONFIG, 2, 2)
        proba = predict_proba(forest, [0.0, 0.0])
        assert np.allclose(proba, [2.0 / 3.0, 1.0 / 3.0])
        assert predict(forest, [0.0, 0.0]) == 0

    def test_tie_breaks_to_lowest_class(self):
        trees = [pure_leaf_tree(1), pure_leaf_tree(0)]
        forest = RandomForest(trees, CONFIG, 2, 2)
        assert predict(forest, [0.0, 0.0]) == 0

    def test_duplicating_every_tree_preserves_argmax(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, size=40)
        forest = fit(X, y, check_config({"n_trees": 5, "seed": 12}))
        doubled = RandomForest(forest.trees * 2, forest.config, forest.n_features, 3)
        queries = rng.normal(size=(20, 3))
        assert [predict(forest, x) for x in queries] == [predict(doubled, x) for x in queries]

    def test_dimension_mismatch(self):
        forest = RandomForest([pure_leaf_tree(0)], CONFIG, 2, 2)
        for x in ([1.0, 2.0, 3.0], np.zeros((4, 3)), np.zeros((1, 2, 2)), 0.0):
            with pytest.raises(ValueError, match="expected 2 features"):
                predict_proba(forest, x)

    def test_a_batch_routes_each_row_down_each_tree(self):
        tree = DecisionTree(
            [
                {"feature": 1, "threshold": 0.5, "left": 1, "right": 2},
                {"histogram": [3, 1]},
                {"feature": 0, "threshold": -1.0, "left": 3, "right": 4},
                {"histogram": [0, 2]},
                {"histogram": [1, 4]},
            ],
            2,
        )
        forest = RandomForest([tree, pure_leaf_tree(0)], CONFIG, 2, 2)
        # x1 <= 0.5 goes left; on the threshold goes left; nan compares false and goes right
        X = np.array([[9.0, 0.5], [-1.0, 0.6], [0.0, 0.7], [np.nan, np.nan]])
        proba = predict_proba(forest, X)
        expected = [[0.875, 0.125], [0.5, 0.5], [0.6, 0.4], [0.6, 0.4]]
        assert proba.tolist() == expected
        assert predict_proba(forest, np.zeros((0, 2))).shape == (0, 2)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_rows=st.integers(2, 40),
           n_features=st.integers(1, 6), n_classes=st.integers(1, 5),
           n_trees=st.integers(1, 20), max_depth=st.sampled_from([1, 3, 64]),
           decimals=st.integers(0, 2))
    def test_batched_and_one_row_probabilities_have_the_same_bytes(
        self, seed, n_rows, n_features, n_classes, n_trees, max_depth, decimals
    ):
        rng = np.random.default_rng(seed)
        X = np.round(rng.normal(size=(n_rows, n_features)), decimals)
        y = rng.integers(0, n_classes, size=n_rows)
        cfg = check_config({"n_trees": n_trees, "max_depth": max_depth, "min_samples_leaf": 1,
                            "seed": seed})
        forest = fit(X, y, cfg)
        # one seed, one forest: a second fit writes the same checkpoint bytes
        assert json.dumps(forest_to_doc(fit(X, y, cfg))) == json.dumps(forest_to_doc(forest))
        # training rows sit on the thresholds' sides exactly; fresh rows anywhere
        queries = np.concatenate([X, np.round(rng.normal(size=(7, n_features)), decimals)])
        batched = predict_proba(forest, queries)
        rows = np.stack([predict_proba(forest, q) for q in queries])
        assert batched.tobytes() == rows.tobytes()
        assert batched.tobytes() == np.stack([reference_proba(forest, q) for q in queries]).tobytes()


class TestCheckpoint:
    def test_round_trip_preserves_predictions(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 6))
        y = rng.integers(0, 4, size=60)
        forest = fit(X, y, check_config({"n_trees": 11, "seed": 14}))
        loaded = forest_from_doc(json.loads(json.dumps(forest_to_doc(forest))))
        queries = rng.normal(size=(25, 6))
        assert [predict(forest, x) for x in queries] == [predict(loaded, x) for x in queries]
        for row in queries[:5]:
            assert np.allclose(predict_proba(forest, row), predict_proba(loaded, row), atol=1e-15)

    @pytest.mark.parametrize("max_depth", [3, 16])
    def test_every_config_fit_takes_round_trips(self, max_depth):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 6))
        cfg = check_config({"n_trees": 5, "seed": 14, "max_depth": max_depth, "min_samples_leaf": 1})
        forest = fit(X, rng.integers(0, 4, size=60), cfg)
        loaded = forest_from_doc(json.loads(json.dumps(forest_to_doc(forest))))
        assert loaded.config == forest.config
        assert forest_to_doc(loaded) == forest_to_doc(forest)
        queries = rng.normal(size=(10, 6))
        assert predict_proba(loaded, queries).tobytes() == predict_proba(forest, queries).tobytes()

    def test_header_fields(self):
        cfg = check_config({"n_trees": 3, "max_depth": 5, "seed": 9})
        forest = fit(np.zeros((4, 2)) + np.arange(4)[:, None], np.array([0, 0, 1, 1]), cfg)
        doc = json.loads(json.dumps(forest_to_doc(forest)))
        assert doc["header"] == {"n_trees": 3, "max_depth": 5, "min_samples_leaf": 2,
                                 "max_features": "sqrt", "bootstrap": True, "seed": 9,
                                 "n_features": 2, "n_classes": 2}


def _fitted_doc():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(40, 5))
    y = rng.integers(0, 3, size=40)
    forest = fit(X, y, check_config({"n_trees": 4, "seed": 16}))
    return json.loads(json.dumps(forest_to_doc(forest)))


def _first_split(nodes) -> int:
    return next(i for i, node in enumerate(nodes) if "feature" in node)


def _first_leaf(nodes) -> int:
    return next(i for i, node in enumerate(nodes) if "histogram" in node)


# a corruption of one node of a tree's node list, in place
BAD_NODES = {
    "bool feature": lambda nodes, i: nodes[i].update(feature=True),
    "string feature": lambda nodes, i: nodes[i].update(feature="0"),
    "feature out of range": lambda nodes, i: nodes[i].update(feature=5),
    "negative feature": lambda nodes, i: nodes[i].update(feature=-1),
    "float child": lambda nodes, i: nodes[i].update(left=float(nodes[i]["left"])),
    "bool child": lambda nodes, i: nodes[i].update(right=True),
    "child before parent": lambda nodes, i: nodes[i].update(right=i),
    "child past the tree": lambda nodes, i: nodes[i].update(left=len(nodes)),
    "missing child": lambda nodes, i: nodes[i].pop("right"),
    "infinite threshold": lambda nodes, i: nodes[i].update(threshold=math.inf),
    "nan threshold": lambda nodes, i: nodes[i].update(threshold=math.nan),
    "string threshold": lambda nodes, i: nodes[i].update(threshold="0.5"),
    "int threshold past the float range": lambda nodes, i: nodes[i].update(threshold=10 ** 400),
    "not a dict": lambda nodes, i: nodes.__setitem__(i, [nodes[i]]),
}
BAD_LEAVES = {
    "short histogram": lambda nodes, i: nodes[i]["histogram"].pop(),
    "negative count": lambda nodes, i: nodes[i]["histogram"].__setitem__(0, -1),
    "float count": lambda nodes, i: nodes[i]["histogram"].__setitem__(0, 1.0),
    "bool count": lambda nodes, i: nodes[i]["histogram"].__setitem__(0, True),
    "all zero": lambda nodes, i: nodes[i].update(histogram=[0, 0, 0]),
    "count past the float range": lambda nodes, i: nodes[i]["histogram"].__setitem__(0, 10 ** 400),
    "no histogram": lambda nodes, i: nodes[i].pop("histogram"),
    "histogram not a list": lambda nodes, i: nodes[i].update(histogram="3,0,1"),
}


class TestFromDoc:
    @pytest.mark.parametrize("case", sorted(BAD_NODES) + sorted(BAD_LEAVES))
    def test_malformed_node_names_its_tree_and_node(self, case):
        doc = _fitted_doc()
        nodes = doc["trees"][2]
        i = _first_split(nodes) if case in BAD_NODES else _first_leaf(nodes)
        (BAD_NODES.get(case) or BAD_LEAVES[case])(nodes, i)
        with pytest.raises(ValueError, match=rf"^tree 2 node {i} is neither a split \(a feature "
                                             rf"below 5, .* nor a leaf of 3 class counts: "):
            forest_from_doc(doc)

    def test_the_first_bad_node_is_named(self):
        doc = _fitted_doc()
        doc["trees"][3][0].update(feature=99)
        nodes = doc["trees"][1]
        leaf = _first_leaf(nodes)
        nodes[leaf]["histogram"] = []
        nodes[-1]["histogram"] = []
        with pytest.raises(ValueError, match=rf"^tree 1 node {leaf} is neither"):
            forest_from_doc(doc)

    @pytest.mark.parametrize("bad", [[], {}, "nodes"])
    def test_a_tree_that_is_no_node_list_is_named_in_tree_order(self, bad):
        doc = _fitted_doc()
        doc["trees"][1] = bad
        with pytest.raises(ValueError, match=r"^tree 1 is not a non-empty list of nodes$"):
            forest_from_doc(doc)
        doc["trees"][0][0] = None
        with pytest.raises(ValueError, match=r"^tree 0 node 0 is neither"):
            forest_from_doc(doc)

    @pytest.mark.parametrize("nodes,message", [
        ([{"feature": 0, "threshold": 0.5, "left": 1, "right": 2}, {"histogram": [1, 0]}],
         r"^tree 1 node 0 is neither a split \(a feature below 1, .* nor a leaf of 2 class counts: "),
        ([], r"^tree 1 is not a non-empty list of nodes$"),
    ], ids=["bad node", "empty tree"])
    def test_a_forest_built_in_python_checks_its_nodes(self, nodes, message):
        trees = [pure_leaf_tree(0), DecisionTree(nodes, 2)]
        with pytest.raises(ValueError, match=message):
            RandomForest(trees, CONFIG, 1, 2)

    @pytest.mark.parametrize("key", ["n_features", "n_classes"])
    @pytest.mark.parametrize("value", [0, 3.0, "3", True, None])
    def test_header_size_that_is_no_positive_integer_is_named(self, key, value):
        doc = _fitted_doc()
        doc["header"][key] = value
        with pytest.raises(ValueError, match=rf"^field 'forest\.header\.{key}': expected an "
                                             rf"integer of at least 1, got {re.escape(repr(value))}$"):
            forest_from_doc(doc)

    @pytest.mark.parametrize("key,value,what", [
        ("max_depth", 0, "an integer of at least 1"),
        ("max_depth", 2.5, "an integer of at least 1"),
        ("max_depth", None, "an integer of at least 1"),
        ("max_features", "log2", "one of 'sqrt'"),
        ("max_features", True, "one of 'sqrt'"),
        ("max_features", 2, "one of 'sqrt'"),
        ("max_features", None, "one of 'sqrt'"),
        ("bootstrap", 1, "one of True"),
        ("bootstrap", False, "one of True"),
        ("seed", -1, "an integer of at least 0"),
    ])
    def test_header_config_field_fit_never_writes_is_named(self, key, value, what):
        doc = _fitted_doc()
        doc["header"][key] = value
        with pytest.raises(ValueError, match=rf"^field 'forest\.header\.{key}': expected "
                                             rf"{re.escape(what)}, got {re.escape(repr(value))}$"):
            forest_from_doc(doc)

    def test_no_trees_loads_as_an_empty_forest(self):
        doc = _fitted_doc()
        doc["trees"] = []
        assert forest_from_doc(doc).trees == []

    def test_loaded_columns_predict_as_the_fitted_ones(self):
        doc = _fitted_doc()
        fitted = forest_from_doc(doc)
        queries = np.random.default_rng(17).normal(size=(30, 5))
        assert (predict_proba(fitted, queries).tobytes()
                == np.stack([reference_proba(fitted, q) for q in queries]).tobytes())
