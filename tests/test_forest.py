import hashlib
import json

import numpy as np
import pytest

from xastruct.forest import (
    DecisionTree,
    ForestConfig,
    RandomForest,
    _best_split,
    fit,
    forest_from_doc,
    forest_to_doc,
    predict,
    predict_proba,
)


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


def pure_leaf_tree(class_index, n_classes=2):
    hist = [0] * n_classes
    hist[class_index] = 1
    return DecisionTree([{"histogram": hist}], n_classes)


class TestFit:
    def test_single_class_always_predicted(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        y = np.full(20, 2)
        forest = fit(X, y, ForestConfig(n_trees=5, seed=1))
        assert all(predict(forest, row) == 2 for row in X)

    def test_linearly_separable_training_accuracy(self):
        # class = 1 iff x0 + x1 > 0; separable with axis splits at depth 2
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(80, 2))
        X = X[np.abs(X.sum(axis=1)) > 0.1]  # margin keeps the task clean
        y = (X.sum(axis=1) > 0).astype(int)
        forest = fit(X, y, ForestConfig(n_trees=30, max_depth=8, min_samples_leaf=1, seed=3))
        assert np.mean(np.array([predict(forest, x) for x in X]) == y) == 1.0

    def test_fixed_seed_reproduces_forest(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 5))
        y = rng.integers(0, 3, size=40)
        cfg = ForestConfig(n_trees=7, seed=11)
        a, b = fit(X, y, cfg), fit(X, y, cfg)
        assert json.dumps(forest_to_doc(a)) == json.dumps(forest_to_doc(b))

    def test_memorizes_consistent_data(self):
        # XOR: zero Gini gain at the root, still must split and reach purity
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        cfg = ForestConfig(
            n_trees=1, max_depth=None, min_samples_leaf=1, max_features=None, bootstrap=False
        )
        forest = fit(X, y, cfg)
        assert [predict(forest, x) for x in X] == [0, 1, 1, 0]

    def test_memorizes_random_consistent_data(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 4))
        y = rng.integers(0, 4, size=60)
        cfg = ForestConfig(
            n_trees=3, max_depth=None, min_samples_leaf=1, max_features=None, bootstrap=False
        )
        forest = fit(X, y, cfg)
        assert np.mean(np.array([predict(forest, x) for x in X]) == y) == 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            fit(np.zeros((1, 2)), np.zeros(1, dtype=int))
        with pytest.raises(ValueError):
            fit(np.zeros((4, 2)), np.array([0, 1, 0, -1]))
        with pytest.raises(ValueError):
            fit(np.zeros((4, 2)), np.array([0, 1, 0, 1]), ForestConfig(n_trees=0))

    def test_leaf_histograms_count_routed_rows(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        forest = fit(X, y, ForestConfig(n_trees=1, bootstrap=False, max_features=None, seed=7))
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
        forest = fit(X, y, ForestConfig(n_trees=6, max_depth=6, seed=5))
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
        forest = RandomForest([tree], ForestConfig(n_trees=1), 1, 2)
        assert np.allclose(predict_proba(forest, [0.2]), [0.75, 0.25])
        assert np.allclose(predict_proba(forest, [0.9]), [0.0, 1.0])

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(50, 4))
        y = rng.integers(0, 3, size=50)
        forest = fit(X, y, ForestConfig(n_trees=9, seed=9))
        for row in X[:10]:
            assert abs(predict_proba(forest, row).sum() - 1.0) < 1e-12

    def test_two_to_one_vote(self):
        trees = [pure_leaf_tree(0), pure_leaf_tree(0), pure_leaf_tree(1)]
        forest = RandomForest(trees, ForestConfig(n_trees=3), 2, 2)
        proba = predict_proba(forest, [0.0, 0.0])
        assert np.allclose(proba, [2.0 / 3.0, 1.0 / 3.0])
        assert predict(forest, [0.0, 0.0]) == 0

    def test_tie_breaks_to_lowest_class(self):
        trees = [pure_leaf_tree(1), pure_leaf_tree(0)]
        forest = RandomForest(trees, ForestConfig(n_trees=2), 2, 2)
        assert predict(forest, [0.0, 0.0]) == 0

    def test_duplicating_every_tree_preserves_argmax(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, size=40)
        forest = fit(X, y, ForestConfig(n_trees=5, seed=12))
        doubled = RandomForest(forest.trees * 2, forest.config, forest.n_features, 3)
        queries = rng.normal(size=(20, 3))
        assert [predict(forest, x) for x in queries] == [predict(doubled, x) for x in queries]

    def test_dimension_mismatch(self):
        forest = RandomForest([pure_leaf_tree(0)], ForestConfig(n_trees=1), 2, 2)
        with pytest.raises(ValueError):
            predict_proba(forest, [1.0, 2.0, 3.0])


class TestCheckpoint:
    def test_round_trip_preserves_predictions(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 6))
        y = rng.integers(0, 4, size=60)
        forest = fit(X, y, ForestConfig(n_trees=11, seed=14))
        loaded = forest_from_doc(json.loads(json.dumps(forest_to_doc(forest))))
        queries = rng.normal(size=(25, 6))
        assert [predict(forest, x) for x in queries] == [predict(loaded, x) for x in queries]
        for row in queries[:5]:
            assert np.allclose(predict_proba(forest, row), predict_proba(loaded, row), atol=1e-15)

    def test_header_fields(self):
        forest = fit(np.zeros((4, 2)) + np.arange(4)[:, None], np.array([0, 0, 1, 1]))
        doc = json.loads(json.dumps(forest_to_doc(forest)))
        assert doc["header"]["n_features"] == 2
        assert doc["header"]["n_classes"] == 2
        assert doc["header"]["max_features"] == "sqrt"
