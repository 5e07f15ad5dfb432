from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranpower import gbdt
from cranpower.gbdt import (
    GbdtParams,
    RegressionDataset,
    RegressionTree,
    evaluate,
    fit_tree,
    load_model,
    model_from_dict,
    model_to_dict,
    predict,
    predict_batch,
    save_model,
    train,
)


def _leaf_value(tree, row):
    node = 0
    while tree.split_feature[node] >= 0:
        go_left = row[tree.split_feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return float(tree.value[node])


def _sequential_sum(model, row):
    """f0 + sl * v_1 + sl * v_2 + ... one tree at a time, as training adds."""
    total = model.initial_prediction
    for tree in model.trees:
        total += model.params.step_length * _leaf_value(tree, row)
    return total


class TestFitTree:
    def test_constant_residuals_single_leaf(self):
        x = np.arange(10.0).reshape(-1, 1)
        r = np.full(10, 3.5)
        tree = fit_tree(x, r, GbdtParams(num_rounds=1, min_samples_leaf=1))
        assert tree.num_nodes() == 1
        assert tree.value[0] == 3.5

    def test_step_function_split(self):
        # Residuals jump at x = 0; the tree should recover both plateaus.
        x = np.concatenate([np.linspace(-1, -0.1, 10), np.linspace(0.1, 1, 10)])
        r = np.where(x < 0, -2.0, 4.0)
        tree = fit_tree(x.reshape(-1, 1), r,
                        GbdtParams(num_rounds=1, max_depth=1, min_samples_leaf=1))
        assert tree.split_feature[0] == 0
        assert -0.1 < tree.threshold[0] < 0.1
        left_val = tree.value[tree.left[0]]
        right_val = tree.value[tree.right[0]]
        assert left_val == pytest.approx(-2.0)
        assert right_val == pytest.approx(4.0)

    def test_regularized_leaf_value(self):
        x = np.zeros((5, 1))
        r = np.full(5, 2.0)  # sum 10, count 5, lambda 5 -> value 1.0
        tree = fit_tree(x, r, GbdtParams(num_rounds=1, lambda_leaf=5.0,
                                         min_samples_leaf=1))
        assert tree.num_nodes() == 1
        assert tree.value[0] == pytest.approx(1.0)

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_tree(np.zeros((0, 2)), np.zeros(0), GbdtParams(num_rounds=1))

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 3))
        r = rng.normal(size=40)
        tree = fit_tree(x, r, GbdtParams(num_rounds=1, max_depth=6,
                                         min_samples_leaf=5))
        counts = _leaf_counts(tree, x)
        assert all(c >= 5 for c in counts.values())

    def test_matches_exhaustive_enumeration(self):
        # Greedy split search against brute force over every midpoint, for
        # the root and both of its children.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(200, 5))
            r = rng.normal(size=200)
            params = GbdtParams(num_rounds=1, max_depth=2, min_samples_leaf=5)
            tree = fit_tree(x, r, params)
            feat, thr = _brute_force_split(x, r, 5)
            assert tree.split_feature[0] == feat
            assert tree.threshold[0] == pytest.approx(thr, rel=1e-12)
            go_left = x[:, feat] <= thr
            for child, rows in ((tree.left[0], go_left), (tree.right[0], ~go_left)):
                if tree.split_feature[child] < 0:
                    continue
                cf, ct = _brute_force_split(x[rows], r[rows], 5)
                assert tree.split_feature[child] == cf
                assert tree.threshold[child] == pytest.approx(ct, rel=1e-12)


def _brute_force_split(x, r, min_leaf):
    best = None
    for j in range(x.shape[1]):
        vals = np.unique(x[:, j])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = 0.5 * (a + b)
            mask = x[:, j] <= thr
            nl, nr = mask.sum(), (~mask).sum()
            if nl < min_leaf or nr < min_leaf:
                continue
            sse = np.sum((r[mask] - r[mask].mean()) ** 2) \
                + np.sum((r[~mask] - r[~mask].mean()) ** 2)
            if best is None or sse < best[0] - 1e-12:
                best = (sse, j, thr)
    return best[1], best[2]


def _leaf_counts(tree, x):
    counts = {}
    for row in x:
        node = 0
        while tree.split_feature[node] >= 0:
            if row[tree.split_feature[node]] <= tree.threshold[node]:
                node = tree.left[node]
            else:
                node = tree.right[node]
        counts[node] = counts.get(node, 0) + 1
    return counts


def _reference_best_split(col, residuals, min_leaf):
    """The split search before the presorted one: best (sse, threshold) on
    one feature column, re-sorting the column, or None."""
    order = np.argsort(col, kind="stable")
    sorted_col = col[order]
    sorted_res = residuals[order]
    n = len(col)
    prefix = np.cumsum(sorted_res)
    prefix_sq = np.cumsum(sorted_res * sorted_res)
    total = prefix[-1]
    total_sq = prefix_sq[-1]
    boundaries = np.flatnonzero(sorted_col[:-1] < sorted_col[1:]) + 1
    if len(boundaries) == 0:
        return None
    boundaries = boundaries[(boundaries >= min_leaf) & (boundaries <= n - min_leaf)]
    if len(boundaries) == 0:
        return None
    left_n = boundaries.astype(float)
    left_sum = prefix[boundaries - 1]
    left_sq = prefix_sq[boundaries - 1]
    right_n = n - left_n
    right_sum = total - left_sum
    right_sq = total_sq - left_sq
    sse = (left_sq - left_sum * left_sum / left_n) \
        + (right_sq - right_sum * right_sum / right_n)
    best = int(np.argmin(sse))
    b = int(boundaries[best])
    return float(sse[best]), 0.5 * (sorted_col[b - 1] + sorted_col[b])


def _reference_fit_tree(features, residuals, params, presorted=None):
    """The tree fit before the presorted search: one `_reference_best_split`
    per (node, feature), lowest feature index on ties. Same DFS node order.
    `presorted` is ignored; it lets `train` call this in place of `fit_tree`."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    residuals = np.asarray(residuals, dtype=float)
    split_feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        for arr, init in ((split_feature, -1), (threshold, 0.0), (left, -1),
                          (right, -1), (value, 0.0)):
            arr.append(init)
        return len(split_feature) - 1

    stack = [(new_node(), np.arange(features.shape[0]), 0)]
    while stack:
        node, rows, depth = stack.pop()
        res = residuals[rows]
        value[node] = float(np.sum(res) / (len(rows) + params.lambda_leaf))
        if depth >= params.max_depth or len(rows) < 2 * params.min_samples_leaf:
            continue
        if np.ptp(res) == 0.0:
            continue
        best = None
        for j in range(features.shape[1]):
            found = _reference_best_split(features[rows, j], res,
                                          params.min_samples_leaf)
            if found is not None and (best is None or found[0] < best[0]):
                best = (found[0], j, found[1])
        if best is None:
            continue
        _, j, thr = best
        go_left = features[rows, j] <= thr
        left_id, right_id = new_node(), new_node()
        split_feature[node], threshold[node] = j, thr
        left[node], right[node] = left_id, right_id
        stack.append((right_id, rows[~go_left], depth + 1))
        stack.append((left_id, rows[go_left], depth + 1))
    return RegressionTree(
        split_feature=np.array(split_feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=float),
        max_depth=params.max_depth)


def _assert_same_tree(got, want):
    for name in ("split_feature", "threshold", "left", "right", "value"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    assert got.max_depth == want.max_depth


@st.composite
def split_problems(draw):
    """Small datasets with tied, binary, rounded and constant columns, tied
    residuals, and tree params down to nodes too small to split."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["normal", "binary", "rounded", "constant"]))
        if kind == "normal":
            columns.append(rng.normal(size=n))
        elif kind == "binary":
            columns.append(rng.integers(0, 2, size=n).astype(float))
        elif kind == "rounded":
            columns.append(np.round(rng.normal(size=n), 1))
        else:
            columns.append(np.full(n, rng.normal()))
    targets = rng.normal(size=n)
    if draw(st.booleans()):
        targets = np.round(targets)
    params = GbdtParams(num_rounds=draw(st.integers(1, 4)),
                        max_depth=draw(st.integers(1, 6)),
                        min_samples_leaf=draw(st.integers(1, 7)),
                        step_length=draw(st.sampled_from([0.1, 1.0])),
                        lambda_leaf=draw(st.sampled_from([0.0, 0.5, 3.0])))
    return np.column_stack(columns), targets, params


class TestPresortedSearch:
    """The presorted, all-features-at-once split search gives the trees of
    the per-feature search bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(problem=split_problems(), split_block=st.sampled_from([1, 7, gbdt.SPLIT_BLOCK]))
    def test_fit_tree_matches_per_feature_search(self, problem, split_block):
        features, residuals, params = problem
        want = _reference_fit_tree(features, residuals, params)
        with mock.patch.object(gbdt, "SPLIT_BLOCK", split_block):
            _assert_same_tree(fit_tree(features, residuals, params), want)
            _assert_same_tree(fit_tree(features, residuals, params,
                                       gbdt._presort(features)), want)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(problem=split_problems())
    def test_train_matches_per_feature_search(self, problem):
        features, targets, params = problem
        data = RegressionDataset(features, targets)
        got = train(data, params)
        with mock.patch.object(gbdt, "fit_tree", _reference_fit_tree):
            want = train(data, params)
        assert model_to_dict(got) == model_to_dict(want)
        assert got.train_mse == want.train_mse


class TestTrain:
    def test_constant_targets(self):
        ds = RegressionDataset(np.random.default_rng(0).normal(size=(30, 2)),
                               np.full(30, 7.0))
        model = train(ds, GbdtParams(num_rounds=5, min_samples_leaf=1))
        assert model.initial_prediction == 7.0
        preds = predict_batch(model, ds.features)
        assert np.allclose(preds, 7.0)

    def test_indicator_target_converges(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(300, 1))
        y = (x[:, 0] > 0.5).astype(float)
        ds = RegressionDataset(x, y)
        model = train(ds, GbdtParams(num_rounds=200, max_depth=1,
                                     step_length=0.1, min_samples_leaf=1))
        assert model.train_mse[-1] < 1e-4

    def test_mse_monotone_nonincreasing(self):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(150, 4))
            y = x @ rng.normal(size=4) + 0.1 * rng.normal(size=150)
            model = train(RegressionDataset(x, y),
                          GbdtParams(num_rounds=40, step_length=0.1))
            diffs = np.diff(model.train_mse)
            assert np.all(diffs <= 1e-12 * model.train_mse[0])

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(120, 3))
        x[:, 0] = rng.integers(0, 2, size=120)  # binary column with heavy ties
        y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(size=120)
        params = GbdtParams(num_rounds=25, max_depth=3, min_samples_leaf=2)
        base = train(RegressionDataset(x, y), params)
        perm = rng.permutation(120)
        shuffled = train(RegressionDataset(x[perm], y[perm]), params)
        assert model_to_dict(base) == model_to_dict(shuffled)


class TestPredict:
    def test_hand_arithmetic(self):
        from cranpower.gbdt import GbdtModel, RegressionTree
        tree = RegressionTree(
            split_feature=np.array([0, -1, -1]),
            threshold=np.array([0.0, 0.0, 0.0]),
            left=np.array([1, -1, -1]),
            right=np.array([2, -1, -1]),
            value=np.array([0.0, 0.0, 2.0]),
            max_depth=1,
        )
        model = GbdtModel(initial_prediction=10.0, trees=[tree],
                          params=GbdtParams(num_rounds=1, step_length=0.1))
        assert predict(model, np.array([1.0])) == pytest.approx(10.2)

    def test_empty_tree_list(self):
        from cranpower.gbdt import GbdtModel
        model = GbdtModel(initial_prediction=4.2, trees=[],
                          params=GbdtParams(num_rounds=1))
        assert predict(model, np.array([0.0, 0.0])) == 4.2

    def test_replays_training_partial_sums_bitwise(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(80, 3))
        y = np.sin(x[:, 0]) + x[:, 1] ** 2
        ds = RegressionDataset(x, y)
        model = train(ds, GbdtParams(num_rounds=30, max_depth=3,
                                     min_samples_leaf=2))
        # Recompute the training prediction sequentially and compare exactly.
        for row in x[:10]:
            assert predict(model, row) == _sequential_sum(model, row)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 2))
        y = x[:, 0] * 2 - x[:, 1]
        model = train(RegressionDataset(x, y), GbdtParams(num_rounds=20))
        batch = predict_batch(model, x)
        singles = np.array([predict(model, row) for row in x])
        assert np.array_equal(batch, singles)

    def test_batch_on_training_rows_is_sequential_sum(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(300, 4))
        y = np.where(x[:, 1] > 0, x[:, 0] ** 2, -x[:, 2]) + 0.1 * rng.normal(size=300)
        model = train(RegressionDataset(x, y), GbdtParams(num_rounds=40, max_depth=5,
                                                          min_samples_leaf=2))
        expected = np.array([_sequential_sum(model, row) for row in x])
        assert np.array_equal(predict_batch(model, x), expected)

    def test_follows_changes_to_the_tree_list(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(120, 3))
        y = x[:, 0] - 2 * x[:, 1] ** 2
        model = train(RegressionDataset(x, y), GbdtParams(num_rounds=20))
        before = predict(model, x[0])
        model.trees.pop()
        fresh = model_from_dict(model_to_dict(model))
        assert predict(model, x[0]) == predict(fresh, x[0]) != before
        assert np.array_equal(predict_batch(model, x), predict_batch(fresh, x))

    def test_width_mismatch(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 3))
        model = train(RegressionDataset(x, x[:, 0]), GbdtParams(num_rounds=5))
        with pytest.raises(ValueError):
            predict(model, np.array([1.0]))


class TestEvaluate:
    def test_perfect_model(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(60, 1))
        y = (x[:, 0] > 0).astype(float)
        model = train(RegressionDataset(x, y),
                      GbdtParams(num_rounds=400, max_depth=1, min_samples_leaf=1))
        scores = evaluate(model, RegressionDataset(x, y))
        assert scores["mse"] < 1e-10
        assert scores["r2"] > 1 - 1e-8

    def test_constant_mean_model_r2_zero(self):
        from cranpower.gbdt import GbdtModel
        rng = np.random.default_rng(8)
        y = rng.normal(size=40)
        x = rng.normal(size=(40, 1))
        model = GbdtModel(initial_prediction=float(np.mean(y)), trees=[],
                          params=GbdtParams(num_rounds=1))
        scores = evaluate(model, RegressionDataset(x, y))
        assert scores["r2"] == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_mse(self):
        from cranpower.gbdt import GbdtModel
        model = GbdtModel(initial_prediction=0.0, trees=[],
                          params=GbdtParams(num_rounds=1))
        # Force predictions [1, 2, 4] by a crafted dataset is awkward with an
        # empty model; check the arithmetic directly instead.
        targets = np.array([1.0, 2.0, 3.0])
        preds = np.array([1.0, 2.0, 4.0])
        mse = float(np.mean((targets - preds) ** 2))
        assert mse == pytest.approx(1.0 / 3.0)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(100, 4))
        y = x @ rng.normal(size=4)
        model = train(RegressionDataset(x, y), GbdtParams(num_rounds=15))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert model_to_dict(loaded) == model_to_dict(model)
        for row in x[:5]:
            assert predict(loaded, row) == predict(model, row)

    def test_version_mismatch_rejected(self):
        raw = {"format": "cranpower-gbdt", "version": 99, "trees": []}
        with pytest.raises(ValueError):
            model_from_dict(raw)

    def test_wrong_format_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"format": "something-else", "version": 1})
