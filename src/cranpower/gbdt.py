"""Gradient boosting over regression trees, written from scratch.

The ensemble starts from the training-target mean and repeatedly fits a
depth-limited CART regression tree to the current residuals (the negative
gradient of the L2 loss), adding each tree with a small step length. An
optional componentwise mode fits one single-split stump per feature each
round and keeps only the stump that best matches the residuals.

Determinism contract: models are pure functions of (dataset, params). Rows
are canonicalized by a lexicographic sort before training so that permuting
dataset rows cannot change a single bit of the result, and candidate splits
are scanned in fixed (feature index, threshold) order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

MODEL_FORMAT = "cranpower-gbdt"
MODEL_VERSION = 1

SINGLE_TREE = "single-tree"
COMPONENTWISE_STUMPS = "componentwise-stumps"


@dataclass(frozen=True)
class GbdtParams:
    num_rounds: int = 300
    max_depth: int = 6
    min_samples_leaf: int = 5
    step_length: float = 0.1
    lambda_leaf: float = 0.0
    learner_mode: str = SINGLE_TREE
    subsample: float = 1.0
    early_stop_tol: float = 0.0

    def __post_init__(self):
        if self.num_rounds < 1:
            raise ValueError("num_rounds must be >= 1")
        if not 0.0 < self.step_length <= 1.0:
            raise ValueError("step_length must be in (0, 1]")
        if self.lambda_leaf < 0:
            raise ValueError("lambda_leaf must be >= 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.learner_mode not in (SINGLE_TREE, COMPONENTWISE_STUMPS):
            raise ValueError(f"unknown learner_mode '{self.learner_mode}'")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")


@dataclass
class RegressionDataset:
    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.targets = np.asarray(self.targets, dtype=float)
        if self.features.ndim != 2:
            raise ValueError("features must be a 2-D matrix")
        if self.features.shape[0] != self.targets.shape[0]:
            raise ValueError("row counts of features and targets differ")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite entries")
        if not np.all(np.isfinite(self.targets)):
            raise ValueError("targets contain non-finite entries")

    def __len__(self):
        return self.features.shape[0]


@dataclass
class RegressionTree:
    """Binary tree in flat arrays; split_feature == -1 marks a leaf.

    Routing rule: x[feature] <= threshold goes left.
    """

    split_feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    max_depth: int

    def predict(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=float))
        node = np.zeros(features.shape[0], dtype=np.int64)
        for _ in range(self.max_depth + 1):
            feat = self.split_feature[node]
            internal = feat >= 0
            if not internal.any():
                break
            go_left = features[np.arange(features.shape[0]), np.maximum(feat, 0)] \
                <= self.threshold[node]
            node = np.where(internal, np.where(go_left, self.left[node],
                                               self.right[node]), node)
        return self.value[node]

    def num_nodes(self) -> int:
        return len(self.split_feature)


def negative_gradient(targets: np.ndarray, predictions: np.ndarray) -> np.ndarray:
    """Residuals y - f, the negative gradient of the L2 loss 0.5*(y-f)^2."""
    targets = np.asarray(targets, dtype=float)
    predictions = np.asarray(predictions, dtype=float)
    if targets.shape != predictions.shape:
        raise ValueError("targets and predictions must have equal length")
    return targets - predictions


def _best_split(col: np.ndarray, residuals: np.ndarray, min_leaf: int):
    """Best threshold on one feature column, or None.

    Score is the summed squared error of the two child means; computed via
    prefix sums over the value-sorted column. Thresholds are midpoints
    between consecutive distinct values; the smallest-threshold candidate
    wins ties because the scan runs in ascending order.
    """
    order = np.argsort(col, kind="stable")
    sorted_col = col[order]
    sorted_res = residuals[order]
    n = len(col)
    prefix = np.cumsum(sorted_res)
    prefix_sq = np.cumsum(sorted_res * sorted_res)
    total = prefix[-1]
    total_sq = prefix_sq[-1]

    # Candidate boundaries: positions where the value changes.
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
    best = int(np.argmin(sse))   # first minimum: smallest threshold on ties
    b = int(boundaries[best])
    threshold = 0.5 * (sorted_col[b - 1] + sorted_col[b])
    return float(sse[best]), threshold


def fit_tree(features: np.ndarray, residuals: np.ndarray, params: GbdtParams,
             feature_indices=None) -> RegressionTree:
    """Greedy top-down CART regression tree fit to the residuals.

    Leaf value is sum(residuals) / (count + lambda_leaf). Splitting stops at
    max_depth, min_samples_leaf, or a zero-variance node. `feature_indices`
    restricts the split search (used by the componentwise mode).
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    residuals = np.asarray(residuals, dtype=float)
    if features.shape[0] == 0:
        raise ValueError("cannot fit a tree to an empty dataset")
    if features.shape[0] != residuals.shape[0]:
        raise ValueError("row counts of features and residuals differ")
    if feature_indices is None:
        feature_indices = range(features.shape[1])

    split_feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        split_feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(split_feature) - 1

    root = new_node()
    stack = [(root, np.arange(features.shape[0]), 0)]
    lam = params.lambda_leaf
    while stack:
        node, rows, depth = stack.pop()
        res = residuals[rows]
        value[node] = float(np.sum(res) / (len(rows) + lam))
        if depth >= params.max_depth or len(rows) < 2 * params.min_samples_leaf:
            continue
        if np.ptp(res) == 0.0:
            continue
        best = None
        for j in feature_indices:
            found = _best_split(features[rows, j], res, params.min_samples_leaf)
            if found is None:
                continue
            sse, thr = found
            # Strict comparison keeps the lowest feature index on ties.
            if best is None or sse < best[0]:
                best = (sse, j, thr)
        if best is None:
            continue
        _, j, thr = best
        go_left = features[rows, j] <= thr
        left_id = new_node()
        right_id = new_node()
        split_feature[node] = j
        threshold[node] = thr
        left[node] = left_id
        right[node] = right_id
        stack.append((right_id, rows[~go_left], depth + 1))
        stack.append((left_id, rows[go_left], depth + 1))

    return RegressionTree(
        split_feature=np.array(split_feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=float),
        left=np.array(left, dtype=np.int64),
        right=np.array(right, dtype=np.int64),
        value=np.array(value, dtype=float),
        max_depth=params.max_depth,
    )


@dataclass
class GbdtModel:
    initial_prediction: float
    trees: list
    step_length: float
    lambda_leaf: float
    params: GbdtParams
    num_features: int = 0
    train_mse: list = field(default_factory=list, compare=False)
    # Packed forest arrays, built lazily for fast single-row prediction.
    _packed: tuple = field(default=None, repr=False, compare=False)

    def _pack(self):
        # Leaves become self-loops on feature 0 with threshold +inf, so the
        # level-by-level walk below needs no leaf masking.
        if self._packed is None:
            if self.trees:
                offsets = np.cumsum([0] + [t.num_nodes() for t in self.trees[:-1]])
                feat = np.concatenate([t.split_feature for t in self.trees])
                thr = np.concatenate([t.threshold for t in self.trees])
                lft = np.concatenate([t.left + o for t, o in zip(self.trees, offsets)])
                rgt = np.concatenate([t.right + o for t, o in zip(self.trees, offsets)])
                val = np.concatenate([t.value for t in self.trees])
                depth = max(t.max_depth for t in self.trees)
                leaves = feat < 0
                self_idx = np.arange(len(feat), dtype=np.int64)
                feat = np.where(leaves, 0, feat)
                thr = np.where(leaves, np.inf, thr)
                lft = np.where(leaves, self_idx, lft).astype(np.int64)
                rgt = np.where(leaves, self_idx, rgt).astype(np.int64)
            else:
                offsets = np.zeros(0, dtype=np.int64)
                feat = thr = val = np.zeros(0)
                lft = rgt = np.zeros(0, dtype=np.int64)
                depth = 0
            self._packed = (np.asarray(offsets, dtype=np.int64),
                            feat.astype(np.int64) if len(self.trees) else feat,
                            thr, lft, rgt, val, depth)
        return self._packed


def predict(model: GbdtModel, feature_vector) -> float:
    """Prediction for one row: f0 + sum_k sl * tree_k(x), accumulated in
    fit order so it replays the training-time partial sums bit for bit."""
    x = np.asarray(feature_vector, dtype=float)
    if x.ndim != 1:
        raise ValueError("predict takes a single 1-D feature vector")
    if model.num_features and x.shape[0] != model.num_features:
        raise ValueError(
            f"feature vector has {x.shape[0]} entries, model was trained on "
            f"{model.num_features}")
    roots, feat, thr, lft, rgt, val, depth = model._pack()
    if len(roots) == 0:
        return float(model.initial_prediction)
    ptr = roots
    for _ in range(depth):
        go_left = x.take(feat.take(ptr)) <= thr.take(ptr)
        ptr = np.where(go_left, lft.take(ptr), rgt.take(ptr))
    # f0, sl * v_1, sl * v_2, ... summed left to right: add.accumulate never
    # reorders, so this is the training-time partial sum.
    terms = np.empty(len(ptr) + 1)
    terms[0] = model.initial_prediction
    np.multiply(val.take(ptr), model.step_length, out=terms[1:])
    return float(np.add.accumulate(terms)[-1])


def predict_batch(model: GbdtModel, features: np.ndarray) -> np.ndarray:
    """Row-wise predictions; same accumulation order as training."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    out = np.full(features.shape[0], model.initial_prediction, dtype=float)
    for tree in model.trees:
        out += model.step_length * tree.predict(features)
    return out


def _canonical_order(features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    # Lexicographic row order (first feature is the most significant key)
    # makes training independent of the input row permutation.
    keys = [targets] + [features[:, j] for j in range(features.shape[1] - 1, -1, -1)]
    return np.lexsort(keys)


def train(dataset: RegressionDataset, params: GbdtParams,
          rng: np.random.Generator | None = None) -> GbdtModel:
    """Fit the boosted ensemble.

    Each round fits the base learner(s) to the current residuals, picks the
    best-fitting learner by squared error (a no-op with a single learner
    family), and advances the additive prediction by step_length times the
    learner output. `rng` is only consulted when subsample < 1.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    order = _canonical_order(dataset.features, dataset.targets)
    features = dataset.features[order]
    targets = dataset.targets[order]
    if params.subsample < 1.0 and rng is None:
        raise ValueError("subsampling requires an rng")

    f0 = float(np.mean(targets))
    predictions = np.full(len(targets), f0)
    trees = []
    mse_history = [float(np.mean((targets - predictions) ** 2))]
    n = len(targets)
    n_sub = max(1, int(round(params.subsample * n)))

    for _ in range(params.num_rounds):
        residuals = negative_gradient(targets, predictions)
        if params.subsample < 1.0:
            rows = np.sort(rng.choice(n, size=n_sub, replace=False))
        else:
            rows = slice(None)
        if params.learner_mode == SINGLE_TREE:
            tree = fit_tree(features[rows], residuals[rows], params)
        else:
            tree = _best_stump(features[rows], residuals[rows], params)
        trees.append(tree)
        predictions = predictions + params.step_length * tree.predict(features)
        mse = float(np.mean((targets - predictions) ** 2))
        if params.lambda_leaf == 0.0 and params.subsample == 1.0:
            # Guaranteed for mean-valued leaves with step length in (0, 1].
            assert mse <= mse_history[-1] * (1.0 + 1e-12) + 1e-300, \
                "boosting MSE increased"
        mse_history.append(mse)
        if params.early_stop_tol > 0.0 and len(mse_history) >= 2:
            if mse_history[-2] - mse <= params.early_stop_tol * max(mse_history[0], 1e-300):
                break

    return GbdtModel(
        initial_prediction=f0,
        trees=trees,
        step_length=params.step_length,
        lambda_leaf=params.lambda_leaf,
        params=params,
        num_features=features.shape[1],
        train_mse=mse_history,
    )


def _best_stump(features, residuals, params: GbdtParams) -> RegressionTree:
    """One depth-1 learner per feature; keep the one that best fits the
    residuals in squared error (componentwise selection)."""
    stump_params = GbdtParams(
        num_rounds=1, max_depth=1, min_samples_leaf=params.min_samples_leaf,
        step_length=params.step_length, lambda_leaf=params.lambda_leaf)
    best = None
    for j in range(features.shape[1]):
        stump = fit_tree(features, residuals, stump_params, feature_indices=[j])
        err = float(np.sum((residuals - stump.predict(features)) ** 2))
        if best is None or err < best[0]:
            best = (err, stump)
    return best[1]


def evaluate(model: GbdtModel, dataset: RegressionDataset) -> dict:
    """Mean squared error and coefficient of determination on a dataset."""
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    preds = predict_batch(model, dataset.features)
    err = dataset.targets - preds
    mse = float(np.mean(err ** 2))
    sst = float(np.sum((dataset.targets - np.mean(dataset.targets)) ** 2))
    sse = float(np.sum(err ** 2))
    if sst == 0.0:
        r2 = 1.0 if sse == 0.0 else 0.0
    else:
        r2 = 1.0 - sse / sst
    return {"mse": mse, "r2": r2}


def model_to_dict(model: GbdtModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "initial_prediction": model.initial_prediction,
        "step_length": model.step_length,
        "lambda_leaf": model.lambda_leaf,
        "num_features": model.num_features,
        "params": asdict(model.params),
        "trees": [
            {
                "split_feature": t.split_feature.tolist(),
                "threshold": t.threshold.tolist(),
                "left": t.left.tolist(),
                "right": t.right.tolist(),
                "value": t.value.tolist(),
                "max_depth": t.max_depth,
            }
            for t in model.trees
        ],
    }


def model_from_dict(raw: dict) -> GbdtModel:
    if raw.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file")
    if raw.get("version") != MODEL_VERSION:
        raise ValueError(
            f"model version {raw.get('version')} unsupported (expected {MODEL_VERSION})")
    trees = [
        RegressionTree(
            split_feature=np.array(t["split_feature"], dtype=np.int64),
            threshold=np.array(t["threshold"], dtype=float),
            left=np.array(t["left"], dtype=np.int64),
            right=np.array(t["right"], dtype=np.int64),
            value=np.array(t["value"], dtype=float),
            max_depth=int(t["max_depth"]),
        )
        for t in raw["trees"]
    ]
    return GbdtModel(
        initial_prediction=float(raw["initial_prediction"]),
        trees=trees,
        step_length=float(raw["step_length"]),
        lambda_leaf=float(raw["lambda_leaf"]),
        params=GbdtParams(**raw["params"]),
        num_features=int(raw["num_features"]),
    )


def save_model(model: GbdtModel, path):
    with open(path, "w") as f:
        json.dump(model_to_dict(model), f, separators=(",", ":"))
        f.write("\n")


def load_model(path) -> GbdtModel:
    with open(path) as f:
        return model_from_dict(json.load(f))
