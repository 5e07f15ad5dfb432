"""Gradient boosting over regression trees, written from scratch.

The ensemble starts from the training-target mean and repeatedly fits a
depth-limited CART regression tree to the current residuals y - f (the
negative gradient of the L2 loss), adding each tree with a small step length.

Split search: `train` sorts each feature column once (a stable sort, so
tied values keep row-index order), since features never change between
rounds. Each node carries that sort order restricted to its own rows, as a
(features, rows) index matrix; a split partitions it by the routing mask,
which keeps the order, so no node sorts again. A node gathers every
feature's sorted values and residuals at once, takes prefix sums along the
value order, and scores only the value changes that leave min_samples_leaf
rows a side. The same sums in the same sequence as a per-feature search
make the same trees bit for bit, with the same tie rules: the lowest
feature index, then the smallest threshold.

Prediction packs the forest into flat arrays whose leaves loop back to
themselves, so one level-by-level walk serves a single row, a batch and the
per-round update of training. It sums f0 + sl * v_1 + sl * v_2 + ... left to
right, the order of training, so a prediction on a training row replays the
training-time partial sums bit for bit.

Determinism contract: models are pure functions of (dataset, params). Rows
are canonicalized by a lexicographic sort before training so that permuting
dataset rows cannot change a single bit of the result, and candidate splits
are scanned in fixed (feature index, threshold) order.

Model files (format version 2) hold f0, the params, the input width and each
tree's flat arrays, with split_feature == -1 marking a leaf.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

MODEL_FORMAT = "cranpower-gbdt"
MODEL_VERSION = 2

# Row x tree cells one walk step keeps alive: a batch is walked in blocks of
# rows, so its transient memory does not grow with rows times trees. Of
# 2^12 to 2^16 cells, 2^14 (128 KB an array) walked 4000 rows through a
# 300-tree model fastest.
WALK_BLOCK = 1 << 14
# Feature x row cells one split search step works on: a node with more is
# searched a block of features at a time, so its work arrays stay small. Of
# 2^12 to 2^15 cells and no blocks, 2^13 fitted the 1600- and 2000-row,
# 12-feature benchmark sets fastest (108 trees/s against 98 unblocked).
SPLIT_BLOCK = 1 << 13


@dataclass(frozen=True)
class GbdtParams:
    num_rounds: int = 300
    max_depth: int = 6
    min_samples_leaf: int = 5
    step_length: float = 0.1
    lambda_leaf: float = 0.0

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


@dataclass(eq=False)
class RegressionTree:
    """Binary tree in flat arrays; split_feature == -1 marks a leaf.

    Routing rule: x[feature] <= threshold goes left. Trees compare by
    identity.
    """

    split_feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    max_depth: int

    def num_nodes(self) -> int:
        return len(self.split_feature)


def _presort(features: np.ndarray) -> np.ndarray:
    """(features, rows) matrix whose row j lists the row indices by the value
    of feature j, ties in row-index order (a stable sort)."""
    return np.argsort(features.T, axis=1, kind="stable")


def _node_split(features: np.ndarray, order: np.ndarray, sums: np.ndarray,
                min_leaf: int):
    """(feature, threshold) of a node's best split, or None.

    `order` is the node's (features, rows) presort slice and `sums` holds
    each row's residual r + 1j * r^2, so that one cumulative sum along each
    feature's value order gives the prefix sums of r and of r^2 (complex
    addition adds the parts separately, in the same sequence). The score is
    the summed squared error of the two child means, evaluated only at value
    changes that leave at least min_leaf rows a side. Thresholds are
    midpoints between consecutive distinct values, and the first minimum in
    (feature, threshold) order wins ties. Features are scanned in blocks of
    at most SPLIT_BLOCK cells, which bounds the work arrays of a large node.
    """
    width, n = order.shape
    # Boundary b splits value-sorted positions [:b] from [b:].
    lo, hi = min_leaf, n - min_leaf
    best = None
    step = max(1, SPLIT_BLOCK // n)
    for first in range(0, width, step):
        block = order[first:first + step]
        # Row r's feature j sits at r * width + j of the row-major features.
        at = block * width
        at += np.arange(first, first + len(block))[:, None]
        values = features.ravel().take(at)
        del at
        feat, bound = (values[:, lo - 1:hi] < values[:, lo:hi + 1]).nonzero()
        del values
        if len(feat) == 0:
            continue
        bound += lo

        prefix = sums.take(block)
        prefix.cumsum(axis=1, out=prefix)
        right = prefix[:, -1].take(feat)
        at = feat * n
        at += bound
        at -= 1
        left = prefix.ravel().take(at)
        del prefix, at
        right -= left

        # (left_sq - left_sum^2 / left_n) + (right_sq - right_sum^2 / right_n)
        left_n = bound.astype(float)
        sse = left.real * left.real
        sse /= left_n
        np.subtract(left.imag, sse, out=sse)
        right_sse = right.real * right.real
        right_sse /= np.subtract(n, left_n, out=left_n)
        np.subtract(right.imag, right_sse, out=right_sse)
        sse += right_sse
        i = int(sse.argmin())
        # Strict comparison keeps the earlier block on ties.
        if best is None or sse[i] < best[0]:
            best = (sse[i], first + int(feat[i]), int(bound[i]))
    if best is None:
        return None
    _, j, b = best
    return j, 0.5 * (features[order[j, b - 1], j] + features[order[j, b], j])


def fit_tree(features: np.ndarray, residuals: np.ndarray,
             params: GbdtParams, presorted: np.ndarray | None = None) -> RegressionTree:
    """Greedy top-down CART regression tree fit to the residuals.

    Leaf value is sum(residuals) / (count + lambda_leaf). Splitting stops at
    max_depth, min_samples_leaf, or a zero-variance node. `presorted` is
    the rows' per-feature sort order (`_presort(features)`), which `train`
    computes once for all its rounds; it is computed here when not given.
    """
    features = np.ascontiguousarray(np.atleast_2d(np.asarray(features, dtype=float)))
    residuals = np.asarray(residuals, dtype=float)
    if features.shape[0] == 0:
        raise ValueError("cannot fit a tree to an empty dataset")
    if features.shape[0] != residuals.shape[0]:
        raise ValueError("row counts of features and residuals differ")
    if presorted is None:
        presorted = _presort(features)
    sums = np.empty(len(residuals), dtype=complex)
    sums.real = residuals
    sums.imag = residuals * residuals
    # Per row, whether the split being applied sends it left.
    goes_left = np.zeros(features.shape[0], dtype=bool)
    width = features.shape[1]

    split_feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        split_feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(split_feature) - 1

    root = new_node()
    # Each node carries its rows in ascending order and its presort slice;
    # partitioning both by a mask keeps both orders.
    stack = [(root, np.arange(features.shape[0]), presorted, 0)]
    lam = params.lambda_leaf
    while stack:
        node, rows, order, depth = stack.pop()
        res = residuals[rows]
        value[node] = float(res.sum() / (len(rows) + lam))
        if depth >= params.max_depth or len(rows) < 2 * params.min_samples_leaf:
            continue
        if res.max() == res.min():
            continue
        best = _node_split(features, order, sums, params.min_samples_leaf)
        if best is None:
            continue
        j, thr = best
        go_left = features[rows, j] <= thr
        goes_left[rows] = go_left
        in_left = goes_left.take(order)
        left_id = new_node()
        right_id = new_node()
        split_feature[node] = j
        threshold[node] = thr
        left[node] = left_id
        right[node] = right_id
        stack.append((right_id, rows[~go_left], order[~in_left].reshape(width, -1),
                      depth + 1))
        stack.append((left_id, rows[go_left], order[in_left].reshape(width, -1),
                      depth + 1))

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
    params: GbdtParams
    num_features: int = 0
    train_mse: list = field(default_factory=list, compare=False)
    # (the tree objects packed, the packed forest), built on the first
    # prediction and again whenever `trees` stops holding exactly those trees.
    _packed: tuple = field(default=None, repr=False, compare=False)

    def _pack(self):
        # Trees compare by identity, so this is one C-level scan of the list.
        if self._packed is None or self._packed[0] != self.trees:
            self._packed = (list(self.trees), _pack(self.trees))
        return self._packed[1]


def _pack(trees) -> tuple:
    """(roots, feature, threshold, child, value, depth) of the trees laid
    end to end, two slots a node: node i's slot 2i + 1 is taken when
    x[feature] <= threshold and leads to its left child's slot 2 * left,
    slot 2i to 2 * right. Leaves loop back to themselves on feature 0 with
    threshold +inf, so the walk needs no leaf masking."""
    roots = np.cumsum([0] + [t.num_nodes() for t in trees], dtype=np.int64)[:-1]

    def joined(parts, dtype=float):
        return np.concatenate([np.zeros(0, dtype)] + list(parts))

    feat = joined((t.split_feature for t in trees), np.int64)
    leaf = feat < 0
    node = np.arange(len(feat), dtype=np.int64)
    left = joined((t.left + r for t, r in zip(trees, roots)), np.int64)
    right = joined((t.right + r for t, r in zip(trees, roots)), np.int64)
    return (2 * roots,
            np.repeat(np.where(leaf, 0, feat), 2),
            np.repeat(np.where(leaf, np.inf, joined(t.threshold for t in trees)), 2),
            2 * np.stack([np.where(leaf, node, right), np.where(leaf, node, left)],
                         axis=1).ravel(),
            np.repeat(joined(t.value for t in trees), 2),
            max((t.max_depth for t in trees), default=0))


def _walk(packed, features: np.ndarray, start, step_length: float) -> np.ndarray:
    """start + sl * tree_1(x) + sl * tree_2(x) + ... for each row x.

    A block of rows goes through every tree at once, one tree level a step,
    and its terms are summed left to right by add.accumulate, which never
    reorders: this is training's order, so the same bits.
    """
    roots, feat, thr, child, val, depth = packed
    out = np.array(start, dtype=float)
    rows, width = features.shape
    trees = len(roots)
    if trees == 0:
        return out
    block = max(1, WALK_BLOCK // trees)
    for lo in range(0, rows, block):
        x = features[lo:lo + block]
        n = len(x)
        # Slot pointers, tree-major: entry t * n + r is row r in tree t, and
        # feature f of row r is x.ravel()[r * width + f].
        ptr, offsets = roots, None
        if n > 1:
            ptr = np.repeat(roots, n)
            offsets = np.tile(np.arange(0, x.size, width), trees)
        x = x.ravel()
        for _ in range(depth):
            at = feat.take(ptr)
            if offsets is not None:
                at += offsets
            ptr = child.take(ptr + (x.take(at) <= thr.take(ptr)))
        terms = np.empty((trees + 1, n))
        terms[0] = out[lo:lo + block]
        np.multiply(val.take(ptr).reshape(trees, n), step_length, out=terms[1:])
        out[lo:lo + block] = np.add.accumulate(terms)[-1]
    return out


def _check_width(model: GbdtModel, width: int):
    # The walk reads a flattened block, so a short row would read its
    # neighbour's features instead of failing.
    if model.num_features and width != model.num_features:
        raise ValueError(
            f"feature vector has {width} entries, model was trained on "
            f"{model.num_features}")


def predict(model: GbdtModel, feature_vector) -> float:
    """Prediction for one row: f0 + sum_k sl * tree_k(x) in fit order."""
    x = np.asarray(feature_vector, dtype=float)
    if x.ndim != 1:
        raise ValueError("predict takes a single 1-D feature vector")
    _check_width(model, x.shape[0])
    return float(_walk(model._pack(), x[None, :], (model.initial_prediction,),
                       model.params.step_length)[0])


def predict_batch(model: GbdtModel, features: np.ndarray) -> np.ndarray:
    """Row-wise predictions, equal bit for bit to `predict` on each row."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    _check_width(model, features.shape[1])
    return _walk(model._pack(), features,
                 np.full(features.shape[0], model.initial_prediction),
                 model.params.step_length)


def _canonical_order(features: np.ndarray, targets: np.ndarray) -> np.ndarray:
    # Lexicographic row order (first feature is the most significant key)
    # makes training independent of the input row permutation.
    keys = [targets] + [features[:, j] for j in range(features.shape[1] - 1, -1, -1)]
    return np.lexsort(keys)


def train(dataset: RegressionDataset, params: GbdtParams) -> GbdtModel:
    """Fit the boosted ensemble.

    Each round fits a tree to the current residuals and advances the
    additive prediction by step_length times the tree's output.
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    order = _canonical_order(dataset.features, dataset.targets)
    features = dataset.features[order]
    targets = dataset.targets[order]
    # Features never change between rounds, so one sort serves every tree.
    presorted = _presort(features)

    f0 = float(np.mean(targets))
    predictions = np.full(len(targets), f0)
    trees = []
    mse_history = [float(np.mean((targets - predictions) ** 2))]

    for _ in range(params.num_rounds):
        tree = fit_tree(features, targets - predictions, params, presorted)
        trees.append(tree)
        predictions = _walk(_pack([tree]), features, predictions, params.step_length)
        mse = float(np.mean((targets - predictions) ** 2))
        if params.lambda_leaf == 0.0:
            # Guaranteed for mean-valued leaves with step length in (0, 1].
            assert mse <= mse_history[-1] * (1.0 + 1e-12) + 1e-300, \
                "boosting MSE increased"
        mse_history.append(mse)

    return GbdtModel(
        initial_prediction=f0,
        trees=trees,
        params=params,
        num_features=features.shape[1],
        train_mse=mse_history,
    )


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


# A tree's flat arrays, in file order, and their element types.
_TREE_ARRAYS = (("split_feature", np.int64), ("threshold", float),
                ("left", np.int64), ("right", np.int64), ("value", float))


def model_to_dict(model: GbdtModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "initial_prediction": model.initial_prediction,
        "num_features": model.num_features,
        "params": asdict(model.params),
        "trees": [{**{name: getattr(t, name).tolist() for name, _ in _TREE_ARRAYS},
                   "max_depth": t.max_depth} for t in model.trees],
    }


def model_from_dict(raw: dict) -> GbdtModel:
    if raw.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file")
    if raw.get("version") != MODEL_VERSION:
        raise ValueError(
            f"model version {raw.get('version')} unsupported (expected {MODEL_VERSION})")
    trees = [RegressionTree(**{name: np.array(t[name], dtype=kind)
                               for name, kind in _TREE_ARRAYS},
                            max_depth=int(t["max_depth"]))
             for t in raw["trees"]]
    return GbdtModel(
        initial_prediction=float(raw["initial_prediction"]),
        trees=trees,
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
