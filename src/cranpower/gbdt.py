"""Gradient boosting over regression trees, written from scratch.

The ensemble starts from the training-target mean and repeatedly fits a
depth-limited CART regression tree to the current residuals y - f (the
negative gradient of the L2 loss), adding each tree with a small step length.

Split search: `train` sorts each feature column once (a stable sort, so
tied values keep row-index order), since features never change between
rounds. The sort order is kept as flat cell indexes, row * width +
feature, into the row-major features. A node carries its rows and, if it
will be searched, that sort order restricted to its rows, as a
(features, rows) cell matrix. A split partitions both by the routing mask,
which keeps the order, so no node sorts again. A child at max_depth, or
with fewer than 2 * min_samples_leaf rows, is a leaf whatever its rows, so
it gets no matrix, and a child on which the split's feature is constant
does not carry that feature, which can no longer split it. A node gathers every carried feature's sorted values
and residuals at once, takes prefix sums along the value order, and scores
only the value changes that leave min_samples_leaf rows a side. The same
sums in the same sequence as a per-feature search make the same trees bit
for bit, with the same tie rules: the lowest feature index, then the
smallest threshold. `fit_tree` also reports the leaf each training row
reached, and `train` adds sl * value[leaf] to each row's prediction: the
term a prediction's walk adds, so training's partial sums are a
prediction's, bit for bit.

Prediction lays the trees of one or more models end to end in one compact
forest: flat arrays of one entry a node, in the order `fit_tree` stores the
nodes, with each node's feature, threshold, value and one pointer stored
once. A split's children sit side by side, left first, so the pointer is
the right child and the left one is one before it; a leaf points to itself.
One level-by-level walk of it, down to its deepest leaf, serves a single
row, a batch and both surrogate models at once (`predict_pair`);
`predict` and `predict_batch` are its one-model case. Each model's sum
f0 + sl * v_1 + sl * v_2 + ... runs left to right from its own f0, the
order of training, so a prediction on a training row replays the
training-time partial sums bit for bit, and a model answers the same bits
alone or paired. A model keeps its packings and rebuilds one when its
trees, f0, step length or width change.

Determinism contract: models are pure functions of (dataset, params). Rows
are canonicalized by a lexicographic sort before training so that permuting
dataset rows cannot change a single bit of the result, and candidate splits
are scanned in fixed (feature index, threshold) order.

Model files (format version 2) hold f0, the params, the input width and each
tree's flat arrays, with split_feature == -1 marking a leaf, its `left`
(right - 1 at a split, -1 at a leaf) and the params' `max_depth`; a tree
entry with other ones, or with arrays of unequal length, is refused. A
model is walked only if, in each tree, every node but the root is the child
of exactly one split that comes before it in that tree, and every split
reads a feature the model has.
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

    Routing rule: x[feature] <= threshold goes left. A split i's children
    are right[i] - 1, its left child, and right[i]; a leaf's right is -1.
    Trees compare by identity.
    """

    split_feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def num_nodes(self) -> int:
        return len(self.split_feature)


def _presort(features: np.ndarray) -> np.ndarray:
    """(features, rows) matrix whose row j lists feature j's cells by value,
    ties in row-index order (a stable sort). Cell row * width + j is that
    entry's index in the flattened row-major features."""
    width = features.shape[1]
    order = np.argsort(features.T, axis=1, kind="stable")
    order *= width
    order += np.arange(width)[:, None]
    return order


def _node_split(cells: np.ndarray, order: np.ndarray, sums: np.ndarray,
                min_leaf: int, width: int):
    """(row of `order`, threshold) of a node's best split, or None.

    `cells` is the flattened row-major features, `width` their row length,
    and `order` is the node's presort slice: one row of cells per feature
    the node carries, in ascending feature order. `sums` holds each row's
    residual r + 1j * r^2, so that one cumulative sum along each feature's
    value order gives the prefix sums of r and of r^2 (complex addition adds
    the parts separately, in the same sequence). The score is the summed
    squared error of the two child means, evaluated only at value changes
    that leave at least min_leaf rows a side. Thresholds are midpoints
    between consecutive distinct values, and the first minimum in (feature,
    threshold) order wins ties. Features are scanned in blocks of at most
    SPLIT_BLOCK cells, which bounds the work arrays of a large node.
    """
    carried, n = order.shape
    # Boundary b splits value-sorted positions [:b] from [b:].
    lo, hi = min_leaf, n - min_leaf
    best = None
    step = max(1, SPLIT_BLOCK // n)
    for first in range(0, carried, step):
        block = order[first:first + step]
        values = cells.take(block)
        # changes[f, b - 1] marks a value change at boundary b of feature f,
        # so a candidate's flat index is that of its left prefix sums.
        changes = np.zeros(block.shape, dtype=bool)
        np.less(values[:, lo - 1:hi], values[:, lo:hi + 1], out=changes[:, lo - 1:hi])
        del values
        at = np.flatnonzero(changes)
        del changes
        if len(at) == 0:
            continue
        feat = at // n

        prefix = sums.take(block // width)
        prefix.cumsum(axis=1, out=prefix)
        right = prefix[:, -1].take(feat)
        left = prefix.ravel().take(at)
        del prefix
        right -= left

        # (left_sq - left_sum^2 / left_n) + (right_sq - right_sum^2 / right_n)
        left_n = np.subtract(at, feat * n, dtype=float)
        left_n += 1
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
            best = (sse[i], first + int(feat[i]), int(at[i] % n) + 1)
    if best is None:
        return None
    _, k, b = best
    return k, 0.5 * (cells[order[k, b - 1]] + cells[order[k, b]])


def _child_slice(order: np.ndarray, mask: np.ndarray, k: int, drop: bool):
    """The cells of the presort slice `order` that `mask` keeps, one row a
    feature, without row k if `drop`; None if no row is left."""
    carried = len(order)
    if drop:
        mask[k] = False
        carried -= 1
    return order.compress(mask.ravel()).reshape(carried, -1) if carried else None


def fit_tree(features: np.ndarray, residuals: np.ndarray, params: GbdtParams,
             presorted: np.ndarray | None = None,
             leaf_of: np.ndarray | None = None) -> RegressionTree:
    """Greedy top-down CART regression tree fit to the residuals.

    Leaf value is sum(residuals) / (count + lambda_leaf). Splitting stops at
    max_depth, min_samples_leaf, or a zero-variance node. `presorted` is
    the rows' per-feature sort order of cells (`_presort(features)`), which
    `train` computes once for all its rounds; it is computed here when not
    given. If `leaf_of` is given, leaf_of[r] is set to the node index of the
    leaf that training row r reaches; `train` adds each row's term from it
    instead of walking the tree.

    A node carries its rows in ascending order and, if it will be searched,
    its presort slice; a split partitions both by its routing mask, which
    keeps both orders. A node at max_depth, or with fewer than
    2 * min_samples_leaf rows, is a leaf whatever its rows, so it carries no
    slice. Nor does a slice carry the split's feature into a child on which
    that feature is constant, since a constant feature cannot split a node.
    """
    features = np.ascontiguousarray(np.atleast_2d(np.asarray(features, dtype=float)))
    residuals = np.asarray(residuals, dtype=float)
    if features.shape[0] == 0:
        raise ValueError("cannot fit a tree to an empty dataset")
    if features.shape[0] != residuals.shape[0]:
        raise ValueError("row counts of features and residuals differ")
    num_rows, width = features.shape
    if presorted is None:
        presorted = _presort(features)
    cells = features.ravel()
    sums = np.empty(num_rows, dtype=complex)
    sums.real = residuals
    sums.imag = residuals * residuals
    # Per row, whether the split being applied sends it left.
    goes_left = np.zeros(num_rows, dtype=bool)
    lam, min_leaf, max_depth = params.lambda_leaf, params.min_samples_leaf, params.max_depth

    def searched(depth, rows):
        return depth < max_depth and len(rows) >= 2 * min_leaf

    # The root; a node is a leaf until it splits and appends its children.
    split_feature, threshold, right, value = [-1], [0.0], [-1], [0.0]
    rows = np.arange(num_rows)
    stack = [(0, rows, presorted if searched(0, rows) else None, 0)]
    while stack:
        node, rows, order, depth = stack.pop()
        res = residuals.take(rows)
        value[node] = float(np.add.reduce(res) / (len(rows) + lam))
        best = None
        if order is not None and np.maximum.reduce(res) != np.minimum.reduce(res):
            best = _node_split(cells, order, sums, min_leaf, width)
        if best is None:
            if leaf_of is not None:
                leaf_of[rows] = node
            continue
        k, thr = best
        j = int(order[k, 0] % width)
        go_left = cells.take(rows * width + j) <= thr
        right_id = len(value) + 1
        split_feature[node], threshold[node], right[node] = j, thr, right_id
        for column, blank in ((split_feature, -1), (threshold, 0.0), (right, -1),
                              (value, 0.0)):
            column += [blank, blank]
        rows_left, rows_right = rows.compress(go_left), rows.compress(~go_left)
        order_left = order_right = None
        if searched(depth + 1, rows_left) or searched(depth + 1, rows_right):
            goes_left[rows] = go_left
            in_left = goes_left.take(order // width)
            in_right = ~in_left
            # Row k of a child's slice is a run of row k here; the left
            # child's is the first len(rows_left) cells, those of the values
            # <= thr. A child on whose run feature j is constant drops row k.
            cut = len(rows_left)
            first, last, low, high = cells.take(order[k, [0, cut - 1, cut, -1]]).tolist()
            if searched(depth + 1, rows_left):
                order_left = _child_slice(order, in_left, k, first == last)
            if searched(depth + 1, rows_right):
                order_right = _child_slice(order, in_right, k, low == high)
        stack.append((right_id, rows_right, order_right, depth + 1))
        stack.append((right_id - 1, rows_left, order_left, depth + 1))

    return RegressionTree(np.array(split_feature, dtype=np.int64),
                          np.array(threshold, dtype=float),
                          np.array(right, dtype=np.int64), np.array(value, dtype=float))


@dataclass
class GbdtModel:
    initial_prediction: float
    trees: list
    params: GbdtParams
    num_features: int
    train_mse: list = field(default_factory=list, compare=False)
    # The packed forests of this model alone and of this model followed by
    # the model `predict_pair` last paired it with, each built on first use
    # and again whenever a packed model's trees, f0, step length or width
    # change.
    _alone: "_Forest" = field(default=None, repr=False, compare=False)
    _paired: "_Forest" = field(default=None, repr=False, compare=False)


# The one-leaf tree that pads a model's trees in a `_Forest`.
_PAD = RegressionTree(np.array([-1]), np.array([0.0]), np.array([-1]), np.array([-0.0]))


class _Forest:
    """The trees of one or more models laid end to end for one
    level-by-level walk, one entry a node with each field stored once, and
    each model's f0 and step length, from `key`: each model's (trees, f0,
    step length, width), whose trees `_check_layout` passes.

    Every model gets as many trees as the largest has: the others are
    padded with one-leaf trees of value -0.0, and x + (-0.0) is x for every
    float x, so a pad changes no sum. A node stores one pointer, next:
    inner node i sends x to next[i] - 1, its left child, when
    x[feature[i]] <= threshold[i], and to next[i], its right child,
    otherwise (NaN included). A leaf has threshold NaN, which no comparison
    passes, and next[i] = i, so it leads back to itself and the walk needs
    no leaf masking: a row that reaches a leaf in fewer than `depth` steps,
    the deepest tree's level count, stays there. Indices stay intp: `take`
    casts any narrower index array to intp on every call."""

    def __init__(self, key):
        self.key = [(list(trees), *rest) for trees, *rest in key]
        consts = np.array([(f0, step_length) for _, f0, step_length, _ in key])
        self.starts, self.step_lengths = consts[:, :1], consts[:, 1:, None]
        self.per_model = max(len(trees) for trees, *_ in key)
        forest = []
        for trees, *_ in key:
            forest += trees + [_PAD] * (self.per_model - len(trees))
        self.roots = np.cumsum([0] + [tree.num_nodes() for tree in forest],
                               dtype=np.intp)[:-1]

        def joined(parts, dtype=float):
            return np.concatenate([np.zeros(0, dtype)] + list(parts))

        feat = joined((tree.split_feature for tree in forest), np.intp)
        leaf = feat < 0
        right = joined((tree.right + r for tree, r in zip(forest, self.roots)), np.intp)
        # A level pass from the roots, down to the deepest leaf.
        self.depth, level = 0, self.roots
        while (level := level[~leaf.take(level)]).size:
            self.depth += 1
            level = np.concatenate((right.take(level) - 1, right.take(level)))
        self.feature = np.where(leaf, 0, feat)
        self.threshold = np.where(leaf, np.nan, joined(tree.threshold for tree in forest))
        self.next = np.where(leaf, np.arange(len(feat)), right)
        self.value = joined(tree.value for tree in forest)

    def walk(self, features: np.ndarray) -> np.ndarray:
        """f0 + sl * tree_1(x) + sl * tree_2(x) + ... of each packed model
        and row x, as a (models, rows) array.

        A block of rows goes through every tree of every model at once, one
        tree level a step. Each model's terms are summed left to right from
        its own f0 by add.accumulate, which never reorders: this is
        training's order, so the same bits.
        """
        feat, thr, nxt = self.feature, self.threshold, self.next
        rows, width = features.shape
        out = np.empty((len(self.key), rows))
        trees = len(self.roots)
        block = max(1, WALK_BLOCK // max(trees, 1))
        for lo in range(0, rows, block):
            x = features[lo:lo + block]
            n = len(x)
            # Node pointers, tree-major: entry t * n + r is row r in tree t,
            # and feature f of row r is x.ravel()[r * width + f].
            ptr, offsets = self.roots, None
            if n > 1:
                ptr = np.repeat(self.roots, n)
                offsets = np.tile(np.arange(0, x.size, width), trees)
            x = x.ravel()
            for _ in range(self.depth):
                at = feat.take(ptr)
                if offsets is not None:
                    at += offsets
                ptr = nxt.take(ptr) - (x.take(at) <= thr.take(ptr))
            terms = np.empty((len(self.key), self.per_model + 1, n))
            terms[:, 0] = self.starts
            np.multiply(self.value.take(ptr).reshape(len(self.key), self.per_model, n),
                        self.step_lengths, out=terms[:, 1:])
            out[:, lo:lo + n] = np.add.accumulate(terms, axis=1)[:, -1]
        return out


def _check_layout(models):
    """Refuse a tree in which a node other than the root is not the child of
    exactly one split before it, or a split reads a feature its model lacks."""
    for model in models:
        for k, tree in enumerate(model.trees):
            splits = np.flatnonzero(tree.split_feature >= 0)
            right = tree.right[splits]
            nodes = np.sort(np.concatenate(([0], right - 1, right)))
            if np.any(right - 1 <= splits) or not np.array_equal(
                    nodes, np.arange(tree.num_nodes())):
                raise ValueError(f"tree {k}: a node other than the root is not the "
                                 f"child of exactly one split before it")
            if np.any(tree.split_feature >= model.num_features):
                raise ValueError(f"tree {k} splits on feature {tree.split_feature.max()} "
                                 f"of a model that reads {model.num_features}")


def _predict(models, features: np.ndarray) -> np.ndarray:
    """Each model's row-wise predictions, as a (models, rows) array, from
    one walk of the models' packing, which the first model keeps."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    for model in models:
        # The walk reads a flattened block, so a short row would read its
        # neighbour's features instead of failing.
        if features.shape[1] != model.num_features:
            raise ValueError(
                f"feature vector has {features.shape[1]} entries, model was "
                f"trained on {model.num_features}")
    # The width is in the key because `_check_layout` checked the trees
    # against it: a copy of the model with fewer features is checked again.
    key = [(model.trees, model.initial_prediction, model.params.step_length,
            model.num_features) for model in models]
    cache = "_alone" if len(models) == 1 else "_paired"
    packed = getattr(models[0], cache)
    # Trees compare by identity, so a tree list compares in one C-level scan.
    if packed is None or packed.key != key:
        _check_layout(models)
        packed = _Forest(key)
        setattr(models[0], cache, packed)
    return packed.walk(features)


def predict(model: GbdtModel, feature_vector) -> float:
    """Prediction for one row: f0 + sum_k sl * tree_k(x) in fit order."""
    x = np.asarray(feature_vector, dtype=float)
    if x.ndim != 1:
        raise ValueError("predict takes a single 1-D feature vector")
    return float(_predict((model,), x[None, :])[0, 0])


def predict_batch(model: GbdtModel, features: np.ndarray) -> np.ndarray:
    """Row-wise predictions, equal bit for bit to `predict` on each row."""
    return _predict((model,), features)[0]


def predict_pair(first: GbdtModel, second: GbdtModel, features: np.ndarray) -> tuple:
    """Both models' row-wise predictions from one walk over their trees,
    each equal bit for bit to `predict_batch` of that model alone."""
    return tuple(_predict((first, second), features))


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
    leaf_of = np.empty(len(targets), dtype=np.intp)

    for _ in range(params.num_rounds):
        tree = fit_tree(features, targets - predictions, params, presorted, leaf_of)
        trees.append(tree)
        # Each row's term sl * v, from the leaf it reached in the fit: the
        # term a prediction's walk adds after its f0, so training's partial
        # sums are a prediction's, bit for bit.
        predictions = predictions + params.step_length * tree.value.take(leaf_of)
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


def model_to_dict(model: GbdtModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "initial_prediction": model.initial_prediction,
        "num_features": model.num_features,
        "params": asdict(model.params),
        "trees": [{"split_feature": t.split_feature.tolist(),
                   "threshold": t.threshold.tolist(),
                   "left": np.where(t.split_feature < 0, -1, t.right - 1).tolist(),
                   "right": t.right.tolist(), "value": t.value.tolist(),
                   "max_depth": model.params.max_depth} for t in model.trees],
    }


def model_from_dict(raw: dict) -> GbdtModel:
    if raw.get("format") != MODEL_FORMAT:
        raise ValueError(f"not a {MODEL_FORMAT} file")
    if raw.get("version") != MODEL_VERSION:
        raise ValueError(
            f"model version {raw.get('version')} unsupported (expected {MODEL_VERSION})")
    for k, t in enumerate(raw["trees"]):
        if len({len(t[name]) for name in ("split_feature", "threshold", "left", "right",
                                          "value")}) != 1:
            raise ValueError(f"tree {k}: its arrays differ in length")
    model = GbdtModel(
        initial_prediction=float(raw["initial_prediction"]),
        trees=[RegressionTree(np.array(t["split_feature"], dtype=np.int64),
                              np.array(t["threshold"], dtype=float),
                              np.array(t["right"], dtype=np.int64),
                              np.array(t["value"], dtype=float)) for t in raw["trees"]],
        params=GbdtParams(**raw["params"]),
        num_features=int(raw["num_features"]),
    )
    for k, (t, written) in enumerate(zip(raw["trees"], model_to_dict(model)["trees"])):
        for name in ("left", "max_depth"):
            if t[name] != written[name]:
                raise ValueError(f"tree {k}: its {name} is not the one its nodes "
                                 f"and params give")
    return model


def save_model(model: GbdtModel, path):
    with open(path, "w") as f:
        json.dump(model_to_dict(model), f, separators=(",", ":"))
        f.write("\n")


def load_model(path) -> GbdtModel:
    with open(path) as f:
        return model_from_dict(json.load(f))
