"""Action-value learner: a fully-connected Q-network trained by plain
gradient descent on Bellman targets, with an experience replay buffer and a
periodically synced fixed target network. The buffer takes a transition
as its five fields (`push`) and holds them stacked, and `train_step` takes
one batch form, a `Batch` of stacked arrays, as the buffer's `sample`
gathers it.

The network is rectifier-activated on hidden layers with an identity output,
one Q-value per action (flip one of the m RRHs, or do nothing). Its weights
and biases are views into one parameter vector, so `backprop` writes the
gradient into one vector of the same layout, an update is two whole-vector
operations and a target sync is one vector copy. The arithmetic per
parameter is that of separate per-layer arrays, bit for bit. Gradients are
computed by hand; their correctness against central finite differences is
a load-bearing test.

On arrays this small, numpy's Python wrappers (`np.mean`, `ndarray.sum`,
`ndarray.max`) cost as much as the arithmetic, so the per-step code calls
the ufuncs' `reduce` and adds biases in place, as `beamform._fixed_point`
does. Each such call does the arithmetic of the plain form on the same
operands in the same order, so the results are those of the plain forms,
bit for bit.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = "cranpower-qnet"
CHECKPOINT_VERSION = 1
BUFFER_MAGIC = "cranpower-replay"
BUFFER_VERSION = 1


@dataclass(frozen=True)
class DqnParams:
    gamma: float = 0.9
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 20_000
    learning_rate: float = 1e-3
    batch_size: int = 64
    target_sync_interval: int = 200
    train_interval: int = 4
    buffer_capacity: int = 100_000
    episode_length: int = 100
    hidden_sizes: tuple = (64, 64)

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must be in (0, 1]")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("epsilon schedule must satisfy 0 <= end <= start <= 1")
        if self.epsilon_decay_steps < 0:
            raise ValueError("epsilon_decay_steps must be >= 0")
        if self.batch_size < 1 or self.buffer_capacity < self.batch_size:
            raise ValueError("need batch_size >= 1 and buffer_capacity >= batch_size")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        object.__setattr__(self, "hidden_sizes", tuple(self.hidden_sizes))
        for name in ("target_sync_interval", "train_interval", "episode_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if any(width < 1 for width in self.hidden_sizes):
            raise ValueError("hidden_sizes must all be >= 1")

    def epsilon_at(self, step: int) -> float:
        """Linear decay from epsilon_start to epsilon_end over decay_steps."""
        if step >= self.epsilon_decay_steps:
            return self.epsilon_end
        frac = step / self.epsilon_decay_steps
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac


@dataclass(frozen=True, eq=False)
class Batch:
    """Transitions stacked row-wise, one array per field: the one batch form
    that the replay buffer holds and hands out and that `train_step` takes."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    terminals: np.ndarray

    def arrays(self) -> tuple:
        return (self.states, self.actions, self.rewards, self.next_states,
                self.terminals)

    def take(self, rows) -> "Batch":
        return Batch(self.states[rows], self.actions[rows], self.rewards[rows],
                     self.next_states[rows], self.terminals[rows])

    def __len__(self):
        return len(self.actions)


class QNetwork:
    """Affine + ReLU stack; identity output layer.

    Every weight and bias lives in one float64 vector, `params`, in the
    order W0, b0, W1, b1, ...; `weights` and `biases` are views into it.
    Edit them in place (`net.weights[i][:] = ...`, `+=`): rebinding an
    entry detaches it from `params`, so training and copies no longer see
    it."""

    def __init__(self, weights, biases):
        weights = [np.asarray(w, dtype=float) for w in weights]
        biases = [np.asarray(b, dtype=float) for b in biases]
        if not weights or len(weights) != len(biases):
            raise ValueError("need one bias per weight matrix, and at least one layer")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2:
                raise ValueError(f"layer {i}: weight is {w.ndim}-D, not a matrix")
            if i and w.shape[0] != weights[i - 1].shape[1]:
                raise ValueError(
                    f"layer {i}: weight takes {w.shape[0]} inputs, but layer "
                    f"{i - 1} gives {weights[i - 1].shape[1]}")
            if b.shape != (w.shape[1],):
                raise ValueError(f"layer {i}: bias of shape {b.shape} does not fit "
                                 f"the layer's {w.shape[1]} outputs")
        arrays = [a for pair in zip(weights, biases) for a in pair]
        # (start, end, shape) of each array's view, in the order of `params`.
        self._layout, start = [], 0
        for a in arrays:
            self._layout.append((start, start + a.size, a.shape))
            start += a.size
        self._adopt(np.concatenate([a.ravel() for a in arrays]))

    def _adopt(self, params: np.ndarray):
        self.params = params
        self.weights, self.biases = self.unflatten(params)

    def unflatten(self, flat: np.ndarray):
        """(weights, biases): views into a vector laid out as `params`."""
        views = [flat[start:end].reshape(shape) for start, end, shape in self._layout]
        return views[0::2], views[1::2]

    @property
    def layer_sizes(self):
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    @classmethod
    def initialize(cls, layer_sizes, rng: np.random.Generator) -> "QNetwork":
        """He-normal weights, zero biases."""
        weights, biases = [], []
        for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
            weights.append(rng.standard_normal((fan_in, fan_out))
                           * np.sqrt(2.0 / fan_in))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    def forward(self, state_features: np.ndarray) -> np.ndarray:
        """Q-values for one state."""
        return self.forward_batch(np.asarray(state_features, dtype=float)[None, :])[0]

    def forward_batch(self, states: np.ndarray) -> np.ndarray:
        return self.forward_layers(states)[1][-1]

    def forward_layers(self, states: np.ndarray):
        """The forward pass over a (batch, input) array of states: each
        layer's input and pre-activation, in layer order. A hidden layer's
        output is the ReLU of its pre-activation; the last pre-activation is
        the Q-values."""
        states = np.asarray(states, dtype=float)
        if states.shape[1] != self.weights[0].shape[0]:
            raise ValueError(
                f"input width {states.shape[1]} != network input "
                f"{self.weights[0].shape[0]}")
        inputs, pre = [], []
        act = states
        for w, b in zip(self.weights, self.biases):
            if pre:
                act = np.maximum(pre[-1], 0.0)
            inputs.append(act)
            z = act @ w
            z += b
            pre.append(z)
        return inputs, pre

    def copy(self) -> "QNetwork":
        """A twin whose parameters are one copy of `params`."""
        twin = copy.copy(self)
        twin._adopt(self.params.copy())
        return twin


def sync_target(net: QNetwork) -> QNetwork:
    """Deep copy for use as the fixed target; later updates to `net` do not
    leak into the returned copy."""
    return net.copy()


def select_action(net: QNetwork, state_features, epsilon: float,
                  rng: np.random.Generator) -> int:
    """Epsilon-greedy action; epsilon = 0 is the pure greedy policy."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must be in [0, 1]")
    num_actions = net.weights[-1].shape[1]
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(num_actions))
    return int(net.forward(state_features).argmax())


def compute_targets(batch: Batch, target_net: QNetwork, gamma: float) -> np.ndarray:
    """Bellman targets: y = r at terminal transitions, else
    y = r + gamma * max_a' Q(s', a') under the fixed target network."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    next_q = np.maximum.reduce(target_net.forward_batch(batch.next_states), axis=1)
    return np.where(batch.terminals, batch.rewards, batch.rewards + gamma * next_q)


def backprop(net: QNetwork, states, actions, targets):
    """Loss and parameter gradients for the taken-action squared error.

    loss = mean((y - Q(s, a))^2) over the batch; only the outputs of the
    actions actually taken receive gradient. Returns (loss, gradient),
    with the gradient one vector laid out as `net.params`.
    """
    inputs, pre = net.forward_layers(states)
    actions = np.asarray(actions, dtype=np.int64)
    targets = np.asarray(targets, dtype=float)
    batch = inputs[0].shape[0]

    q = pre[-1]
    rows = np.arange(batch)
    diff = q[rows, actions] - targets
    loss = float(np.add.reduce(diff * diff) / batch)

    delta = np.zeros(q.shape)
    delta[rows, actions] = 2.0 * diff / batch
    grad = np.empty_like(net.params)
    grads_w, grads_b = net.unflatten(grad)
    for i in range(len(net.weights) - 1, -1, -1):
        np.matmul(inputs[i].T, delta, out=grads_w[i])
        np.add.reduce(delta, axis=0, out=grads_b[i])
        if i > 0:
            delta = delta @ net.weights[i].T
            delta *= pre[i - 1] > 0.0
    return loss, grad


def train_step(net: QNetwork, target_net: QNetwork, batch: Batch, gamma: float,
               learning_rate: float) -> float:
    """One gradient-descent update on the Bellman targets of `batch`;
    returns the pre-update loss."""
    targets = compute_targets(batch, target_net, gamma)
    loss, grad = backprop(net, batch.states, batch.actions, targets)
    if not math.isfinite(loss):
        raise FloatingPointError(
            f"non-finite training loss ({loss}); aborting before the update")
    grad *= learning_rate
    net.params -= grad
    return loss


class ReplayBuffer:
    """Bounded FIFO transition store with uniform sampling.

    The transitions live row-wise in numpy ring arrays, one per field. The
    arrays grow by doubling up to `capacity` as rows arrive, so memory
    follows occupancy; once they are full, each push overwrites the oldest
    row. The cursor `_next` is always the row written next: it equals
    `len(self)` while the ring fills, and it is the oldest row once the
    ring is full. `sample` and `contents` gather their rows with one fancy
    index.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._store = None      # a Batch with room for at least `len(self)` rows
        self._size = 0
        self._next = 0          # the row written next

    def __len__(self):
        return self._size

    def _reserve(self, rows: int, width: int):
        held = 0 if self._store is None else len(self._store)
        if rows <= held:
            return
        size = min(self.capacity, max(rows, 2 * held))
        grown = Batch(np.empty((size, width)), np.empty(size, dtype=np.int64),
                      np.empty(size), np.empty((size, width)),
                      np.empty(size, dtype=bool))
        if self._size:
            for new, old in zip(grown.arrays(), self._store.arrays()):
                new[:self._size] = old[:self._size]
        self._store = grown

    def _advance(self, rows: int, width: int) -> int:
        """Make room for `rows` more rows and move the cursor past them;
        returns the row the first of them goes to, before the ring wraps."""
        size = min(self._size + rows, self.capacity)
        self._reserve(size, width)
        first, self._size = self._next, size
        self._next = (first + rows) % self.capacity
        return first

    def push(self, state, action: int, reward: float, next_state, terminal: bool):
        """Store one transition, its fields in `Batch`'s order."""
        slot = self._advance(1, len(state))
        store = self._store
        store.states[slot] = state
        store.actions[slot] = action
        store.rewards[slot] = reward
        store.next_states[slot] = next_state
        store.terminals[slot] = terminal

    def extend(self, batch: "Batch"):
        """Push the rows of `batch` in order, as one `push` each would: of
        more than a whole ring, only the last `capacity` rows survive."""
        rows = len(batch)
        if rows == 0:
            return
        kept = min(rows, self.capacity)
        slots = (self._advance(rows, batch.states.shape[1])
                 + np.arange(rows - kept, rows)) % self.capacity
        for new, arr in zip(self._store.arrays(), batch.arrays()):
            new[slots] = arr[rows - kept:]

    def copy(self, capacity: int, room: int) -> "ReplayBuffer":
        """A buffer of `capacity` with this one's transitions pushed in
        order, whose store is sized once for them plus `room` more rows (at
        most `capacity`). The rows go over straight from the ring, with no
        gathered temporary."""
        out = ReplayBuffer(capacity)
        if self._size:
            out._reserve(self._size + room, self._store.states.shape[1])
            for rows in (slice(self._next, self._size), slice(0, self._next)):
                out.extend(self._store.take(rows))
        return out

    def contents(self) -> "Batch":
        """The transitions in insertion order, oldest first."""
        if self._store is None:
            return Batch(np.zeros((0, 0)), np.zeros(0, dtype=np.int64),
                         np.zeros(0), np.zeros((0, 0)), np.zeros(0, dtype=bool))
        return self._store.take(
            (np.arange(self._size) + self._next - self._size) % self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> "Batch":
        if batch_size > self._size:
            raise ValueError(
                f"cannot sample {batch_size} from buffer of {self._size}")
        idx = rng.choice(self._size, size=batch_size, replace=False)
        return self._store.take(idx)

    def save(self, path):
        with open(path, "wb") as f:
            _write_header(f, BUFFER_MAGIC, BUFFER_VERSION)
            np.save(f, np.array([self.capacity], dtype=np.int64))
            for arr in self.contents().arrays():
                np.save(f, arr)

    @classmethod
    def load(cls, path) -> "ReplayBuffer":
        with open(path, "rb") as f:
            _read_header(f, BUFFER_MAGIC, BUFFER_VERSION)
            capacity = int(np.load(f)[0])
            arrays = [np.load(f) for _ in range(5)]
        buf = cls(capacity)
        buf.extend(Batch(*arrays))
        return buf


def _write_header(f, magic: str, version: int):
    np.save(f, np.frombuffer(magic.encode(), dtype=np.uint8))
    np.save(f, np.array([version], dtype=np.int64))


def _read_header(f, magic: str, version: int):
    found = bytes(np.load(f)).decode()
    if found != magic:
        raise ValueError(f"not a {magic} file (found '{found}')")
    found_version = int(np.load(f)[0])
    if found_version != version:
        raise ValueError(
            f"checkpoint version {found_version} unsupported (expected {version})")


def save_checkpoint(net: QNetwork, path):
    """Versioned binary checkpoint: layer sizes plus flat parameter arrays."""
    with open(path, "wb") as f:
        _write_header(f, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        np.save(f, np.array(net.layer_sizes, dtype=np.int64))
        for w, b in zip(net.weights, net.biases):
            np.save(f, w)
            np.save(f, b)


def load_checkpoint(path) -> QNetwork:
    with open(path, "rb") as f:
        _read_header(f, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
        layer_sizes = np.load(f).tolist()
        weights, biases = [], []
        for _ in range(len(layer_sizes) - 1):
            weights.append(np.load(f))
            biases.append(np.load(f))
    net = QNetwork(weights, biases)
    if net.layer_sizes != layer_sizes:
        raise ValueError("checkpoint layer sizes inconsistent with stored arrays")
    return net
