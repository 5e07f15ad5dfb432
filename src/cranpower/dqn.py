"""Action-value learner: a fully-connected Q-network trained by plain
gradient descent on Bellman targets, with an experience replay buffer and a
periodically synced fixed target network.

The network is rectifier-activated on hidden layers with an identity output,
one Q-value per action (flip one of the m RRHs, or do nothing). Gradients
are computed by hand; their correctness against central finite differences
is a load-bearing test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        if self.epsilon_decay_steps <= 0 or step >= self.epsilon_decay_steps:
            return self.epsilon_end
        frac = step / self.epsilon_decay_steps
        return self.epsilon_start + (self.epsilon_end - self.epsilon_start) * frac


@dataclass
class Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


class QNetwork:
    """Affine + ReLU stack; identity output layer."""

    def __init__(self, weights, biases):
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        self.biases = [np.asarray(b, dtype=float) for b in biases]
        for w, b in zip(self.weights, self.biases):
            if w.shape[1] != b.shape[0]:
                raise ValueError("bias width must match weight output width")

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

    @classmethod
    def zeros(cls, layer_sizes) -> "QNetwork":
        weights = [np.zeros((i, o)) for i, o in zip(layer_sizes[:-1], layer_sizes[1:])]
        biases = [np.zeros(o) for o in layer_sizes[1:]]
        return cls(weights, biases)

    def forward(self, state_features: np.ndarray) -> np.ndarray:
        """Q-values for one state."""
        return self.forward_batch(np.asarray(state_features, dtype=float)[None, :])[0]

    def forward_batch(self, states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=float)
        if states.shape[1] != self.weights[0].shape[0]:
            raise ValueError(
                f"input width {states.shape[1]} != network input "
                f"{self.weights[0].shape[0]}")
        act = states
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            act = act @ w + b
            if i < last:
                act = np.maximum(act, 0.0)
        return act

    def copy(self) -> "QNetwork":
        return QNetwork([w.copy() for w in self.weights],
                        [b.copy() for b in self.biases])


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
    q = net.forward(state_features)
    return int(np.argmax(q))


def _stack_batch(batch):
    states = np.stack([t.state for t in batch])
    actions = np.array([t.action for t in batch], dtype=np.int64)
    rewards = np.array([t.reward for t in batch], dtype=float)
    next_states = np.stack([t.next_state for t in batch])
    terminals = np.array([t.terminal for t in batch], dtype=bool)
    return states, actions, rewards, next_states, terminals


def compute_targets(batch, target_net: QNetwork, gamma: float) -> np.ndarray:
    """Bellman targets: y = r at terminal transitions, else
    y = r + gamma * max_a' Q(s', a') under the fixed target network."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    _, _, rewards, next_states, terminals = _stack_batch(batch)
    return _targets(rewards, next_states, terminals, target_net, gamma)


def _targets(rewards, next_states, terminals, target_net: QNetwork,
             gamma: float) -> np.ndarray:
    next_q = target_net.forward_batch(next_states).max(axis=1)
    return np.where(terminals, rewards, rewards + gamma * next_q)


def backprop(net: QNetwork, states, actions, targets):
    """Loss and parameter gradients for the taken-action squared error.

    loss = mean((y - Q(s, a))^2) over the batch; only the outputs of the
    actions actually taken receive gradient.
    """
    states = np.asarray(states, dtype=float)
    actions = np.asarray(actions, dtype=np.int64)
    targets = np.asarray(targets, dtype=float)
    batch = states.shape[0]

    activations = [states]
    pre = []
    act = states
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = act @ w + b
        pre.append(z)
        act = np.maximum(z, 0.0) if i < last else z
        activations.append(act)

    q = activations[-1]
    taken = q[np.arange(batch), actions]
    diff = taken - targets
    loss = float(np.mean(diff ** 2))

    delta = np.zeros_like(q)
    delta[np.arange(batch), actions] = 2.0 * diff / batch
    grads_w = [None] * len(net.weights)
    grads_b = [None] * len(net.biases)
    for i in range(len(net.weights) - 1, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ net.weights[i].T) * (pre[i - 1] > 0.0)
    return loss, grads_w, grads_b


def train_step(net: QNetwork, target_net: QNetwork, batch, gamma: float,
               learning_rate: float) -> float:
    """One gradient-descent update on the Bellman targets of `batch`;
    returns the pre-update loss."""
    if len(batch) == 0:
        raise ValueError("batch must be non-empty")
    states, actions, rewards, next_states, terminals = _stack_batch(batch)
    targets = _targets(rewards, next_states, terminals, target_net, gamma)
    loss, grads_w, grads_b = backprop(net, states, actions, targets)
    if not np.isfinite(loss):
        raise FloatingPointError(
            f"non-finite training loss ({loss}); aborting before the update")
    for i in range(len(net.weights)):
        net.weights[i] -= learning_rate * grads_w[i]
        net.biases[i] -= learning_rate * grads_b[i]
    return loss


class ReplayBuffer:
    """Bounded FIFO transition store with uniform sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._storage = []
        self._next = 0

    def __len__(self):
        return len(self._storage)

    def push(self, transition: Transition):
        if len(self._storage) < self.capacity:
            self._storage.append(transition)
        else:
            # Ring position walks forward, so the overwritten slot is always
            # the oldest element: strict FIFO eviction.
            self._storage[self._next] = transition
            self._next = (self._next + 1) % self.capacity

    def contents(self):
        """Transitions in insertion order, oldest first."""
        return self._storage[self._next:] + self._storage[:self._next]

    def sample(self, batch_size: int, rng: np.random.Generator):
        if batch_size > len(self._storage):
            raise ValueError(
                f"cannot sample {batch_size} from buffer of {len(self._storage)}")
        idx = rng.choice(len(self._storage), size=batch_size, replace=False)
        return [self._storage[i] for i in idx]

    def save(self, path):
        states, actions, rewards, next_states, terminals = (
            _stack_batch(self.contents()) if self._storage
            else (np.zeros((0, 0)), np.zeros(0, dtype=np.int64), np.zeros(0),
                  np.zeros((0, 0)), np.zeros(0, dtype=bool)))
        with open(path, "wb") as f:
            _write_header(f, BUFFER_MAGIC, BUFFER_VERSION)
            np.save(f, np.array([self.capacity], dtype=np.int64))
            for arr in (states, actions, rewards, next_states, terminals):
                np.save(f, arr)

    @classmethod
    def load(cls, path) -> "ReplayBuffer":
        with open(path, "rb") as f:
            _read_header(f, BUFFER_MAGIC, BUFFER_VERSION)
            capacity = int(np.load(f)[0])
            states = np.load(f)
            actions = np.load(f)
            rewards = np.load(f)
            next_states = np.load(f)
            terminals = np.load(f)
        buf = cls(capacity)
        for i in range(len(actions)):
            buf.push(Transition(states[i], int(actions[i]), float(rewards[i]),
                                next_states[i], bool(terminals[i])))
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
