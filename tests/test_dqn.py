import re
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cranpower import dqn
from cranpower.dqn import (
    Batch,
    DqnParams,
    QNetwork,
    ReplayBuffer,
    backprop,
    compute_targets,
    load_checkpoint,
    save_checkpoint,
    select_action,
    sync_target,
    train_step,
)


def zero_net(layer_sizes) -> QNetwork:
    """A network whose every weight and bias is zero."""
    pairs = list(zip(layer_sizes[:-1], layer_sizes[1:]))
    return QNetwork([np.zeros(pair) for pair in pairs],
                    [np.zeros(width) for _, width in pairs])


class Transition(NamedTuple):
    """One transition as a record, its fields in the order `push` takes."""

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    terminal: bool


def stack(transitions) -> Batch:
    """Transitions stacked row-wise into the one batch form `train_step`
    takes."""
    return Batch(np.stack([t.state for t in transitions]),
                 np.array([t.action for t in transitions], dtype=np.int64),
                 np.array([t.reward for t in transitions], dtype=float),
                 np.stack([t.next_state for t in transitions]),
                 np.array([t.terminal for t in transitions], dtype=bool))


def relative_grad_error(analytic, numeric):
    return np.abs(analytic - numeric) / np.maximum.reduce(
        [np.abs(analytic), np.abs(numeric), np.full_like(analytic, 1e-6)])


def finite_difference_grads(net, states, actions, targets, h=1e-5):
    """Central differences on every parameter."""
    grads_w = [np.zeros_like(w) for w in net.weights]
    grads_b = [np.zeros_like(b) for b in net.biases]

    def loss_value():
        q = net.forward_batch(states)
        taken = q[np.arange(len(actions)), actions]
        return float(np.mean((taken - targets) ** 2))

    for arrs, grads in ((net.weights, grads_w), (net.biases, grads_b)):
        for arr, grad in zip(arrs, grads):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = loss_value()
                flat[k] = orig - h
                down = loss_value()
                flat[k] = orig
                gflat[k] = (up - down) / (2 * h)
    return grads_w, grads_b


def write_checkpoint_arrays(path, layer_sizes, shapes):
    """A checkpoint file in `save_checkpoint`'s format whose layers have the
    given weight shapes, zero weights and biases as wide as each weight's
    outputs, whatever `layer_sizes` claims."""
    with open(path, "wb") as f:
        dqn._write_header(f, dqn.CHECKPOINT_MAGIC, dqn.CHECKPOINT_VERSION)
        np.save(f, np.array(layer_sizes, dtype=np.int64))
        for shape in shapes:
            np.save(f, np.zeros(shape))
            np.save(f, np.zeros(shape[1]))


def per_array_forward(weights, biases, states):
    inputs, pre = [], []
    act = states
    for w, b in zip(weights, biases):
        if pre:
            act = np.maximum(pre[-1], 0.0)
        inputs.append(act)
        pre.append(act @ w + b)
    return inputs, pre


def per_array_train_step(weights, biases, target, batch, gamma, lr):
    """One update of separate weight and bias arrays, updated in place: each
    gradient its own array and each parameter its own subtraction. Returns
    the pre-update loss."""
    next_q = per_array_forward(*target, batch.next_states)[1][-1].max(axis=1)
    targets = np.where(batch.terminals, batch.rewards, batch.rewards + gamma * next_q)
    inputs, pre = per_array_forward(weights, biases, batch.states)
    rows = np.arange(len(batch))
    diff = pre[-1][rows, batch.actions] - targets
    loss = float(np.mean(diff ** 2))
    delta = np.zeros_like(pre[-1])
    delta[rows, batch.actions] = 2.0 * diff / len(batch)
    grads_w, grads_b = [None] * len(weights), [None] * len(biases)
    for i in range(len(weights) - 1, -1, -1):
        grads_w[i] = inputs[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ weights[i].T) * (pre[i - 1] > 0.0)
    for i in range(len(weights)):
        weights[i] -= lr * grads_w[i]
        biases[i] -= lr * grads_b[i]
    return loss


def random_batch(rng, rows, width, actions, terminal_share):
    return Batch(rng.normal(size=(rows, width)), rng.integers(0, actions, rows),
                 rng.uniform(-100.0, 60.0, rows), rng.normal(size=(rows, width)),
                 rng.random(rows) < terminal_share)


class TestForward:
    def test_zero_network_outputs_zeros(self):
        net = zero_net([4, 8, 3])
        q = net.forward(np.ones(4))
        assert np.all(q == 0)
        assert q.shape == (3,)

    def test_single_linear_layer_hand_math(self):
        w = np.array([[1.0, -2.0], [0.5, 3.0]])
        b = np.array([0.1, -0.1])
        net = QNetwork([w], [b])
        x = np.array([2.0, 4.0])
        expected = x @ w + b
        assert np.allclose(net.forward(x), expected)

    def test_two_layer_with_relu(self):
        w1 = np.array([[1.0], [-1.0]])
        b1 = np.array([-0.5])
        w2 = np.array([[2.0, -2.0]])
        b2 = np.array([0.0, 1.0])
        net = QNetwork([w1, w2], [b1, b2])
        x = np.array([2.0, 0.5])  # hidden pre-act = 1.0, post-relu = 1.0
        assert np.allclose(net.forward(x), [2.0, -1.0])

    def test_purity(self):
        rng = np.random.default_rng(0)
        net = QNetwork.initialize([5, 7, 4], rng)
        x = rng.normal(size=5)
        assert np.array_equal(net.forward(x), net.forward(x))

    def test_width_mismatch(self):
        net = zero_net([4, 3])
        with pytest.raises(ValueError):
            net.forward(np.ones(5))


class TestSelectAction:
    def _net_with_q(self, q_values):
        # Zero weights, output bias = the desired Q-vector.
        net = zero_net([3, len(q_values)])
        net.biases[-1][:] = q_values
        return net

    def test_greedy_argmax(self):
        net = self._net_with_q([1.0, 5.0, 3.0])
        a = select_action(net, np.zeros(3), 0.0, np.random.default_rng(0))
        assert a == 1

    def test_uniform_exploration(self):
        net = self._net_with_q([1.0, 5.0, 3.0, 0.0, 2.0, 1.5, 0.2, 9.0, 4.0])
        rng = np.random.default_rng(11)
        n = 100_000
        counts = np.bincount(
            [select_action(net, np.zeros(3), 1.0, rng) for _ in range(n)],
            minlength=9)
        freqs = counts / n
        assert np.all(np.abs(freqs - 1 / 9) < 0.02 / 9 + 3e-3)

    def test_shift_invariance(self):
        base = self._net_with_q([1.0, 5.0, 3.0])
        shifted = self._net_with_q([8.0, 12.0, 10.0])
        rng = np.random.default_rng(1)
        a = select_action(base, np.zeros(3), 0.0, rng)
        b = select_action(shifted, np.zeros(3), 0.0, rng)
        assert a == b == 1

    def test_epsilon_range_checked(self):
        net = self._net_with_q([0.0, 1.0])
        with pytest.raises(ValueError):
            select_action(net, np.zeros(3), 1.5, np.random.default_rng(0))


class TestComputeTargets:
    def _transition(self, reward, terminal):
        return Transition(np.zeros(2), 0, reward, np.zeros(2), terminal)

    def test_terminal_returns_reward(self):
        net = zero_net([2, 2])
        y = compute_targets(stack([self._transition(3.0, True)]), net, 0.9)
        assert y[0] == 3.0

    def test_bootstrap_arithmetic(self):
        net = zero_net([2, 2])
        net.biases[-1][:] = [2.0, 1.0]  # max target-Q = 2
        y = compute_targets(stack([self._transition(1.0, False)]), net, 0.9)
        assert y[0] == pytest.approx(2.8)

    def test_gamma_zero(self):
        rng = np.random.default_rng(2)
        net = QNetwork.initialize([2, 4, 2], rng)
        batch = stack([self._transition(r, False) for r in (0.5, -1.0, 2.5)])
        y = compute_targets(batch, net, 1e-12)
        assert np.allclose(y, [0.5, -1.0, 2.5], atol=1e-9)

    def test_empty_batch_rejected(self):
        empty = ReplayBuffer(1).contents()
        net = zero_net([2, 2])
        with pytest.raises(ValueError, match="non-empty"):
            compute_targets(empty, net, 0.9)
        with pytest.raises(ValueError, match="non-empty"):
            train_step(net, sync_target(net), empty, 0.9, 0.1)


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        net = QNetwork.initialize([6, 9, 4], rng)
        states = rng.normal(size=(10, 6))
        actions = rng.integers(0, 4, size=10)
        targets = rng.normal(size=10)
        _, grad = backprop(net, states, actions, targets)
        gw, gb = net.unflatten(grad)
        fw, fb = finite_difference_grads(net, states, actions, targets)
        worst = 0.0
        for a, n in zip(gw + gb, fw + fb):
            worst = max(worst, float(np.max(relative_grad_error(a, n))))
        assert worst <= 1e-4

    def test_zero_error_means_no_update(self):
        rng = np.random.default_rng(4)
        net = QNetwork.initialize([3, 5, 2], rng)
        state = rng.normal(size=3)
        q = net.forward(state)
        tr = Transition(state, 1, float(q[1]), state, True)  # target equals current Q
        before = [w.copy() for w in net.weights]
        loss = train_step(net, sync_target(net), stack([tr]), 0.9, 0.1)
        assert loss == 0.0
        for w, prev in zip(net.weights, before):
            assert np.array_equal(w, prev)

    def test_single_transition_linear_net_update(self):
        # One linear layer, one transition: the update must follow the
        # hand-derived gradient dL/dW = 2 (q - y) * x on the taken row.
        w = np.array([[0.5, -0.2], [0.3, 0.8]])
        net = QNetwork([w.copy()], [np.zeros(2)])
        x = np.array([1.0, -2.0])
        tr = Transition(x, 0, 4.0, x, True)
        lr = 0.01
        q0 = float(net.forward(x)[0])
        train_step(net, sync_target(net), stack([tr]), 0.9, lr)
        expected = w.copy()
        expected[:, 0] -= lr * 2.0 * (q0 - 4.0) * x
        assert np.allclose(net.weights[0], expected, atol=1e-12)

    def test_nonfinite_loss_aborts(self):
        net = zero_net([2, 2])
        net.weights[0][:] = np.inf
        before = net.params.tobytes()
        tr = Transition(np.ones(2), 0, 1.0, np.ones(2), True)
        with pytest.raises(FloatingPointError):
            train_step(net, sync_target(net), stack([tr]), 0.9, 0.1)
        assert net.params.tobytes() == before

    def test_two_state_mdp_converges_to_value_iteration(self):
        # Deterministic 2-state / 2-action MDP; tabular value iteration is
        # the oracle for the Bellman fixed point.
        gamma = 0.9
        rewards = {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 2.0, (1, 1): 0.5}
        nxt = {(0, 0): 0, (0, 1): 1, (1, 0): 0, (1, 1): 1}
        q_star = np.zeros((2, 2))
        for _ in range(2000):
            q_star = np.array([
                [rewards[s, a] + gamma * q_star[nxt[s, a]].max() for a in (0, 1)]
                for s in (0, 1)])
        states = np.eye(2)
        batch = stack([Transition(states[s], a, rewards[s, a], states[nxt[s, a]], False)
                       for s in (0, 1) for a in (0, 1)])
        rng = np.random.default_rng(5)
        net = QNetwork.initialize([2, 32, 2], rng)
        target = sync_target(net)
        loss = np.inf
        for step in range(500):
            loss = train_step(net, target, batch, gamma, 0.05)
            if (step + 1) % 10 == 0:
                target = sync_target(net)
        assert loss < 1e-3
        learned = net.forward_batch(states)
        assert np.max(np.abs(learned - q_star)) < 0.2


class TestSyncTarget:
    def test_mutation_does_not_leak(self):
        rng = np.random.default_rng(6)
        net = QNetwork.initialize([3, 4, 2], rng)
        target = sync_target(net)
        x = rng.normal(size=3)
        before = target.forward(x).copy()
        net.weights[0] += 1.0
        assert np.array_equal(target.forward(x), before)

    def test_copies_identical(self):
        rng = np.random.default_rng(7)
        net = QNetwork.initialize([3, 4, 2], rng)
        a = sync_target(net)
        b = sync_target(net)
        x = rng.normal(size=3)
        assert np.array_equal(a.forward(x), net.forward(x))
        assert np.array_equal(a.forward(x), b.forward(x))

    def test_target_staleness_between_syncs(self):
        rng = np.random.default_rng(8)
        net = QNetwork.initialize([2, 8, 2], rng)
        target = sync_target(net)
        batch = stack([Transition(rng.normal(size=2), int(rng.integers(2)),
                                  float(rng.normal()), rng.normal(size=2), False)
                       for _ in range(4)])
        y_before = compute_targets(batch, target, 0.9)
        for _ in range(5):
            train_step(net, target, batch, 0.9, 0.05)
        y_after = compute_targets(batch, target, 0.9)
        assert np.array_equal(y_before, y_after)


class TestReplayBuffer:
    def _tr(self, tag):
        return Transition(np.array([float(tag)]), 0, float(tag),
                          np.array([float(tag)]), False)

    def test_fifo_eviction(self):
        buf = ReplayBuffer(2)
        for tag in (1, 2, 3):
            buf.push(*self._tr(tag))
        assert buf.contents().rewards.tolist() == [2.0, 3.0]

    def test_full_sample_is_permutation(self):
        buf = ReplayBuffer(10)
        for tag in range(10):
            buf.push(*self._tr(tag))
        batch = buf.sample(10, np.random.default_rng(0))
        assert sorted(batch.rewards.tolist()) == [float(i) for i in range(10)]

    def test_sampling_uniform(self):
        buf = ReplayBuffer(8)
        for tag in range(8):
            buf.push(*self._tr(tag))
        rng = np.random.default_rng(9)
        counts = np.zeros(8)
        draws = 40_000
        for _ in range(draws):
            for reward in buf.sample(2, rng).rewards:
                counts[int(reward)] += 1
        freqs = counts / (2 * draws)
        assert np.all(np.abs(freqs - 1 / 8) < 0.02 / 8 + 2e-3)

    def test_undersized_sample_rejected(self):
        buf = ReplayBuffer(4)
        buf.push(*self._tr(0))
        with pytest.raises(ValueError):
            buf.sample(2, np.random.default_rng(0))

    def test_snapshot_round_trip(self, tmp_path):
        buf = ReplayBuffer(5)
        rng = np.random.default_rng(10)
        for _ in range(7):
            buf.push(rng.normal(size=3), int(rng.integers(4)), float(rng.normal()),
                     rng.normal(size=3), bool(rng.random() < 0.3))
        path = tmp_path / "replay.bin"
        buf.save(path)
        loaded = ReplayBuffer.load(path)
        assert len(loaded) == len(buf)
        for a, b in zip(buf.contents().arrays(), loaded.contents().arrays()):
            assert np.array_equal(a, b)


class ListReplay:
    """The list-of-Transitions replay buffer the array store replaced, kept
    as the reference for its slot order, sampling and snapshot bytes."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.storage = []
        self.next = 0

    def push(self, transition):
        if len(self.storage) < self.capacity:
            self.storage.append(transition)
        else:
            self.storage[self.next] = transition
            self.next = (self.next + 1) % self.capacity

    def contents(self):
        return self.storage[self.next:] + self.storage[:self.next]

    def sample(self, batch_size, rng):
        idx = rng.choice(len(self.storage), size=batch_size, replace=False)
        return [self.storage[i] for i in idx]


def assert_same_rows(batch, reference):
    """Two batches hold the same rows, bit for bit."""
    for got, want in zip(batch.arrays(), reference.arrays()):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def random_transition(rng, width=3):
    return Transition(rng.normal(size=width), int(rng.integers(5)),
                      float(rng.normal()), rng.normal(size=width),
                      bool(rng.random() < 0.3))


class TestArrayReplay:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(capacity=st.integers(1, 9), ops=st.lists(st.integers(0, 12), max_size=30),
           seed=st.integers(0, 2 ** 16))
    def test_matches_list_buffer(self, capacity, ops, seed):
        # Each op pushes a transition, or, when it is at least 9, samples
        # op - 8 transitions with twin generators: same rows, same order.
        rng = np.random.default_rng(seed)
        buf, ref = ReplayBuffer(capacity), ListReplay(capacity)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        for op in ops:
            if op < 9:
                transition = random_transition(rng)
                buf.push(*transition)
                ref.push(transition)
            elif op - 8 <= len(ref.storage):
                assert_same_rows(buf.sample(op - 8, rng_a),
                                 stack(ref.sample(op - 8, rng_b)))
            assert len(buf) == len(ref.storage)
        if ref.storage:
            assert_same_rows(buf.contents(), stack(ref.contents()))

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(capacity=st.integers(1, 9), before=st.integers(0, 20),
           rows=st.integers(0, 25), seed=st.integers(0, 2 ** 16))
    def test_extend_is_pushing_each_row(self, capacity, before, rows, seed):
        rng = np.random.default_rng(seed)
        first = [random_transition(rng) for _ in range(before)]
        more = [random_transition(rng) for _ in range(rows)]
        buf, ref = ReplayBuffer(capacity), ReplayBuffer(capacity)
        for transition in first:
            buf.push(*transition)
            ref.push(*transition)
        if more:
            buf.extend(stack(more))
        for transition in more:
            ref.push(*transition)
        assert len(buf) == len(ref)
        if len(ref):
            assert_same_rows(buf.contents(), ref.contents())
            assert_same_rows(buf.sample(len(ref), np.random.default_rng(seed)),
                             ref.sample(len(ref), np.random.default_rng(seed)))

    def test_snapshot_bytes_match_list_buffer(self, tmp_path):
        # The snapshot holds the stacked contents, oldest first, written as
        # the list buffer wrote them.
        rng = np.random.default_rng(12)
        buf, ref = ReplayBuffer(6), ListReplay(6)
        for _ in range(9):
            transition = random_transition(rng)
            buf.push(*transition)
            ref.push(transition)
        buf.save(tmp_path / "array.bin")
        with open(tmp_path / "listed.bin", "wb") as f:
            dqn._write_header(f, dqn.BUFFER_MAGIC, dqn.BUFFER_VERSION)
            np.save(f, np.array([6], dtype=np.int64))
            stacked = ref.contents()
            np.save(f, np.stack([t.state for t in stacked]))
            np.save(f, np.array([t.action for t in stacked], dtype=np.int64))
            np.save(f, np.array([t.reward for t in stacked], dtype=float))
            np.save(f, np.stack([t.next_state for t in stacked]))
            np.save(f, np.array([t.terminal for t in stacked], dtype=bool))
        assert (tmp_path / "array.bin").read_bytes() == \
            (tmp_path / "listed.bin").read_bytes()
        assert_same_rows(ReplayBuffer.load(tmp_path / "array.bin").contents(),
                         stack(ref.contents()))

    def test_empty_snapshot_round_trip(self, tmp_path):
        ReplayBuffer(4).save(tmp_path / "empty.bin")
        loaded = ReplayBuffer.load(tmp_path / "empty.bin")
        assert len(loaded) == 0 and loaded.capacity == 4

    def test_memory_follows_occupancy(self):
        # A nearly empty buffer of a large capacity, and a copy of its rows
        # into another, allocate for the rows held, not for the capacity.
        rng = np.random.default_rng(13)
        tracemalloc.start()
        try:
            buf = ReplayBuffer(100_000)
            for _ in range(100):
                buf.push(*random_transition(rng, width=12))
            copy = ReplayBuffer(100_000)
            copy.extend(buf.contents())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(copy) == 100
        assert peak < 200_000

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(capacity=st.integers(1, 9), new_capacity=st.integers(1, 12),
           before=st.integers(0, 20), room=st.integers(0, 6), pushes=st.integers(0, 8),
           seed=st.integers(0, 2 ** 16))
    def test_copy_is_extending_with_contents(self, capacity, new_capacity, before,
                                             room, pushes, seed):
        # The copy holds what extending a new buffer with the contents would,
        # in the same slots, and later pushes land alike.
        rng = np.random.default_rng(seed)
        buf = ReplayBuffer(capacity)
        for _ in range(before):
            buf.push(*random_transition(rng))
        copy, ref = buf.copy(new_capacity, room), ReplayBuffer(new_capacity)
        if len(buf):
            ref.extend(buf.contents())
        for _ in range(pushes):
            transition = random_transition(rng)
            copy.push(*transition)
            ref.push(*transition)
        assert copy.capacity == new_capacity and len(copy) == len(ref)
        if len(ref):
            assert_same_rows(copy.contents(), ref.contents())
            assert_same_rows(copy.sample(len(ref), np.random.default_rng(seed)),
                             ref.sample(len(ref), np.random.default_rng(seed)))

    def test_sample_trains_like_stacked_transitions(self):
        rng = np.random.default_rng(14)
        buf, ref = ReplayBuffer(32), ListReplay(32)
        for _ in range(40):
            transition = random_transition(rng, width=4)
            transition = transition._replace(action=transition.action % 3)
            buf.push(*transition)
            ref.push(transition)
        net_a = QNetwork.initialize([4, 8, 3], np.random.default_rng(15))
        net_b, target = net_a.copy(), net_a.copy()
        rng_a, rng_b = np.random.default_rng(16), np.random.default_rng(16)
        for _ in range(20):
            loss_a = train_step(net_a, target, buf.sample(8, rng_a), 0.9, 1e-2)
            loss_b = train_step(net_b, target, stack(ref.sample(8, rng_b)), 0.9, 1e-2)
            assert loss_a == loss_b
        for a, b in zip(net_a.weights + net_a.biases, net_b.weights + net_b.biases):
            assert np.array_equal(a, b)


class TestReproducibility:
    def _run(self, seed):
        rng_net = np.random.default_rng(seed)
        rng_env = np.random.default_rng(seed + 1)
        rng_buf = np.random.default_rng(seed + 2)
        net = QNetwork.initialize([3, 8, 2], rng_net)
        target = sync_target(net)
        buf = ReplayBuffer(64)
        losses = []
        for step in range(120):
            s = rng_env.normal(size=3)
            a = select_action(net, s, 0.3, rng_env)
            buf.push(s, a, float(rng_env.normal()), rng_env.normal(size=3), False)
            if len(buf) >= 16 and step % 4 == 0:
                losses.append(train_step(net, target, buf.sample(16, rng_buf),
                                         0.9, 1e-2))
            if step % 20 == 0:
                target = sync_target(net)
        return losses

    def test_same_seed_identical_losses(self):
        assert self._run(100) == self._run(100)


class TestFlatLearner:
    """The learner keeps its parameters in one vector; it must train as
    separate per-layer arrays would, bit for bit."""

    @pytest.mark.parametrize("hidden", [(64,), (64, 64), (32, 32, 32)])
    def test_matches_per_array_reference(self, hidden):
        rng = np.random.default_rng(len(hidden) * 100 + hidden[0])
        width, actions, gamma, lr = 12, 9, 0.9, 1e-3
        net = QNetwork.initialize([width, *hidden, actions], rng)
        target = net.copy()
        weights = [w.copy() for w in net.weights]
        biases = [b.copy() for b in net.biases]
        ref_target = ([w.copy() for w in weights], [b.copy() for b in biases])
        for step in range(300):
            # Every 50th batch is all terminal: its targets are the rewards.
            batch = random_batch(rng, 64, width, actions, 1.0 if step % 50 == 0 else 0.2)
            loss = train_step(net, target, batch, gamma, lr)
            assert loss == per_array_train_step(weights, biases, ref_target, batch,
                                                gamma, lr)
            if step % 40 == 39:
                target = net.copy()
                ref_target = ([w.copy() for w in weights], [b.copy() for b in biases])
        for got, want in zip(net.weights + net.biases, weights + biases):
            assert got.tobytes() == want.tobytes()

    def test_params_hold_every_layer_in_order(self):
        net = QNetwork.initialize([5, 7, 3], np.random.default_rng(30))
        assert net.params.tobytes() == np.concatenate(
            [net.weights[0].ravel(), net.biases[0], net.weights[1].ravel(),
             net.biases[1]]).tobytes()
        for view in net.weights + net.biases:
            assert np.shares_memory(view, net.params)

    def test_copy_shares_no_memory(self):
        net = QNetwork.initialize([5, 7, 3], np.random.default_rng(31))
        twin = net.copy()
        assert twin.params.tobytes() == net.params.tobytes()
        for mine in [net.params, *net.weights, *net.biases]:
            for theirs in [twin.params, *twin.weights, *twin.biases]:
                assert not np.shares_memory(mine, theirs)

    def test_in_place_edit_is_trained(self):
        rng = np.random.default_rng(32)
        net = QNetwork.initialize([4, 8, 3], rng)
        target = net.copy()
        weights = [w.copy() for w in net.weights]
        biases = [b.copy() for b in net.biases]
        ref_target = ([w.copy() for w in weights], [b.copy() for b in biases])
        net.weights[1][:] = 0.25
        net.biases[0] += 1.0
        weights[1][:] = 0.25
        biases[0] += 1.0
        batch = random_batch(rng, 16, 4, 3, 0.2)
        loss = train_step(net, target, batch, 0.9, 1e-2)
        assert loss == per_array_train_step(weights, biases, ref_target, batch, 0.9, 1e-2)
        for got, want in zip(net.weights + net.biases, weights + biases):
            assert got.tobytes() == want.tobytes()

    def test_save_load_save_writes_the_same_bytes(self, tmp_path):
        rng = np.random.default_rng(33)
        net = QNetwork.initialize([6, 16, 16, 7], rng)
        target = net.copy()
        for _ in range(5):
            train_step(net, target, random_batch(rng, 8, 6, 7, 0.2), 0.9, 1e-2)
        first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
        save_checkpoint(net, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.params.tobytes() == net.params.tobytes()


class TestLayerChain:
    @pytest.mark.parametrize("weights, biases, message", [
        ([(12, 64), (32, 64), (64, 9)], [64, 64, 9],
         "layer 1: weight takes 32 inputs, but layer 0 gives 64"),
        ([(12, 64), (64, 64), (32, 9)], [64, 64, 9],
         "layer 2: weight takes 32 inputs, but layer 1 gives 64"),
        ([(12, 64), (64, 9)], [64, 64], "layer 1: bias of shape (64,)"),
        ([(12, 64), (64, 9)], [(1, 64), 9], "layer 0: bias of shape (1, 64)"),
        ([(12,), (12, 9)], [12, 9], "layer 0: weight is 1-D"),
    ])
    def test_layers_that_do_not_chain_are_refused(self, weights, biases, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            QNetwork([np.zeros(shape) for shape in weights],
                     [np.zeros(shape) for shape in biases])

    def test_one_bias_per_layer(self):
        with pytest.raises(ValueError, match="one bias per weight"):
            QNetwork([np.zeros((3, 4)), np.zeros((4, 2))], [np.zeros(4)])
        with pytest.raises(ValueError, match="at least one layer"):
            QNetwork([], [])

    def test_checkpoint_of_layers_that_do_not_chain_is_refused(self, tmp_path):
        path = tmp_path / "qnet.ckpt"
        write_checkpoint_arrays(path, [12, 64, 64, 9], [(12, 64), (32, 64), (64, 9)])
        with pytest.raises(ValueError, match="layer 1: weight takes 32 inputs"):
            load_checkpoint(path)


class TestCheckpointing:
    def test_round_trip_identical_outputs(self, tmp_path):
        rng = np.random.default_rng(11)
        net = QNetwork.initialize([5, 16, 9], rng)
        path = tmp_path / "qnet.bin"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        for probe in rng.normal(size=(10, 5)):
            assert np.array_equal(net.forward(probe), loaded.forward(probe))

    def test_version_enforced(self, tmp_path):
        path = tmp_path / "qnet.bin"
        save_checkpoint(zero_net([2, 2]), path)
        raw = path.read_bytes()
        # Corrupt the magic string.
        bad = raw.replace(b"cranpower-qnet", b"cranpower-QNET", 1)
        bad_path = tmp_path / "bad.bin"
        bad_path.write_bytes(bad)
        with pytest.raises(ValueError):
            load_checkpoint(bad_path)


class TestParams:
    def test_epsilon_schedule_linear(self):
        p = DqnParams(epsilon_decay_steps=100)
        assert p.epsilon_at(0) == 1.0
        assert p.epsilon_at(50) == pytest.approx(0.525)
        assert p.epsilon_at(100) == 0.05
        assert p.epsilon_at(10_000) == 0.05

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            DqnParams(gamma=0.0)
        with pytest.raises(ValueError):
            DqnParams(gamma=1.5)
