"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight fixtures
(the 20k-row dataset and the offline training run) are shared across
criteria, and their wall time is charged to the criteria that rely on them.
"""

import itertools
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from cranpower import gbdt, pipeline
from cranpower.beamform import (
    BeamformingProblem,
    SolutionStatus,
    solve_beamforming,
    verify_solution,
)
from cranpower.dqn import QNetwork, backprop
from cranpower.env import Environment, p_upper_bound
from cranpower.netmodel import NetworkConfig, sample_channel, sample_demands

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = ROOT / "configs" / "default.json"
TINY_CONFIG = ROOT / "configs" / "tiny.json"

NOISE_W = 10.0 ** -13.2

pytestmark = pytest.mark.acceptance


def _report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def default_config():
    return pipeline.RunConfig.from_file(DEFAULT_CONFIG)


@pytest.fixture(scope="module")
def full_dataset(default_config):
    t0 = time.time()
    rows = pipeline.gen_dataset(default_config)
    return rows, time.time() - t0


@pytest.fixture(scope="module")
def trained(default_config, full_dataset, tmp_path_factory):
    rows, _ = full_dataset
    out = tmp_path_factory.mktemp("acceptance_artifacts")
    t0 = time.time()
    artifacts, summary = pipeline.train_offline(default_config, out_dir=out,
                                                dataset=rows)
    return artifacts, summary, time.time() - t0


def test_criterion_01_solver_analytic():
    # Single-user optimum is iota * noise / ||h||^2 with matched-filter
    # weights; the solver must reproduce it to 1e-6 relative.
    t0 = time.time()
    worst = 0.0
    for seed in range(100):
        cfg = NetworkConfig(num_rrhs=4, num_users=1)
        channel = sample_channel(cfg, np.random.default_rng(10_000 + seed))
        iota = float(np.random.default_rng(20_000 + seed).uniform(3.0, 15.0))
        problem = BeamformingProblem(
            active_set=np.arange(4), channel=channel.gains,
            sinr_targets=np.array([iota]), per_rrh_cap_w=np.inf, noise_w=NOISE_W)
        solution = solve_beamforming(problem)
        assert solution.status is SolutionStatus.FEASIBLE
        expected = iota * NOISE_W / float(np.sum(np.abs(channel.gains[:, 0]) ** 2))
        worst = max(worst, abs(solution.total_tx_w - expected) / expected)
    elapsed = time.time() - t0
    _report(1, "solver-analytic", worst <= 1e-6 and elapsed < 5.0,
            f"max rel err {worst:.2e} over 100 instances, {elapsed:.2f}s")


def _two_user_candidate_powers(a11, a12, a21, a22, iota, noise):
    det = a11 * a22 - iota[0] * iota[1] * a12 * a21
    with np.errstate(divide="ignore", invalid="ignore"):
        p1 = iota[0] * noise * (a22 + iota[1] * a12) / det
        p2 = iota[1] * noise * (a11 + iota[0] * a21) / det
        return np.where((det > 0) & (p1 >= 0) & (p2 >= 0), p1 + p2, np.inf)


def _search_best(G, iota, n_candidates, rng, keep=5, chunk=125_000):
    """Random unit beam directions with closed-form minimal powers; returns
    the best value and the `keep` best candidates for polishing."""
    g1, g2 = G[:, 0], G[:, 1]
    top = []
    remaining = n_candidates
    while remaining > 0:
        k = min(chunk, remaining)
        remaining -= k
        W1 = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
        W2 = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
        W1 /= np.linalg.norm(W1, axis=0)
        W2 /= np.linalg.norm(W2, axis=0)
        totals = _two_user_candidate_powers(
            np.abs(g1.conj() @ W1) ** 2, np.abs(g1.conj() @ W2) ** 2,
            np.abs(g2.conj() @ W1) ** 2, np.abs(g2.conj() @ W2) ** 2,
            iota, NOISE_W)
        for i in np.argsort(totals)[:keep]:
            top.append((float(totals[i]),
                        np.concatenate([W1[:, i].real, W1[:, i].imag,
                                        W2[:, i].real, W2[:, i].imag])))
    top.sort(key=lambda c: c[0])
    return top[0][0], top[:keep]


def _polish(G, iota, starts):
    def objective(x):
        w1 = x[:3] + 1j * x[3:6]
        w2 = x[6:9] + 1j * x[9:]
        n1, n2 = np.linalg.norm(w1), np.linalg.norm(w2)
        if n1 == 0 or n2 == 0:
            return 1e12
        w1, w2 = w1 / n1, w2 / n2
        g1, g2 = G[:, 0], G[:, 1]
        total = _two_user_candidate_powers(
            np.array([abs(np.vdot(g1, w1)) ** 2]),
            np.array([abs(np.vdot(g1, w2)) ** 2]),
            np.array([abs(np.vdot(g2, w1)) ** 2]),
            np.array([abs(np.vdot(g2, w2)) ** 2]), iota, NOISE_W)
        return float(total[0]) if np.isfinite(total[0]) else 1e12

    best = np.inf
    for _, x0 in starts:
        res = minimize(objective, x0, method="Powell",
                       options=dict(maxiter=20_000, xtol=1e-12, ftol=1e-14))
        best = min(best, float(res.fun))
    return best


def test_criterion_02_solver_search_oracle():
    # 10^6 random direction candidates per instance (each given its exact
    # minimal power allocation), refined by derivative-free descent from the
    # best finds. The solver must never be beaten and must agree to 0.5%.
    t0 = time.time()
    worst_gap = 0.0
    worst_tightness = 0.0
    for seed in range(20):
        cfg = NetworkConfig(num_rrhs=3, num_users=2)
        channel = sample_channel(cfg, np.random.default_rng(7_000 + seed))
        rng = np.random.default_rng(8_000 + seed)
        iota = rng.uniform(3.0, 15.0, 2)
        problem = BeamformingProblem(
            active_set=np.arange(3), channel=channel.gains, sinr_targets=iota,
            per_rrh_cap_w=np.inf, noise_w=NOISE_W)
        solution = solve_beamforming(problem)
        assert solution.status is SolutionStatus.FEASIBLE
        G = np.conj(channel.gains)
        best_random, starts = _search_best(G, iota, 1_000_000, rng)
        assert solution.total_tx_w <= best_random * (1 + 1e-9), \
            f"seed {seed}: random search beat the solver"
        best = min(best_random, _polish(G, iota, starts))
        worst_gap = max(worst_gap, abs(solution.total_tx_w - best) / best)
        check = verify_solution(solution, problem, tol=1e-6)
        worst_tightness = max(worst_tightness, check.max_rel_violation,
                              check.max_rel_slack)
    elapsed = time.time() - t0
    _report(2, "solver-search-oracle",
            worst_gap <= 0.005 and worst_tightness <= 1e-6 and elapsed < 600.0,
            f"worst search gap {worst_gap:.2e}, worst tightness "
            f"{worst_tightness:.2e}, {elapsed:.1f}s")


def test_criterion_03_gbdt_fit(default_config, full_dataset):
    rows, gen_seconds = full_dataset
    t0 = time.time()
    regression = rows.regression_view()
    rng = np.random.default_rng(42)
    perm = rng.permutation(len(regression))
    cut = int(round(len(regression) * 0.2))
    fit = gbdt.RegressionDataset(regression.features[perm[cut:]],
                                 regression.targets[perm[cut:]])
    hold = gbdt.RegressionDataset(regression.features[perm[:cut]],
                                  regression.targets[perm[:cut]])
    random_r2 = gbdt.evaluate(gbdt.train(fit, default_config.gbdt), hold)["r2"]

    all_on = pipeline.gen_dataset(default_config, count=20_000,
                                  pattern_mode=pipeline.PATTERN_ALL_ON,
                                  stream=77)
    regression_on = all_on.regression_view()
    perm = rng.permutation(len(regression_on))
    cut = int(round(len(regression_on) * 0.2))
    fit_on = gbdt.RegressionDataset(regression_on.features[perm[cut:]],
                                    regression_on.targets[perm[cut:]])
    hold_on = gbdt.RegressionDataset(regression_on.features[perm[:cut]],
                                     regression_on.targets[perm[:cut]])
    all_on_r2 = gbdt.evaluate(gbdt.train(fit_on, default_config.gbdt),
                              hold_on)["r2"]
    elapsed = gen_seconds + (time.time() - t0)
    _report(3, "gbdt-fit",
            random_r2 >= 0.90 and all_on_r2 >= 0.95 and elapsed < 300.0,
            f"held-out R2 {random_r2:.4f} (random patterns, floor 0.90), "
            f"{all_on_r2:.4f} (all-on, floor 0.95), {elapsed:.1f}s")


def test_criterion_04_speedup(default_config, trained):
    artifacts, _, _ = trained
    t0 = time.time()
    row = pipeline.bench_timing(default_config, artifacts, inputs=1000,
                                repeats=3)
    elapsed = time.time() - t0
    _report(4, "surrogate-speedup",
            row["speedup"] >= 10.0 and elapsed < 300.0,
            f"surrogate {row['gbdt_s_per_input'] * 1e6:.0f} us vs solver "
            f"{row['socp_s_per_input'] * 1e6:.0f} us per input: "
            f"{row['speedup']:.1f}x over 1000 inputs, {elapsed:.1f}s")


def test_criterion_05_policy_quality(default_config, trained):
    artifacts, _, train_seconds = trained
    t0 = time.time()
    policy = pipeline.run_online(default_config, artifacts, 5000,
                                 scheme=pipeline.SCHEME_DQN_GBDT)
    ao = pipeline.run_baseline(default_config, pipeline.SCHEME_AO, 5000)
    oc = pipeline.run_baseline(default_config, pipeline.SCHEME_OC, 5000)
    elapsed = train_seconds + (time.time() - t0)
    margin_ao = ao.average_power_w - policy.average_power_w
    margin_oc = oc.average_power_w - policy.average_power_w
    strictly_better = margin_ao > 0 and margin_oc > 0
    detail = (f"DQN-GBDT {policy.average_power_w:.2f} W vs AO "
              f"{ao.average_power_w:.2f} W (margin {margin_ao:.2f} W, target "
              f"4.00) and OC {oc.average_power_w:.2f} W (margin "
              f"{margin_oc:.2f} W), {elapsed:.0f}s incl. training")
    if margin_ao < 4.0:
        detail += f"; SHORTFALL {4.0 - margin_ao:.2f} W below the 4 W target"
    _report(5, "policy-quality", strictly_better and elapsed < 1800.0, detail)


def test_criterion_06_error_tolerance(default_config, trained):
    artifacts, _, train_seconds = trained
    t0 = time.time()
    result = pipeline.ete_compare(default_config, artifacts, 5000)
    elapsed = train_seconds + (time.time() - t0)
    _report(6, "error-tolerance",
            result.average_gap_rel <= 0.05 and elapsed < 1800.0,
            f"average-power gap {result.average_gap_rel * 100:.2f}% (cap 5%), "
            f"action agreement {result.action_agreement * 100:.1f}%, "
            f"{elapsed:.0f}s incl. training")


def test_criterion_07_gradient_check():
    t0 = time.time()
    rng = np.random.default_rng(123)
    net = QNetwork.initialize([12, 16, 9], rng)
    states = rng.normal(size=(10, 12))
    actions = rng.integers(0, 9, size=10)
    targets = rng.normal(size=10)
    _, grad = backprop(net, states, actions, targets)
    grads_w, grads_b = net.unflatten(grad)

    def loss_at():
        q = net.forward_batch(states)
        taken = q[np.arange(10), actions]
        return float(np.mean((taken - targets) ** 2))

    h = 1e-5
    worst = 0.0
    for arr, grad in zip(net.weights + net.biases, grads_w + grads_b):
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_at()
            flat[k] = orig - h
            down = loss_at()
            flat[k] = orig
            numeric = (up - down) / (2 * h)
            denom = max(abs(gflat[k]), abs(numeric), 1e-6)
            worst = max(worst, abs(gflat[k] - numeric) / denom)
    elapsed = time.time() - t0
    _report(7, "gradient-check", worst <= 1e-4 and elapsed < 10.0,
            f"max rel grad err {worst:.2e} over all parameters of a "
            f"[12,16,9] net on 10 inputs, {elapsed:.2f}s")


def test_criterion_08_boosting_monotonicity():
    t0 = time.time()
    worst_rise = -np.inf
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        x = rng.normal(size=(400, 6))
        y = (np.sin(x[:, 0]) + 0.5 * x[:, 1] * x[:, 2]
             + rng.normal(scale=0.3, size=400))
        params = gbdt.GbdtParams(num_rounds=80, step_length=0.1, lambda_leaf=0.0)
        model = gbdt.train(gbdt.RegressionDataset(x, y), params)
        rises = np.diff(model.train_mse)
        worst_rise = max(worst_rise, float(rises.max()))
    elapsed = time.time() - t0
    _report(8, "boosting-monotonicity",
            worst_rise <= 1e-12 and elapsed < 60.0,
            f"worst per-round MSE change {worst_rise:.2e} across 5 datasets, "
            f"{elapsed:.1f}s")


def _run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "cranpower.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 0, f"cli {args} failed: {proc.stderr}"


def test_criterion_09_cli_determinism(tmp_path):
    t0 = time.time()
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        cfg = str(TINY_CONFIG)
        _run_cli(["gen-data", "--config", cfg, "--out", str(out)])
        _run_cli(["train", "--config", cfg, "--out", str(out),
                  "--dataset", str(out / "dataset.csv")])
        _run_cli(["evaluate", "--config", cfg, "--out", str(out),
                  "--slots", "30"])
        _run_cli(["evaluate", "--config", cfg, "--out", str(out),
                  "--slots", "30", "--scheme", "DQN-SOCP"])
        _run_cli(["baseline", "--config", cfg, "--out", str(out),
                  "--scheme", "AO", "--slots", "30"])
        _run_cli(["baseline", "--config", cfg, "--out", str(out),
                  "--scheme", "OC", "--slots", "30"])
        _run_cli(["ete", "--config", cfg, "--out", str(out), "--slots", "30"])
        _run_cli(["bench", "--config", cfg, "--out", str(out),
                  "--inputs", "20", "--repeats", "1"])
    compared = []
    for path in sorted(outs[0].iterdir()):
        if "timing" in path.name:
            continue
        twin = outs[1] / path.name
        identical = twin.exists() and path.read_bytes() == twin.read_bytes()
        compared.append((path.name, identical))
    all_identical = bool(compared) and all(ok for _, ok in compared)
    diffs = [name for name, ok in compared if not ok]
    elapsed = time.time() - t0
    _report(9, "cli-determinism", all_identical and elapsed < 600.0,
            f"{len(compared)} non-timing outputs byte-identical across reruns"
            + (f"; DIFFERING: {diffs}" if diffs else "") + f", {elapsed:.1f}s")


def test_criterion_10_power_accounting(fixed_answer):
    # 10^4 rows of one Environment step, each from a drawn pattern by a
    # drawn action, with a drawn (transmit power, feasible) answer: every
    # term of each row's power and its reward equal their closed forms, and
    # the total is the exact sum of the three terms.
    t0 = time.time()
    cfg = NetworkConfig()
    m, rows = cfg.num_rrhs, 10_000
    p_ub = m * (cfg.active_power_w + cfg.max_tx_power_w / cfg.amplifier_efficiency
                + cfg.transition_power_w)
    rng = np.random.default_rng(9)
    gains = np.broadcast_to(sample_channel(cfg, rng).gains, (rows, m, cfg.num_users))
    patterns = rng.random((rows, m)) < 0.5
    actions = rng.integers(m + 1, size=rows)
    fixed_answer.answer = (rng.uniform(0.0, m * cfg.max_tx_power_w, rows),
                           rng.random(rows) < 0.8)
    env = Environment(cfg, gains, patterns, sample_demands(cfg, rng, rows), fixed_answer,
                      rng)
    slot = env.step(actions)
    exact = p_upper_bound(cfg) == p_ub
    matched = 0
    for k in range(rows):
        tx, feasible = float(fixed_answer.answer[0][k]), bool(fixed_answer.answer[1][k])
        action = int(actions[k])
        nxt = patterns[k].copy()
        nxt[action:action + 1] ^= True     # action m flips nothing
        on = int(nxt.sum())
        transmit_w = tx / cfg.amplifier_efficiency if feasible else 0.0
        total_w = slot.transmit_w[k] + slot.state_w[k] + slot.transition_w[k]
        exact = (exact
                 and np.array_equal(env.patterns[k], nxt)
                 and slot.state_w[k] == on * cfg.active_power_w + (m - on) * cfg.sleep_power_w
                 and slot.transition_w[k] == (cfg.transition_power_w if action < m else 0.0)
                 and slot.transmit_w[k] == transmit_w
                 and slot.total_w[k] == total_w
                 and slot.reward[k] == (p_ub - total_w if feasible else -p_ub)
                 and slot.feasible[k] == feasible)
        if not exact:
            break
        matched += 1
    zero_demand = pipeline.RunConfig(
        network=NetworkConfig(demand_min_mbps=0.0, demand_max_mbps=0.0),
        dataset_size=10, eval_slots=5, offline_episodes=1)
    ao = pipeline.run_baseline(zero_demand, pipeline.SCHEME_AO, 5)
    ao_exact = np.allclose(ao.instant_w, 54.4, rtol=1e-12, atol=0.0)
    elapsed = time.time() - t0
    _report(10, "power-accounting", exact and ao_exact and elapsed < 5.0,
            f"{matched} of 10^4 stepped rows match the closed forms and sum "
            f"exactly; AO zero-demand instant power "
            f"{float(ao.instant_w[0])!r} W (expected 54.4), {elapsed:.2f}s")
