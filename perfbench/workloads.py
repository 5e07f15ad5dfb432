"""The benchmark's workloads, built only from the public API of cranpower.

Every workload runs on the cell of a config file, channel included, and
generates the rest of its inputs from the workload seed. It has three parts:

- `prepare()`, optional: set-up work too long to repeat, done and timed
  once. Its time is added to `setup_s`.
- `setup()`: what a user pays before the work starts. The runner times it
  several times and adds the median to `setup_s`.
- `run_pass()`: one pass of fixed work over the seed's inputs. Every pass
  repeats the same work, so passes differ only in how fast the machine ran
  them. It returns (operations done, operations failed).
- `check()`: output checks, run after the passes. Besides each workload's
  own checks, every pass must reproduce the first exactly. It returns a
  list of error messages; any error fails the run.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from cranpower import beamform, gbdt, pipeline
from cranpower.env import p_upper_bound
from cranpower.pipeline import RunConfig

_SETUP = 0
_PASS = 1
# `surrogate_rows` labels rows in batches of this many.
LABEL_BATCH_ROWS = 250


def draws(seed: int, purpose: int, part: int = 0):
    """(data stream, train seed, eval seed) of one purpose, derived from the
    workload seed."""
    return tuple(int(x) for x in
                 np.random.SeedSequence([seed, purpose, part]).generate_state(3))


class Workload:
    name = ""
    op = ""             # what one operation is
    min_passes = 3
    prepare = None
    # The surrogate pair is fitted on enough rows for trees of the config's
    # depth to fill out as in a full-size fit: trees fitted on a few hundred
    # rows are shallower, so they fit and predict faster. Each set keeps
    # `holdout_rows` more rows for held-out checks.
    regression_rows = 1600
    flag_rows = 2000
    holdout_rows = 200

    def __init__(self, config_path, seed: int):
        self.config_path = config_path
        self.seed = seed

    def load_config(self, purpose: int, **changes) -> RunConfig:
        """The config file's cell and params with the train and eval seeds of
        `purpose`. The data seed stays the file's: it draws the cell's
        channel, which every workload and every seed shares."""
        config = RunConfig.from_file(self.config_path)
        _, train, evaluation = draws(self.seed, purpose)
        seeds = dataclasses.replace(config.seeds, train=train, eval=evaluation)
        return dataclasses.replace(config, seeds=seeds, **changes)

    def label(self, count: int, purpose: int, part: int = 0):
        """`count` rows labelled on the cell's channel, from the data stream
        of (purpose, part)."""
        return pipeline.gen_dataset(self.config, count=count,
                                    stream=draws(self.seed, purpose, part)[0])

    def surrogate_rows(self, purpose: int):
        """Labelled rows, enough for `surrogate_sets`."""
        batches = []
        while (sum(len(b) for b in batches) < self.flag_rows + self.holdout_rows
               or sum(int(np.count_nonzero(b.feasible)) for b in batches)
               < self.regression_rows + self.holdout_rows):
            batches.append(self.label(LABEL_BATCH_ROWS, purpose, len(batches)))
        return pipeline.DatasetRows(
            np.concatenate([b.features for b in batches]),
            np.concatenate([b.tx_power_w for b in batches]),
            np.concatenate([b.feasible for b in batches]),
            sum(b.solver_failures for b in batches))

    def surrogate_sets(self, rows):
        """Training and held-out sets of the surrogate pair from `rows`: the
        regressor's transmit power on feasible rows, the classifier's
        feasibility flag on all rows.

        Returns (regression, regression holdout, flags, flags holdout)."""
        def split(picked, targets, cut):
            return (gbdt.RegressionDataset(rows.features[picked[:cut]],
                                           targets[picked[:cut]]),
                    gbdt.RegressionDataset(rows.features[picked[cut:]],
                                           targets[picked[cut:]]))

        feasible = np.flatnonzero(rows.feasible)
        return (*split(feasible[:self.regression_rows + self.holdout_rows],
                       rows.tx_power_w, self.regression_rows),
                *split(np.arange(self.flag_rows + self.holdout_rows),
                       rows.feasible.astype(float), self.flag_rows))

    def figures(self, pass_s: float) -> dict:
        """Readable figures beyond the end-to-end metrics, name -> (value,
        unit), given the mean scaled time of a pass: the workload's own
        throughput under its own name, and quality figures that depend only
        on the seed."""
        return {}


def _same_rows(a, b) -> bool:
    return (np.array_equal(a.features, b.features)
            and np.array_equal(a.tx_power_w, b.tx_power_w, equal_nan=True)
            and np.array_equal(a.feasible, b.feasible))


class Label(Workload):
    """Bulk exact-solver labelling through `pipeline.gen_dataset` with random
    on/off patterns."""

    name = "label"
    op = "rows"
    rows_per_pass = 500
    check_rows = 20

    def setup(self):
        self.config = self.load_config(_SETUP)
        self.label(self.rows_per_pass // 5, _SETUP)
        self.first = None
        self.differing_passes = 0

    def run_pass(self):
        rows = self.label(self.rows_per_pass, _PASS)
        if self.first is None:
            self.first = rows
        elif not _same_rows(rows, self.first):
            self.differing_passes += 1
        return len(rows) + rows.solver_failures, rows.solver_failures

    def check(self):
        """Re-solve the first feasible rows and verify each solution from
        scratch against its label."""
        config, rows = self.config, self.first
        network = config.network
        channel = pipeline.make_channel(config)
        m = network.num_rrhs
        sample = np.flatnonzero(rows.feasible)[:self.check_rows]
        errors = [] if len(sample) else ["no feasible row was labelled"]
        if self.differing_passes:
            errors.append(f"{self.differing_passes} passes labelled other rows "
                          "than the first")
        for i in sample:
            iota, _ = beamform.sinr_targets(rows.features[i, m:], network)
            problem = beamform.BeamformingProblem.from_state(
                channel, rows.features[i, :m] > 0.5, iota, network)
            solution = beamform.solve_beamforming(problem, config.solver)
            if not solution.feasible:
                errors.append(f"row {i}: re-solve says {solution.status.value}")
                continue
            report = beamform.verify_solution(solution, problem)
            if not (report.tight and report.caps_ok and report.power_consistent):
                errors.append(f"row {i}: tight={report.tight} caps_ok="
                              f"{report.caps_ok} power_consistent="
                              f"{report.power_consistent}")
            if not math.isclose(solution.total_tx_w, rows.tx_power_w[i],
                                rel_tol=1e-9):
                errors.append(f"row {i}: re-solved {solution.total_tx_w!r} W, "
                              f"labelled {float(rows.tx_power_w[i])!r} W")
        return errors

    def figures(self, pass_s):
        return {"rows_per_s": (len(self.first) / pass_s, "1/s"),
                "feasible_frac": (float(np.mean(self.first.feasible)), "1")}


class Pretrain(Workload):
    """Offline DQN pre-training with exact-solver rewards through
    `pipeline.train_offline`, a fixed number of episodes per pass. The
    surrogate it also fits is a throwaway: one round on a small labelled
    set, so its fit costs nothing and its quality is not asked for."""

    name = "pretrain"
    op = "env steps"
    # At least batch_size episodes, so every pass makes a training step.
    episodes_per_pass = 64
    labelled_rows = 300

    def setup(self):
        config = self.load_config(_PASS)
        self.config = dataclasses.replace(
            config, offline_episodes=self.episodes_per_pass,
            gbdt=dataclasses.replace(config.gbdt, num_rounds=1),
            r2_floor=-math.inf)
        self.dataset = self.label(self.labelled_rows, _SETUP)
        self.outcomes = []

    def run_pass(self):
        _, summary = pipeline.train_offline(self.config, dataset=self.dataset)
        self.outcomes.append((summary["dqn"]["steps"], summary["dqn"]["final_loss"]))
        return self.outcomes[-1][0], 0

    def check(self):
        """The final loss is finite, and every pass, a rerun with the same
        seeds, takes the same number of steps to the same loss."""
        steps, loss = self.outcomes[0]
        errors = [] if math.isfinite(loss) else [f"final loss {loss!r} is not finite"]
        errors += [f"pass {k} took {again[0]} steps to loss {again[1]!r}, "
                   f"the first {steps} steps to {loss!r}"
                   for k, again in enumerate(self.outcomes) if again != (steps, loss)]
        return errors

    def figures(self, pass_s):
        steps = self.outcomes[0][0]
        return {"steps_per_s": (steps / pass_s, "1/s"),
                "steps_per_episode": (steps / self.episodes_per_pass, "1")}


class Fit(Workload):
    """The surrogate pair fit through `gbdt.train`: a regressor on feasible
    rows' transmit power and a feasibility classifier on all rows, with the
    config's tree params. A pass fits a tenth of the config's rounds, so
    that passes are short enough to time between reference loops."""

    name = "fit"
    op = "trees"
    round_share = 10

    def setup(self):
        self.config = self.load_config(_SETUP)
        self.params = dataclasses.replace(
            self.config.gbdt, num_rounds=self.config.gbdt.num_rounds // self.round_share)
        (self.regression, self.regression_holdout,
         self.flags, self.flags_holdout) = self.surrogate_sets(self.surrogate_rows(_PASS))
        self.models = None
        self.reference = None
        self.short_passes = 0
        self.differing_passes = 0

    def holdout_predictions(self, models):
        return [gbdt.predict_batch(model, data.features)
                for model, data in zip(models, (self.regression_holdout,
                                                self.flags_holdout))]

    def run_pass(self):
        params = self.params
        models = (gbdt.train(self.regression, params), gbdt.train(self.flags, params))
        trees = sum(len(model.trees) for model in models)
        if any(len(model.trees) != params.num_rounds for model in models):
            self.short_passes += 1
        # Only the first pair is kept; later ones are compared with it on the
        # held-out rows, which takes under 1% of a pass.
        if self.models is None:
            self.models = models
            self.reference = self.holdout_predictions(models)
        elif not all(np.array_equal(p, r) for p, r in
                     zip(self.holdout_predictions(models), self.reference)):
            self.differing_passes += 1
        return trees, 0

    def check(self):
        """Each model has every round; single-row and batch prediction agree
        bit for bit; every pass's refit predicts exactly like the first."""
        errors = []
        holdouts = (self.regression_holdout, self.flags_holdout)
        for model, data, batch in zip(self.models, holdouts, self.reference):
            single = np.array([gbdt.predict(model, x) for x in data.features])
            if not np.array_equal(single, batch):
                errors.append("single-row and batch predictions differ by up to "
                              f"{float(np.max(np.abs(single - batch)))!r}")
        if self.short_passes:
            errors.append(f"{self.short_passes} passes fitted a model without "
                          f"all {self.params.num_rounds} trees")
        if self.differing_passes:
            errors.append(f"{self.differing_passes} passes' refits predict "
                          "differently from the first")
        if not math.isfinite(self.holdout_r2()):
            errors.append(f"held-out R^2 {self.holdout_r2()!r} is not finite")
        return errors

    def holdout_r2(self) -> float:
        return gbdt.evaluate(self.models[0], self.regression_holdout)["r2"]

    def figures(self, pass_s):
        accuracy = float(np.mean((self.reference[1] >= 0.5)
                                 == (self.flags_holdout.targets >= 0.5)))
        return {"fit_s": (pass_s, "s"),
                "holdout_r2": (self.holdout_r2(), "1"),
                "flag_holdout_accuracy": (accuracy, "1")}


class Online(Workload):
    """Greedy DQN-GBDT control with tuning through `pipeline.run_online`.
    Preparation, done once, labels as many rows as the `fit` workload and
    fits the surrogate pair on them with the config's params, all of its
    rounds. Each set-up then pre-trains
    the Q-network briefly with exact-solver rewards through
    `pipeline.train_offline`, which also fits a throwaway one-round
    surrogate, and swaps in the prepared pair."""

    name = "online"
    op = "slots"
    pretrain_episodes = 30
    slots_per_pass = 300

    def prepare(self):
        self.config = self.load_config(_SETUP, offline_episodes=self.pretrain_episodes)
        self.dataset = self.surrogate_rows(_SETUP)
        regression, self.regression_holdout, flags, _ = self.surrogate_sets(
            self.dataset)
        self.surrogate = (gbdt.train(regression, self.config.gbdt),
                          gbdt.train(flags, self.config.gbdt))

    def setup(self):
        config = dataclasses.replace(
            self.config, gbdt=dataclasses.replace(self.config.gbdt, num_rounds=1),
            r2_floor=-math.inf)
        artifacts, _ = pipeline.train_offline(config, dataset=self.dataset)
        self.artifacts = dataclasses.replace(
            artifacts, gbdt_model=self.surrogate[0], feasibility_model=self.surrogate[1])
        self.instants = []

    def run_pass(self):
        report = pipeline.run_online(self.config, self.artifacts, self.slots_per_pass,
                                     scheme=pipeline.SCHEME_DQN_GBDT, tuning=True)
        self.instants.append(report.instant_w)
        return len(report.instant_w), 0

    def check(self):
        """Every slot's ground-truth power is finite and at most P_UB, and
        every pass reproduces the first slot for slot."""
        p_ub = p_upper_bound(self.config.network)
        first = self.instants[0]
        errors = []
        if not (np.all(np.isfinite(first)) and np.all(first <= p_ub)):
            errors.append(f"instant power up to {float(np.max(first))!r} W over P_UB "
                          f"{p_ub!r} W, or not finite")
        errors += [f"pass {k} differs from the first"
                   for k, w in enumerate(self.instants) if not np.array_equal(w, first)]
        if not math.isfinite(self.average_power_w()):
            errors.append(f"average power {self.average_power_w()!r} W is not finite")
        return errors

    def average_power_w(self) -> float:
        return float(np.mean(self.instants[0]))

    def figures(self, pass_s):
        return {"slots_per_s": (self.slots_per_pass / pass_s, "1/s"),
                "avg_power_w": (self.average_power_w(), "W"),
                "holdout_r2": (gbdt.evaluate(self.surrogate[0],
                                             self.regression_holdout)["r2"], "1")}


WORKLOADS = {work.name: work for work in (Label, Pretrain, Fit, Online)}
