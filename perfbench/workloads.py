"""The three fedvid benchmark workloads.

Each workload is a closed loop in one process. `setup()` builds its inputs
and returns a checksum of what it built; `unit()` runs one repetition of the
timed work through fedvid's public functions and returns what it produced.
Every repetition in one invocation must produce the same outputs, so the
harness compares them.

All worlds use the acceptance config (40 vehicles, 300 s, light haze), and
`heldout_loss` is always measured on the ALDA set of the acceptance eval
world, so that its value depends on the model alone.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from fedvid import experiment, fed, labeling, metrics, model as mdl, plates, scenario
from fedvid.labeling import DatasetMode

ACCEPTANCE = experiment.ExperimentConfig(world=scenario.WorldConfig(
    seed=0, num_vehicles=40, duration=300.0, weather="light_haze"))
# about 25 messages per tick against 5 on the acceptance world; shorter, so
# that a dense world costs about as much as a sparse one
DENSE_WORLD = replace(ACCEPTANCE.world, num_vehicles=100, comm_range=100.0, duration=60.0)

WORLD_PAIRS = 4           # sparse/dense world pairs per repetition
WORLD_SETUP_EPOCHS = 8    # brief training of the model the world workload evaluates
TRAIN_EPOCHS = 12
FED_CLIENTS = 2
FED_ROUNDS = 50           # the fewest that leave 10 rounds above the round p80


@dataclass
class UnitResult:
    items: int            # work the rate counts: ticks, examples or rounds
    core_s: float         # time of the phase the rate divides `items` by
    quality: dict         # cr_total, heldout_loss, autopair_rate
    outputs: dict         # checksums that must repeat exactly
    checks: dict = field(default_factory=dict)   # output check -> passed
    dropped: int = 0      # operations the program dropped without raising


def _derived_seeds(seed: int, tag: int, n: int) -> list[int]:
    """`n` distinct seeds for one workload, clear of the acceptance seeds."""
    rng = np.random.default_rng([seed, tag])
    return [int(s) for s in rng.choice(2**31 - 1000, size=n, replace=False) + 1000]


def _report_counts(report: metrics.MetricsReport) -> tuple[int, ...]:
    return (report.p_correctly, report.p_inside, report.p_outside,
            report.n_inside, report.n_outside)


def _acceptance_init() -> mdl.ModelParams:
    """The acceptance experiment's initial model. Training seeds change only
    the shuffle/dropout streams: a different init moves the held-out loss
    by more than the benchmark's bound allows."""
    return mdl.init_model(ACCEPTANCE.model_cfg, np.random.default_rng(ACCEPTANCE.train_seed))


def _alda(run: labeling.LabeledRun) -> labeling.TrainingArrays:
    return labeling.to_arrays(labeling.assemble_dataset(run, DatasetMode.ALDA))


class _Workload:
    """Shared setup: the acceptance eval world and labeled training worlds."""

    def _setup_eval(self) -> dict:
        self.cct = plates.default_conversion_table()
        _, self.eval_run = experiment.simulate_and_label(ACCEPTANCE.world, ACCEPTANCE.eval_seed,
                                                         self.cct)
        self.eval_arrays = _alda(self.eval_run)
        return {"eval_examples": self.eval_arrays.X.shape[0]}

    def _label_training_worlds(self, seeds) -> dict:
        arrays, rates = [], []
        for seed in seeds:
            state, run = experiment.simulate_and_label(ACCEPTANCE.world, seed, self.cct)
            arrays.append(_alda(run))
            rates.append(experiment.autolabel_rates(state, run, self.cct)[0])
        self.arrays = labeling.TrainingArrays(*(np.concatenate([getattr(a, k) for a in arrays])
                                                for k in ("X", "FB", "Y")))
        self.autopair = float(np.mean(rates))
        return {"examples": self.arrays.X.shape[0], "autopair": self.autopair}


class WorldWorkload(_Workload):
    """Simulate, label, assemble and evaluate seeded worlds, alternating the
    sparse acceptance world with a dense one. The model, trained briefly in
    setup with the acceptance training seed, runs only eval-mode forwards."""

    name = "world"
    item = "ticks"

    def __init__(self, seed: int):
        world_seeds = _derived_seeds(seed, 1, 2 * WORLD_PAIRS)
        self.worlds = [replace(DENSE_WORLD if i % 2 else ACCEPTANCE.world, seed=s)
                       for i, s in enumerate(world_seeds)]
        self.ops = len(self.worlds)

    def setup(self) -> dict:
        out = self._setup_eval()
        out.update(self._label_training_worlds(ACCEPTANCE.train_seeds[:1]))
        cfg = replace(ACCEPTANCE, epochs=WORLD_SETUP_EPOCHS)
        self.params = experiment.train_central(self.arrays, cfg)
        return {**out, "digest": fed.params_digest(self.params)}

    def unit(self) -> UnitResult:
        t0 = time.perf_counter()
        counts = np.zeros(5, dtype=np.int64)
        rates, per_world, checks = [], [], {}
        ticks = 0
        for cfg in self.worlds:
            state, run = experiment.simulate_and_label(cfg, cfg.seed, self.cct)
            examples = _alda(run).X.shape[0]
            report = experiment.evaluate_model(self.params, run, ACCEPTANCE.mapping_cfg)
            with_rate, _ = experiment.autolabel_rates(state, run, self.cct)
            rates.append(with_rate)
            counts += _report_counts(report)
            messages = sum(len(o.messages) for o in run.observations)
            boxes = sum(len(o.front_boxes) for o in run.observations)
            ticks += len(run.observations)
            per_world.append((len(run.observations), messages, boxes, examples,
                              _report_counts(report), with_rate))
            checks[f"world {cfg.seed}: {cfg.num_ticks()} ticks"] = (
                len(run.observations) == cfg.num_ticks())
            checks[f"world {cfg.seed}: one verdict per message"] = (
                report.n_inside + report.n_outside == messages)
        loss = mdl.mean_loss(self.params, self.eval_arrays)
        core_s = time.perf_counter() - t0
        report = metrics.MetricsReport.from_counts(*(int(c) for c in counts))
        checks["held-out loss finite"] = math.isfinite(loss)
        return UnitResult(
            items=ticks, core_s=core_s,
            quality={"cr_total": report.cr_total, "heldout_loss": loss,
                     "autopair_rate": float(np.mean(rates))},
            outputs={"worlds": per_world, "loss": loss},
            checks=checks,
        )


class TrainWorkload(_Workload):
    """Central training on the four acceptance training worlds, then an
    evaluation on the eval world. Simulation and labeling run only in setup.
    Every seed starts from the acceptance init; the workload seed drives the
    shuffle/dropout stream."""

    name = "train"
    item = "train_examples"

    def __init__(self, seed: int):
        self.stream_seed = _derived_seeds(seed, 2, 1)[0]
        self.ops = TRAIN_EPOCHS

    def setup(self) -> dict:
        return {**self._setup_eval(), **self._label_training_worlds(ACCEPTANCE.train_seeds)}

    def unit(self) -> UnitResult:
        trainer = mdl.Trainer(_acceptance_init(), ACCEPTANCE.opt_cfg, self.stream_seed)
        t0 = time.perf_counter()
        epoch_losses = trainer.run_epochs(self.arrays, TRAIN_EPOCHS)
        core_s = time.perf_counter() - t0
        report = experiment.evaluate_model(trainer.params, self.eval_run, ACCEPTANCE.mapping_cfg)
        loss = mdl.mean_loss(trainer.params, self.eval_arrays)
        return UnitResult(
            items=self.arrays.X.shape[0] * TRAIN_EPOCHS, core_s=core_s,
            quality={"cr_total": report.cr_total, "heldout_loss": loss,
                     "autopair_rate": self.autopair},
            outputs={"digest": fed.params_digest(trainer.params), "epoch_losses": epoch_losses,
                     "report": _report_counts(report), "loss": loss},
            checks={"training loss finite and falling": (
                        all(map(math.isfinite, epoch_losses))
                        and epoch_losses[-1] < epoch_losses[0]),
                    "held-out loss finite": math.isfinite(loss)},
        )


class FedWorkload(_Workload):
    """FedAvg over localhost TCP: two client threads train one local epoch
    per round on two shards of one acceptance training world's ALDA set, and
    the server evaluates the held-out loss every round. Every seed starts
    from the acceptance init; the workload seed drives the client streams."""

    name = "fed"
    item = "rounds"

    def __init__(self, seed: int):
        self.client_seeds = _derived_seeds(seed, 3, FED_CLIENTS)
        self.ops = FED_CLIENTS * FED_ROUNDS

    def setup(self) -> dict:
        out = {**self._setup_eval(), **self._label_training_worlds(ACCEPTANCE.train_seeds[:1])}
        self.shards = experiment.split_shards(self.arrays, FED_CLIENTS)
        return out

    def unit(self) -> UnitResult:
        threads_before = threading.active_count()
        t0 = time.perf_counter()
        params, records, transcript, losses = fed.train_federated_tcp(
            self.shards, _acceptance_init(), ACCEPTANCE.opt_cfg, rounds=FED_ROUNDS,
            seeds=self.client_seeds, local_epochs=1, eval_dataset=self.eval_arrays)
        core_s = time.perf_counter() - t0
        report = experiment.evaluate_model(params, self.eval_run, ACCEPTANCE.mapping_cfg)
        loss = mdl.mean_loss(params, self.eval_arrays)
        digest = fed.params_digest(params)
        full = list(range(1, FED_CLIENTS + 1))
        checks = {
            f"{FED_ROUNDS} rounds recorded": len(records) == FED_ROUNDS,
            "every round has every client": all(r.participants == full for r in records),
            "final digest matches the last round": bool(records) and records[-1].digest == digest,
            "held-out loss every round, finite and falling": (
                len(losses) == FED_ROUNDS and all(map(math.isfinite, losses))
                and losses[-1] < losses[0]),
            "client threads ended": threading.active_count() == threads_before,
        }
        return UnitResult(
            items=len(records), core_s=core_s,
            quality={"cr_total": report.cr_total, "heldout_loss": loss,
                     "autopair_rate": self.autopair},
            outputs={"digest": digest, "rounds": [r.digest for r in records],
                     "losses": losses, "report": _report_counts(report),
                     "frames": len(transcript)},
            checks=checks,
            dropped=sum(FED_CLIENTS - len(r.participants) for r in records),
        )


WORKLOADS = {w.name: w for w in (WorldWorkload, TrainWorkload, FedWorkload)}
