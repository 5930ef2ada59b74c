"""Experiment orchestration: dataset comparisons and federated/centralized runs.

Generates seeded training scenarios and one disjoint held-out scenario,
builds the requested dataset variants, trains the model centrally or over
federated averaging, evaluates correctness ratios on the held-out run, and
writes the report and auto-label-rate files.
"""

from __future__ import annotations

import csv
import re
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Annotated

import numpy as np

from . import fed, labeling, mapping, metrics, model as mdl, plates, scenario
from .labeling import DatasetMode
from .records import Rule, check


@dataclass(frozen=True)
class ExperimentConfig:
    train_seeds: tuple[Annotated[int, Rule("at least", 0)], ...] = (101, 102, 103, 104)
    eval_seed: Annotated[int, Rule("at least", 0)] = 201
    world: scenario.WorldConfig = field(default_factory=lambda: scenario.WorldConfig(
        seed=0, num_vehicles=40, duration=300.0, weather="light_haze"))
    dataset_modes: tuple[DatasetMode, ...] = (DatasetMode.AL, DatasetMode.ALDA, DatasetMode.MANUAL)
    training_modes: tuple[str, ...] = ("central",)
    epochs: Annotated[int, fed.COUNT_RULE] = 60
    rounds: Annotated[int, fed.COUNT_RULE] = 30
    local_epochs: Annotated[int, fed.COUNT_RULE] = 2
    model_cfg: mdl.ModelConfig = field(default_factory=mdl.ModelConfig)
    opt_cfg: mdl.OptConfig = field(default_factory=mdl.OptConfig)
    mapping_cfg: mapping.MappingConfig = field(default_factory=mapping.MappingConfig)
    train_seed: Annotated[int, Rule("at least", 0)] = 7

    def __post_init__(self):
        check(self)
        if self.eval_seed in self.train_seeds:
            raise ValueError(f"eval seed {self.eval_seed} overlaps the training seeds "
                             f"{self.train_seeds}")
        for training_mode in self.training_modes:
            federated_clients(training_mode)


def federated_clients(training_mode: str) -> int | None:
    """The client count of a training mode: None for "central", n for
    "federated-n" (n >= 1, no leading zero). Any other mode raises ValueError."""
    if training_mode == "central":
        return None
    if not (match := re.fullmatch(r"federated-([1-9][0-9]*)", training_mode)):
        raise ValueError(f"unknown training mode {training_mode!r} (central or federated-N, N >= 1)")
    return int(match[1])


def simulate_and_label(world: scenario.WorldConfig, seed: int,
                       cct: plates.ConversionTable | None = None,
                       ) -> tuple[scenario.ScenarioState, labeling.LabeledRun]:
    cct = cct if cct is not None else plates.default_conversion_table()
    cfg = replace(world, seed=seed)
    state, observations = scenario.run_scenario(cfg, cct=cct)
    run = labeling.label_run(observations, cct, cfg)
    return state, run


def _tick_blocks(observations):
    """Consecutive ticks and their sorted sender ids, in blocks closed by the
    tick that brings them to `model.EVAL_ROWS` senders; each with its sender count."""
    block, rows = [], 0
    for obs in observations:
        block.append((obs, ids := sorted(m.id for m in obs.messages)))
        if (rows := rows + len(ids)) >= mdl.EVAL_ROWS:
            yield block, rows
            block, rows = [], 0
    if block:
        yield block, rows


def predict_run(params: mdl.ModelParams, run: labeling.LabeledRun,
                mcfg: mapping.MappingConfig) -> list[metrics.TickPrediction]:
    """Model-only pairing over a labeled run, with the decided box of each tick
    fed back as the next tick's feedback input; zeros for an unmapped sender.
    The feedback enters only at the output layer, so the hidden stack runs once
    per block of ticks, and once alone for a one-row tick (the row rule of
    `fedvid.model`); only the output layer and the mapping go tick by tick."""
    preds: list[metrics.TickPrediction] = []
    prev_feedback: dict[int, tuple[float, ...]] = {}
    zeros = (0.0,) * mdl.FEEDBACK_DIM
    one_row = mdl.Workspace(params, 1, keep_layers=False)
    for block, rows in _tick_blocks(run.observations):
        if rows:
            X = [labeling.feature_for(run, i, obs.t)[0] for obs, ids in block for i in ids]
            ws = mdl.hidden_stack(params, X, mdl.Workspace(params, rows, keep_layers=False))
        start = 0
        for obs, ids in block:
            pairs, entries = [], {}
            if ids:
                h_cat = ws.h_cat[start:start + len(ids)]
                if len(ids) == 1 < rows:
                    h_cat = mdl.hidden_stack(params, ws.x[start:start + 1], one_row).h_cat
                start += len(ids)
                y = mdl.output_layer(params, h_cat, [prev_feedback.get(i, zeros) for i in ids])
                boxes = [b.bb_norm for b in obs.front_boxes]
                pairs = mapping.decide_mapping(ids, y, boxes, mcfg).pairs
                mapped = dict(pairs)
                entries = {m: (inside, mapped.get(m)) for m, inside in zip(ids, y[:, 4].tolist())}
            prev_feedback = {m: obs.front_boxes[j].bb_norm for m, j in pairs}
            preds.append(metrics.TickPrediction(t=obs.t, entries=entries))
    return preds


def evaluate_model(params: mdl.ModelParams, run: labeling.LabeledRun,
                   mcfg: mapping.MappingConfig) -> metrics.MetricsReport:
    preds = predict_run(params, run, mcfg)
    truths = [(obs.t, obs.truth_pairs) for obs in run.observations]
    return metrics.compute_cr(preds, truths, threshold_inside=mcfg.threshold_inside)


def autolabel_rates(state: scenario.ScenarioState, run: labeling.LabeledRun,
                    cct: plates.ConversionTable) -> tuple[float, float]:
    """Fraction of in-image senders auto-paired, with and without the
    character-conversion step, over the same reads of the same run.

    The with-conversion rate counts the front pairs that `run` already holds,
    so it reflects the conversion table that labelled `run`; `cct` is never
    read. The without-conversion baseline matches raw reads against the raw
    plates of the simulated senders (exact string matching).
    """
    raw_ids = {v.plate: v.id for v in state.vehicles}
    inside = 0
    matched_with = 0
    matched_without = 0
    for obs, lab in zip(run.observations, run.labels):
        truth = obs.truth_pairs
        sender_ids = set(truth)
        inside += sum(1 for v in truth.values() if v != scenario.OUTSIDE)
        matched_with += len(lab.front)
        matched_without += sum(raw_ids.get(box.plate_read) in sender_ids
                               for box in obs.front_boxes)
    if inside == 0:
        return 0.0, 0.0
    return matched_with / inside, matched_without / inside


def init_params(cfg: ExperimentConfig, input_dim: int) -> mdl.ModelParams:
    """The initial model of a session seeded with `cfg.train_seed`, for
    feature rows `input_dim` wide."""
    return mdl.init_model(replace(cfg.model_cfg, input_dim=input_dim),
                          np.random.default_rng(cfg.train_seed))


def train_central(arrays: labeling.TrainingArrays, cfg: ExperimentConfig) -> mdl.ModelParams:
    trainer = mdl.Trainer(init_params(cfg, arrays.X.shape[1]), cfg.opt_cfg, cfg.train_seed)
    trainer.run_epochs(arrays, cfg.epochs)
    return trainer.params


def split_shards(arrays: labeling.TrainingArrays, n: int) -> list[labeling.TrainingArrays]:
    """Disjoint round-robin shards of a training array set."""
    return [labeling.TrainingArrays(*(a[i::n].copy() for a in vars(arrays).values()))
            for i in range(n)]


def client_seed(train_seed: int, client_id: int) -> int:
    """Training seed of federated client `client_id` (ids count from 1) in a
    session seeded with `train_seed`."""
    return train_seed + 1000 * client_id


def train_federated(arrays: labeling.TrainingArrays, n_clients: int, cfg: ExperimentConfig,
                    eval_dataset=None):
    params0 = init_params(cfg, arrays.X.shape[1])
    shards = split_shards(arrays, n_clients)
    seeds = [client_seed(cfg.train_seed, i + 1) for i in range(n_clients)]
    return fed.train_federated_tcp(
        shards, params0, cfg.opt_cfg, rounds=cfg.rounds, seeds=seeds,
        local_epochs=cfg.local_epochs, eval_dataset=eval_dataset,
    )


REPORT_COLUMNS = ["dataset", "training_mode", *(f.name for f in fields(metrics.MetricsReport))]
AUTOLABEL_COLUMNS = ["scenario_seed", "rate_with_conversion", "rate_without_conversion"]


def write_report(path, rows: list[dict], columns: list[str]) -> None:
    """Write report rows as CSV with CRLF line ends, floats to 6 decimals;
    keys outside `columns` are left out."""
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=columns, extrasaction="ignore")
        w.writeheader()
        w.writerows({k: (f"{v:.6f}" if isinstance(v, float) else v) for k, v in row.items()}
                    for row in rows)


def run_experiment(cfg: ExperimentConfig, out_dir) -> list[dict]:
    """Full comparison: per (dataset mode x training mode), train on the
    training scenarios and evaluate on the held-out scenario. Writes
    report.csv and autolabel.csv; returns the report rows."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cct = plates.default_conversion_table()

    train_runs = []
    autolabel_rows = []
    for seed in cfg.train_seeds:
        state, run = simulate_and_label(cfg.world, seed, cct)
        train_runs.append(run)
        autolabel_rows.append(dict(zip(AUTOLABEL_COLUMNS,
                                       (seed, *autolabel_rates(state, run, cct)))))
    _, eval_run = simulate_and_label(cfg.world, cfg.eval_seed, cct)

    rows = []
    for mode in cfg.dataset_modes:
        examples = []
        for run in train_runs:
            examples.extend(labeling.assemble_dataset(run, mode))
        arrays = labeling.to_arrays(examples)
        for training_mode in cfg.training_modes:
            if (n := federated_clients(training_mode)) is None:
                params = train_central(arrays, cfg)
            else:
                params, _, _, _ = train_federated(arrays, n, cfg)
            report = evaluate_model(params, eval_run, cfg.mapping_cfg)
            rows.append({"dataset": mode.value, "training_mode": training_mode,
                         "n_examples": arrays.X.shape[0], **asdict(report)})

    write_report(out / "report.csv", rows, REPORT_COLUMNS)
    write_report(out / "autolabel.csv", autolabel_rows, AUTOLABEL_COLUMNS)
    return rows
