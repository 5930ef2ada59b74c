"""Experiment orchestration: dataset comparisons and federated/centralized runs.

Generates seeded training scenarios and one disjoint held-out scenario,
builds the requested dataset variants, trains the model centrally or over
federated averaging, evaluates correctness ratios on the held-out run, and
writes the report and auto-label-rate files.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import fed, labeling, mapping, metrics, model as mdl, plates, scenario
from .labeling import DatasetMode


@dataclass(frozen=True)
class ExperimentConfig:
    train_seeds: tuple[int, ...] = (101, 102, 103, 104)
    eval_seed: int = 201
    world: scenario.WorldConfig = field(default_factory=lambda: scenario.WorldConfig(
        seed=0, num_vehicles=40, duration=300.0, weather="light_haze"))
    dataset_modes: tuple[DatasetMode, ...] = (DatasetMode.AL, DatasetMode.ALDA, DatasetMode.MANUAL)
    training_modes: tuple[str, ...] = ("central",)
    epochs: int = 60
    rounds: int = 30
    local_epochs: int = 2
    model_cfg: mdl.ModelConfig = field(default_factory=mdl.ModelConfig)
    opt_cfg: mdl.OptConfig = field(default_factory=mdl.OptConfig)
    mapping_cfg: mapping.MappingConfig = field(default_factory=mapping.MappingConfig)
    train_seed: int = 7

    def __post_init__(self):
        if self.eval_seed in self.train_seeds:
            raise ValueError(
                f"eval seed {self.eval_seed} overlaps the training seeds {self.train_seeds}"
            )


def simulate_and_label(world: scenario.WorldConfig, seed: int,
                       cct: plates.ConversionTable | None = None,
                       ) -> tuple[scenario.ScenarioState, labeling.LabeledRun]:
    cct = cct if cct is not None else plates.default_conversion_table()
    cfg = replace(world, seed=seed)
    state, observations = scenario.run_scenario(cfg, cct=cct)
    run = labeling.label_run(observations, cct, cfg)
    return state, run


def predict_run(params: mdl.ModelParams, run: labeling.LabeledRun,
                mcfg: mapping.MappingConfig) -> list[metrics.TickPrediction]:
    """Model-only pairing over a labeled run, with the decided box of each tick
    fed back as the next tick's feedback input; zeros for an unmapped sender."""
    preds: list[metrics.TickPrediction] = []
    prev_feedback: dict[int, tuple[float, ...]] = {}
    for obs in run.observations:
        msgs = sorted(obs.messages, key=lambda m: m.id)
        ids = [m.id for m in msgs]
        pairs, entries = [], {}
        if msgs:
            X = np.array([labeling.feature_for(run, m, obs.t)[0] for m in msgs])
            FB = np.array([prev_feedback.get(i, (0.0,) * 4) for i in ids], dtype=float)
            y, _ = mdl.forward_batch(params, X, FB, training=False)
            boxes = [b.bb_norm for b in obs.front_boxes]
            pairs = mapping.decide_mapping(ids, y, boxes, mcfg).pairs
            mapped = dict(pairs)
            entries = {m: (float(y[i, 4]), mapped.get(m)) for i, m in enumerate(ids)}
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

    The without-conversion baseline hashes raw reads and matches them against
    the raw plates of the simulated senders (exact matching).
    """
    raw_ids = {
        plates.canonical_plate_id(v.plate, plates.EMPTY_CONVERSION): v.id
        for v in state.vehicles
    }
    inside = 0
    matched_with = 0
    matched_without = 0
    for obs, lab in zip(run.observations, run.labels):
        sender_ids = set(obs.truth_pairs)
        inside += sum(1 for v in obs.truth_pairs.values() if v != scenario.OUTSIDE)
        matched_with += len(lab.front)
        for box in obs.front_boxes:
            if box.plate_read is None:
                continue
            rid = plates.canonical_plate_id(box.plate_read, plates.EMPTY_CONVERSION)
            sender = raw_ids.get(rid)
            if sender is not None and sender in sender_ids:
                matched_without += 1
    if inside == 0:
        return 0.0, 0.0
    return matched_with / inside, matched_without / inside


def train_central(arrays: labeling.TrainingArrays, cfg: ExperimentConfig) -> mdl.ModelParams:
    params = mdl.init_model(cfg.model_cfg, np.random.default_rng(cfg.train_seed))
    trainer = mdl.Trainer(params, cfg.opt_cfg, cfg.train_seed)
    trainer.run_epochs(arrays, cfg.epochs)
    return trainer.params


def split_shards(arrays: labeling.TrainingArrays, n: int) -> list[labeling.TrainingArrays]:
    """Disjoint round-robin shards of a training array set."""
    shards = []
    for i in range(n):
        sel = slice(i, None, n)
        shards.append(labeling.TrainingArrays(
            X=arrays.X[sel].copy(), FB=arrays.FB[sel].copy(), Y=arrays.Y[sel].copy()))
    return shards


def train_federated(arrays: labeling.TrainingArrays, n_clients: int, cfg: ExperimentConfig,
                    eval_dataset=None):
    params0 = mdl.init_model(cfg.model_cfg, np.random.default_rng(cfg.train_seed))
    shards = split_shards(arrays, n_clients)
    seeds = [cfg.train_seed + 1000 * (i + 1) for i in range(n_clients)]
    return fed.train_federated_tcp(
        shards, params0, cfg.opt_cfg, rounds=cfg.rounds, seeds=seeds,
        local_epochs=cfg.local_epochs, eval_dataset=eval_dataset,
    )


REPORT_COLUMNS = ["dataset", "training_mode", *(f.name for f in fields(metrics.MetricsReport))]


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
        with_rate, without_rate = autolabel_rates(state, run, cct)
        autolabel_rows.append({
            "scenario_seed": seed,
            "rate_with_conversion": f"{with_rate:.6f}",
            "rate_without_conversion": f"{without_rate:.6f}",
        })
    _, eval_run = simulate_and_label(cfg.world, cfg.eval_seed, cct)

    rows = []
    for mode in cfg.dataset_modes:
        examples = []
        for run in train_runs:
            examples.extend(labeling.assemble_dataset(run, mode))
        arrays = labeling.to_arrays(examples)
        for training_mode in cfg.training_modes:
            if training_mode == "central":
                params = train_central(arrays, cfg)
            elif training_mode.startswith("federated-"):
                n = int(training_mode.split("-", 1)[1])
                params, _, _, _ = train_federated(arrays, n, cfg)
            else:
                raise ValueError(f"unknown training mode {training_mode!r}")
            report = evaluate_model(params, eval_run, cfg.mapping_cfg)
            rows.append({"dataset": mode.value, "training_mode": training_mode,
                         "n_examples": arrays.X.shape[0], **asdict(report)})

    write_report(out / "report.csv", rows, REPORT_COLUMNS)
    with open(out / "autolabel.csv", "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=["scenario_seed", "rate_with_conversion",
                                          "rate_without_conversion"])
        w.writeheader()
        w.writerows(autolabel_rows)
    return rows
