"""Per-layer tracing of fedvid from outside the package.

`Tracer.install()` replaces public attributes of the fedvid modules with
wrappers that record spans (name, start, end, parent, thread id, run id) in
memory, and `Tracer.restore()` puts the originals back. Each attribute is
wrapped where its callers look it up: `fed` binds `encode_params =
model.params_to_bytes` at import, so the wire path is traced through
`fed.encode_params`, not through `model.params_to_bytes`. The hot scalar
helpers get count-only wrappers, because a span costs more than their body.

Nothing in `src/` is modified; the harness installs the wrappers only around
the repetitions it traces.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORLD, TRAIN, FED = "world", "train", "fed"


def _forward_name(args, kwargs) -> str:
    training = kwargs.get("training", args[3] if len(args) > 3 else False)
    return "model.forward_batch.train" if training else "model.forward_batch.eval"


def _count_tick(counts, args, kwargs, obs) -> None:
    counts["scenario.messages"] += len(obs.messages)
    counts["scenario.front_boxes"] += len(obs.front_boxes)


def _count_labels(counts, args, kwargs, run) -> None:
    for lab in run.labels:
        counts["labeling.pairs_front"] += len(lab.front)
        counts["labeling.pairs_rear"] += len(lab.rear)
        counts["labeling.outside"] += len(lab.outside)


def _count_examples(counts, args, kwargs, examples) -> None:
    counts["labeling.examples"] += len(examples)


def _count_pairs(counts, args, kwargs, result) -> None:
    counts["mapping.pairs"] += len(result.pairs)


def _count_cells(counts, args, kwargs, table) -> None:
    counts["mapping.table_cells"] += table.scores.size


def _count_wire(counts, args, kwargs, result) -> None:
    shards = args[0] if args else kwargs["shards"]
    _, records, transcript, _ = result
    counts["fed.frames"] += len(transcript)
    # transcript lines are "<send|recv> <frame>"; the frame went out with a newline
    counts["fed.wire_bytes"] += sum(len(line.split(" ", 1)[1]) + 1 for line in transcript)
    counts["fed.dropped"] += sum(len(shards) - len(r.participants) for r in records)


@dataclass(frozen=True)
class Target:
    """One wrapped attribute: `owner` is a module path, `attr` may be dotted
    (`Adam.step`) to reach a class attribute."""

    owner: str
    attr: str
    name: str | Callable
    count_only: bool = False
    on_result: Callable | None = None


TARGETS = (
    Target("fedvid.scenario", "simulate_tick", "scenario.simulate_tick", on_result=_count_tick),
    Target("fedvid.scenario", "detect_vehicles", "scenario.detect_vehicles"),
    Target("fedvid.geo", "haversine_m", "geo.haversine_m", count_only=True),
    Target("fedvid.plates", "sample_ocr", "plates.sample_ocr"),
    Target("fedvid.plates", "canonical_plate_id", "plates.canonical_plate_id"),
    Target("fedvid.labeling", "label_run", "labeling.label_run", on_result=_count_labels),
    Target("fedvid.labeling", "auto_label_frame", "labeling.auto_label_frame"),
    Target("fedvid.labeling", "build_outside_set", "labeling.build_outside_set"),
    Target("fedvid.labeling", "assemble_dataset", "labeling.assemble_dataset",
           on_result=_count_examples),
    Target("fedvid.labeling", "to_arrays", "labeling.to_arrays"),
    Target("fedvid.labeling", "feature_for", "labeling.feature_for"),
    Target("fedvid.features", "build_feature_vector", "features.build_feature_vector"),
    Target("fedvid.features", "latlng_delta_norm", "features.latlng_delta_norm", count_only=True),
    Target("fedvid.model", "forward_batch", _forward_name),
    Target("fedvid.model", "backward_batch", "model.backward_batch"),
    Target("fedvid.model", "Adam.step", "model.Adam.step"),
    Target("fedvid.fed", "encode_params", "model.params_to_bytes"),
    Target("fedvid.fed", "decode_params", "model.params_from_bytes"),
    Target("fedvid.mapping", "decide_mapping", "mapping.decide_mapping", on_result=_count_pairs),
    Target("fedvid.mapping", "build_score_table", "mapping.build_score_table",
           count_only=True, on_result=_count_cells),
    Target("fedvid.experiment", "predict_run", "experiment.predict_run"),
    Target("fedvid.metrics", "compute_cr", "metrics.compute_cr"),
    Target("fedvid.fed", "FedServer._run_tcp_round", "fed.round"),
    Target("fedvid.fed", "local_train", "fed.local_train"),
    Target("fedvid.fed", "params_b64", "fed.params_b64"),
    Target("fedvid.fed", "params_from_b64", "fed.params_from_b64"),
    Target("fedvid.fed", "fed_avg", "fed.fed_avg"),
    Target("fedvid.fed", "params_digest", "fed.params_digest"),
    Target("fedvid.fed", "train_federated_tcp", "fed.train_federated_tcp", on_result=_count_wire),
)

# Span or counter name -> the workloads whose timed phase must call it. A
# wrapped function that reads 0 calls on one of these fails the run: it was
# renamed, re-bound or routed around, and its metrics would silently read 0.
REQUIRED_CALLS = {
    "scenario.simulate_tick": (WORLD,),
    "scenario.detect_vehicles": (WORLD,),
    "geo.haversine_m": (WORLD,),
    "plates.sample_ocr": (WORLD,),
    "plates.canonical_plate_id": (WORLD,),
    "labeling.label_run": (WORLD,),
    "labeling.auto_label_frame": (WORLD,),
    "labeling.build_outside_set": (WORLD,),
    "labeling.assemble_dataset": (WORLD,),
    "labeling.to_arrays": (WORLD,),
    "labeling.feature_for": (WORLD, TRAIN),
    "features.build_feature_vector": (WORLD, TRAIN),
    "features.latlng_delta_norm": (WORLD, TRAIN),
    "model.forward_batch.eval": (WORLD, TRAIN, FED),
    "model.forward_batch.train": (TRAIN, FED),
    "model.backward_batch": (TRAIN, FED),
    "model.Adam.step": (TRAIN, FED),
    "model.params_to_bytes": (TRAIN, FED),
    "model.params_from_bytes": (FED,),
    "mapping.decide_mapping": (WORLD, TRAIN, FED),
    "mapping.build_score_table": (WORLD, TRAIN, FED),
    "experiment.predict_run": (WORLD, TRAIN, FED),
    "metrics.compute_cr": (WORLD, TRAIN, FED),
    "fed.round": (FED,),
    "fed.local_train": (FED,),
    "fed.params_b64": (FED,),
    "fed.params_from_b64": (FED,),
    "fed.fed_avg": (FED,),
    "fed.params_digest": (TRAIN, FED),
    "fed.train_federated_tcp": (FED,),
}


class Tracer:
    """In-memory span and counter store plus the patches that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent id, name, start, end, thread id, run id)
        self.counts: Counter = Counter()
        self.run_id = ""
        self.problems: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, fn, target: Target):
        namer = target.name if callable(target.name) else (lambda a, k, n=target.name: n)
        on_result = target.on_result
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, namer(args, kwargs), start, end,
                                   threading.get_ident(), self.run_id))
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, target: Target):
        key = f"{target.name}.calls"
        on_result = target.on_result
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target; a target that cannot be found is recorded as a
        problem and skipped."""
        for target in TARGETS:
            try:
                owner = importlib.import_module(target.owner)
                *path, attr = target.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError) as exc:
                self.problems.add(f"cannot wrap {target.owner}.{target.attr}: {exc}")
                continue
            make = self._count_wrapper if target.count_only else self._span_wrapper
            setattr(owner, attr, make(original, target))
            self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def begin_unit(self, run_id: str) -> tuple[int, Counter]:
        """Start a traced repetition; returns the marks `unit_metrics` needs."""
        self.run_id = run_id
        return len(self.spans), Counter(self.counts)

    def unit_metrics(self, mark: tuple[int, Counter]) -> dict[str, float]:
        """Per-layer values of the spans and counts recorded since `mark`."""
        first, counts_before = mark
        spans = self.spans[first:]
        out: dict[str, float] = dict(self.counts - counts_before)

        child_s: dict[int, float] = defaultdict(float)
        for sid, parent, _, start, end, _, _ in spans:
            child_s[parent] += end - start
        durations: dict[str, list[float]] = defaultdict(list)
        self_s: dict[str, float] = defaultdict(float)
        for sid, _, name, start, end, _, _ in spans:
            durations[name].append(end - start)
            self_s[name] += end - start - child_s.get(sid, 0.0)
        for name, ds in durations.items():
            out[f"{name}.calls"] = len(ds)
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.s"] = sum(ds)
            ms = np.asarray(ds) * 1e3
            for q in (50, 80, 99):
                out[f"{name}.ms_p{q}"] = float(np.percentile(ms, q))

        step_ms = _train_step_ms(spans)
        if step_ms:
            out["model.train_step.ms_p50"] = float(np.percentile(step_ms, 50))
            out["model.train_step.ms_p99"] = float(np.percentile(step_ms, 99))
        out["model.steps"] = out.get("model.Adam.step.calls", 0)
        # the server thread runs each round; its self time is what it spent
        # outside encode, decode, aggregation and digest: waiting on clients
        out["fed.server_wait_s"] = self_s.get("fed.round", 0.0)
        return out

    def missing_calls(self, workload: str, values: dict[str, float]) -> list[str]:
        return [f"{name} recorded 0 calls on {workload}"
                for name, workloads in REQUIRED_CALLS.items()
                if workload in workloads and not values.get(f"{name}.calls")]


def _train_step_ms(spans) -> list[float]:
    """One train step runs from a training forward to the Adam step that
    follows it on the same thread."""
    open_at: dict[int, float] = {}
    steps = []
    for _, _, name, start, end, tid, _ in sorted(spans, key=lambda s: s[3]):
        if name == "model.forward_batch.train":
            open_at[tid] = start
        elif name == "model.Adam.step" and tid in open_at:
            steps.append((end - open_at.pop(tid)) * 1e3)
    return steps
