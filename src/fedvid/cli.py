"""Command-line interface.

Subcommands: gen (simulate a scenario to record files), label (build the
conversion table and a dataset from a recorded run), train (fit the model on
a dataset file), serve/client (federated server and participant), eval
(correctness ratios of a model on a scenario), and demo-tables (print and
self-check the worked conversion/score/confidence/mapping examples).
Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import experiment, fed, labeling, mapping, model as mdl, plates, scenario


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _world_from_args(args) -> scenario.WorldConfig:
    overrides = {}
    if args.config:
        with open(args.config) as f:
            overrides.update(json.load(f))
    if args.seed is not None:
        overrides["seed"] = args.seed
    if "seed" not in overrides:
        raise UsageError("a scenario seed is required (--seed or config file)")
    return scenario.WorldConfig.from_dict(overrides)


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(args) -> int:
    cfg = _world_from_args(args)
    out = _out_dir(args)
    ticks = args.ticks if args.ticks else cfg.num_ticks()
    _, observations = scenario.run_scenario(cfg, ticks=ticks)
    scenario.write_run(out, observations)
    with open(out / "world.json", "w") as f:
        json.dump({**dataclasses.asdict(cfg), "ticks": ticks}, f, indent=2)
    print(f"wrote {ticks} ticks to {out}")
    return 0


def _load_world(run_dir: Path) -> scenario.WorldConfig:
    meta = run_dir / "world.json"
    if not meta.exists():
        raise FileNotFoundError(f"missing {meta}; generate the run with `fedvid gen`")
    with open(meta) as f:
        data = json.load(f)
    data.pop("ticks", None)
    return scenario.WorldConfig.from_dict(data)


def cmd_label(args) -> int:
    run_dir = Path(args.run)
    cfg = _load_world(run_dir)
    observations = scenario.read_run(run_dir)
    out = _out_dir(args)

    confusion = plates.builtin_confusion_table()
    cct = plates.default_conversion_table()
    (out / "confusion.json").write_text(confusion.to_json())
    (out / "cct.json").write_text(cct.to_json())

    run = labeling.label_run(observations, cct, cfg)
    examples = labeling.assemble_dataset(run, labeling.DatasetMode(args.mode))
    labeling.write_dataset_jsonl(out / "dataset.jsonl", examples)
    print(f"wrote {len(examples)} {args.mode} examples to {out / 'dataset.jsonl'}")
    return 0


def cmd_train(args) -> int:
    arrays = labeling.read_dataset_jsonl(args.dataset)
    cfg = mdl.ModelConfig(input_dim=arrays.X.shape[1])
    seed = 7 if args.seed is None else args.seed
    params = mdl.init_model(cfg, np.random.default_rng(seed))
    trainer = mdl.Trainer(params, mdl.OptConfig(), seed)
    losses = trainer.run_epochs(arrays, args.epochs)
    out = _out_dir(args)
    path = out / "model.fmdf"
    mdl.save_model(trainer.params, path)
    print(f"trained {args.epochs} epochs; loss {losses[0]:.5f} -> {losses[-1]:.5f}; wrote {path}")
    return 0


def cmd_serve(args) -> int:
    seed = 7 if args.seed is None else args.seed
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(seed))
    server = fed.FedServer(
        params, expected_clients=args.clients, rounds=args.rounds,
        min_clients=args.min_clients, timeout_s=args.timeout, host=args.host, port=args.port,
    )
    print(f"serving on {server.address[0]}:{server.address[1]} "
          f"({args.clients} clients, {args.rounds} rounds)")
    records = server.serve()
    out = _out_dir(args)
    mdl.save_model(server.global_params, out / "model.fmdf")
    with open(out / "transcript.log", "w") as f:
        f.write("\n".join(server.transcript) + "\n")
    for r in records:
        print(f"round {r.round}: clients {r.participants} digest {r.digest:016x}")
    return 0


def cmd_client(args) -> int:
    arrays = labeling.read_dataset_jsonl(args.dataset)
    seed = 1000 + args.id if args.seed is None else args.seed
    client = fed.FedClient(client_id=args.id, dataset=arrays, opt_cfg=mdl.OptConfig(),
                           seed=seed, local_epochs=args.local_epochs)
    rounds = client.run(args.host, args.port, timeout=args.timeout)
    print(f"client {args.id} finished after {rounds} rounds")
    return 0


def cmd_eval(args) -> int:
    model_path = Path(args.model)
    if not model_path.exists():
        raise FileNotFoundError(f"model file not found: {model_path}")
    params = mdl.load_model(model_path)
    cct = plates.default_conversion_table()
    if args.run:
        run_dir = Path(args.run)
        cfg = _load_world(run_dir)
        observations = scenario.read_run(run_dir)
    else:
        cfg = _world_from_args(args)
        _, observations = scenario.run_scenario(cfg, cct=cct)
    run = labeling.label_run(observations, cct, cfg)
    report = experiment.evaluate_model(params, run, mapping.MappingConfig())
    out = _out_dir(args)
    experiment.write_report(out / "report.csv", [dataclasses.asdict(report)],
                            experiment.REPORT_COLUMNS[2:])
    print(f"CR_ic={report.cr_ic:.4f} CR_inside={report.cr_inside:.4f} "
          f"CR_outside={report.cr_outside:.4f} CR_total={report.cr_total:.4f}")
    return 0


def cmd_demo_tables(args) -> int:
    confusion = plates.builtin_confusion_table()
    cp = plates.derive_char_pairs(confusion, 0.2)
    cct = plates.build_conversion_table(cp)
    print("confusable pairs (threshold 0.2):", ", ".join(f"({a},{b})" for a, b in cp.sorted_pairs()))
    print("conversion table:")
    for key, value in sorted(cct.entries.items()):
        print(f"  {key} -> {value}")

    canon = plates.canonicalize_plate("5CRD321", cct)
    misread = plates.canonicalize_plate("SCRO32I", cct)
    print(f"canonicalize 5CRD321 -> {canon}")
    print(f"canonicalize SCRO32I -> {misread}")
    if str(canon) != "#3CR#132#2" or plates.plate_id(canon) != plates.plate_id(misread):
        raise RuntimeError("canonicalization self-check failed")

    scores = np.array([[0.3, 0.7, 0.1], [0.1, 0.83, 0.8], [0.62, 0.35, 0.4]])
    st = mapping.ScoreTable(scores=scores, row_ids=[1, 2, 3], col_ids=[1, 2, 3], omega=0.5)
    ct = mapping.build_confidence_table(st)
    print("score table rows:", *(np.round(r, 2).tolist() for r in scores))
    print("confidence table rows:", *(np.round(r, 2).tolist() for r in ct.conf))

    pairs = mapping._greedy_pairs(st.scores, ct.conf, mapping.SCORE_EPS)
    rendered = "{" + ",".join(f"(e{i + 1},v{j + 1})" for i, j in pairs) + "}"
    print("mapping decision:", rendered)
    if rendered != "{(e1,v2),(e2,v3),(e3,v1)}":
        raise RuntimeError("mapping decision self-check failed")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="fedvid", description=__doc__)
    parser.add_argument("--seed", type=int, default=None, help="scenario seed")
    parser.add_argument("--config", default=None, help="JSON world-config overrides")
    parser.add_argument("--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gen", help="simulate a scenario into record files")
    p.add_argument("--ticks", type=int, default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("label", help="auto-label a recorded run into a dataset")
    p.add_argument("--run", required=True, help="directory written by gen")
    p.add_argument("--mode", default="ALDA", choices=[m.value for m in labeling.DatasetMode])
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("train", help="train the model on a dataset file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--epochs", type=int, default=200)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("serve", help="run the federated parameter server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0)
    p.add_argument("--clients", type=int, required=True)
    p.add_argument("--rounds", type=int, default=50)
    p.add_argument("--min-clients", type=int, default=1)
    p.add_argument("--timeout", type=float, default=30.0)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("client", help="run one federated client")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--local-epochs", type=int, default=1)
    p.add_argument("--timeout", type=float, default=30.0)
    p.set_defaults(func=cmd_client)

    p = sub.add_parser("eval", help="evaluate a model on a scenario")
    p.add_argument("--model", required=True)
    p.add_argument("--run", default=None, help="recorded run directory (else --seed)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("demo-tables", help="print and check the worked examples")
    p.set_defaults(func=cmd_demo_tables)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except Exception as e:  # runtime failure
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
