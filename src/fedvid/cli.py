"""Command-line interface.

Subcommands: gen (simulate a scenario to a run.jsonl file), label (auto-label
a recorded run into a dataset file), train (fit the model on a dataset file),
serve/client (federated server and participant), and eval (correctness ratios
of a model on a scenario).
Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import experiment, fed, labeling, model as mdl, plates, records, scenario


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _flag(tp: type, *rules: records.Rule):
    """argparse type of a number flag: a `tp` (int or float) that meets `rules`."""
    def parse(text: str):
        try:
            records.check_value(text, x := tp(text), *rules)
            return x
        except ValueError:
            pass
        kind = "an integer" if tp is int else "a number"
        meets = " and ".join(f"{rel} {records.brief(limit)}" for rel, limit in rules)
        of = " of" if meets.startswith("at ") else ""   # "of at least 1", but "above 0.0"
        raise argparse.ArgumentTypeError(f"{text!r} is not {kind}{of} {meets}".rstrip())
    return parse


def _check_global_flags(args) -> None:
    """A global flag that the chosen command never reads is a usage error. A
    recorded run carries its world, so a command given --run reads neither
    --seed nor --config."""
    reads = ("out",) if getattr(args, "run", None) else args.reads
    unread = [f"--{flag}" for flag in ("seed", "config", "out")
              if getattr(args, flag) is not None and flag not in reads]
    if unread:
        raise UsageError(f"{args.command} does not read {' or '.join(unread)}")


def _world_from_args(args, **defaults) -> scenario.WorldConfig:
    """The world of `defaults` with the --config overrides; its seed comes
    from --seed, else from the file, else from `defaults`. An error in the
    world names the --config file."""
    overrides = dict(defaults)
    try:
        if args.config:
            overrides.update(records.decode_record(Path(args.config).read_bytes()))
        if args.seed is not None:
            overrides["seed"] = args.seed
        if "seed" not in overrides:
            raise UsageError("a scenario seed is required (--seed or config file)")
        return records.from_record(scenario.WorldConfig, overrides)
    except (TypeError, ValueError) as exc:   # only a --config file can hold a bad field
        raise ValueError(f"{args.config}: {exc}") from None


def _experiment(args, **changes) -> experiment.ExperimentConfig:
    """The experiment config of a training command; --seed, when given, is
    its training seed."""
    if args.seed is not None:
        changes["train_seed"] = args.seed
    return experiment.ExperimentConfig(**changes)


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(args) -> int:
    cfg = _world_from_args(args)
    path = _out_dir(args) / "run.jsonl"
    _, observations = scenario.run_scenario(cfg, ticks=args.ticks)
    scenario.write_run(path, cfg, observations)
    print(f"wrote {len(observations)} ticks to {path}")
    return 0


def cmd_label(args) -> int:
    cfg, observations = scenario.read_run(args.run)
    run = labeling.label_run(observations, plates.default_conversion_table(), cfg)
    examples = labeling.assemble_dataset(run, labeling.DatasetMode(args.mode))
    if not examples:   # `train` refuses an empty dataset file; write none
        raise ValueError(f"{args.run}: no {args.mode} examples to write")
    out = _out_dir(args)
    labeling.write_dataset_jsonl(out / "dataset.jsonl", examples)
    print(f"wrote {len(examples)} {args.mode} examples to {out / 'dataset.jsonl'}")
    return 0


def cmd_train(args) -> int:
    arrays = labeling.read_dataset_jsonl(args.dataset)
    params = experiment.train_central(arrays, _experiment(args, epochs=args.epochs))
    path = _out_dir(args) / "model.fmdf"
    mdl.save_model(params, path)
    print(f"trained {args.epochs} epochs; loss {mdl.mean_loss(params, arrays):.5f}; wrote {path}")
    return 0


def cmd_serve(args) -> int:
    if args.min_clients > args.clients:
        raise UsageError(f"--min-clients {args.min_clients} exceeds --clients {args.clients}")
    world = _world_from_args(args, seed=0)   # sets the model's width; the seed plays no part
    params = experiment.init_params(_experiment(args),
                                    labeling.feature_config(world).input_dim())
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
        print(f"round {r.round}: clients {r.participants} digest {r.digest:016x} "
              f"bytes in {r.bytes_in} out {r.bytes_out}")
    return 0


def cmd_client(args) -> int:
    arrays = labeling.read_dataset_jsonl(args.dataset)
    cfg = _experiment(args)
    client = fed.FedClient(client_id=args.id, dataset=arrays, opt_cfg=cfg.opt_cfg,
                           seed=experiment.client_seed(cfg.train_seed, args.id),
                           local_epochs=args.local_epochs)
    rounds = client.run(args.host, args.port, timeout=args.timeout)
    print(f"client {args.id} finished after {rounds} rounds")
    return 0


def cmd_eval(args) -> int:
    params = mdl.load_model(args.model)
    if args.run:
        world, observations = scenario.read_run(args.run)
        run = labeling.label_run(observations, plates.default_conversion_table(), world)
    else:
        world = _world_from_args(args)
        _, run = experiment.simulate_and_label(world, world.seed)
    report = experiment.evaluate_model(params, run, experiment.ExperimentConfig().mapping_cfg)
    out = _out_dir(args)
    experiment.write_report(out / "report.csv", [dataclasses.asdict(report)],
                            experiment.REPORT_COLUMNS[2:])
    print(f"CR_ic={report.cr_ic:.4f} CR_inside={report.cr_inside:.4f} "
          f"CR_outside={report.cr_outside:.4f} CR_total={report.cr_total:.4f}")
    return 0


def build_parser() -> _Parser:
    def field(name, cls=experiment.ExperimentConfig):   # a flag that sets an int config field
        return _flag(int, *(rule for f, _, rule in records.field_rules(cls) if f == name))

    parser = _Parser(prog="fedvid", description=__doc__)
    parser.add_argument("--seed", type=field("train_seed"), default=None, help=(
        "the scenario seed of gen and of eval without --run; the training seed "
        f"of train, serve and client (default {experiment.ExperimentConfig.train_seed})"))
    parser.add_argument("--config", default=None, help=(
        "JSON world-config overrides, read by gen, by eval without --run, and by serve, "
        "whose model takes its input width from the world"))
    parser.add_argument("--out", default=None,
                        help="output directory of gen, label, train, serve and eval")
    sub = parser.add_subparsers(dest="command")
    timeout = _flag(float, *fed.TIMEOUT_RULES)

    p = sub.add_parser("gen", help="simulate a scenario into run.jsonl")
    p.add_argument("--ticks", type=_flag(int, records.Rule("at least", 1),
                                         records.Rule("at most", scenario.MAX_TICKS)))
    p.set_defaults(func=cmd_gen, reads=("seed", "config", "out"))

    p = sub.add_parser("label", help="auto-label a recorded run into a dataset")
    p.add_argument("--run", required=True, help="run.jsonl written by gen")
    p.add_argument("--mode", default="ALDA", choices=[m.value for m in labeling.DatasetMode])
    p.set_defaults(func=cmd_label, reads=("out",))

    p = sub.add_parser("train", help="train the model on a dataset file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--epochs", type=field("epochs"), default=200)
    p.set_defaults(func=cmd_train, reads=("seed", "out"))

    p = sub.add_parser("serve", help="run the federated parameter server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_flag(int), default=0)
    p.add_argument("--clients", type=_flag(int, records.Rule("at least", 1)), required=True)
    p.add_argument("--rounds", type=field("rounds"), default=50)
    p.add_argument("--min-clients", type=_flag(int, records.Rule("at least", 1)), default=1)
    p.add_argument("--timeout", type=timeout, default=fed.PROTOCOL_TIMEOUT_S)
    p.set_defaults(func=cmd_serve, reads=("seed", "config", "out"))

    p = sub.add_parser("client", help="run one federated client")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_flag(int), required=True)
    p.add_argument("--id", type=field("client_id", fed.Hello), required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--local-epochs", type=field("local_epochs"), default=1)
    p.add_argument("--timeout", type=timeout, default=fed.PROTOCOL_TIMEOUT_S)
    p.set_defaults(func=cmd_client, reads=("seed",))

    p = sub.add_parser("eval", help="evaluate a model on a scenario")
    p.add_argument("--model", required=True)
    p.add_argument("--run", default=None, help="run.jsonl written by gen (else --seed)")
    p.set_defaults(func=cmd_eval, reads=("seed", "config", "out"))

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        _check_global_flags(args)
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
