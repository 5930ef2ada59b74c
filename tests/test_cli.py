import json
import socket
import threading
from dataclasses import replace

import numpy as np
import pytest

from fedvid import cli, experiment, labeling, model as mdl, plates, scenario


def test_no_arguments_usage_exit_1(capsys):
    assert cli.cli_main([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exit_1(capsys):
    assert cli.cli_main(["transmogrify"]) == 1


def test_demo_tables_prints_worked_mapping(capsys):
    assert cli.cli_main(["demo-tables"]) == 0
    out = capsys.readouterr().out
    assert "{(e1,v2),(e2,v3),(e3,v1)}" in out
    assert "#3CR#132#2" in out
    assert "0 -> #1" in out


def test_eval_missing_model_exit_2(capsys):
    rc = cli.cli_main(["--seed", "5", "--out", "/tmp/x", "eval", "--model", "/nope/missing.fmdf"])
    assert rc == 2
    assert "missing.fmdf" in capsys.readouterr().err


def test_serve_has_no_local_epochs_flag():
    # each client sets its own local epochs; the server never trains
    with pytest.raises(cli.UsageError):
        cli.build_parser().parse_args(["--seed", "7", "serve", "--clients", "1",
                                       "--local-epochs", "2"])


def test_gen_requires_seed(tmp_path, capsys):
    assert cli.cli_main(["--out", str(tmp_path), "gen"]) == 1


def test_full_cli_pipeline(tmp_path, capsys):
    run_dir = tmp_path / "run"
    cfg = {"num_vehicles": 12, "duration": 20.0, "weather": "light_haze"}
    cfg_path = tmp_path / "world.json"
    cfg_path.write_text(json.dumps(cfg))

    assert cli.cli_main(["--seed", "77", "--config", str(cfg_path),
                         "--out", str(run_dir), "gen"]) == 0
    for name in ("frames.jsonl", "messages.jsonl", "sensors.jsonl", "truth.jsonl", "world.json"):
        assert (run_dir / name).exists()

    label_dir = tmp_path / "labels"
    assert cli.cli_main(["--out", str(label_dir), "label", "--run", str(run_dir),
                         "--mode", "MANUAL"]) == 0
    assert (label_dir / "dataset.jsonl").exists()
    assert (label_dir / "cct.json").exists()
    assert (label_dir / "confusion.json").exists()
    cct = json.loads((label_dir / "cct.json").read_text())
    assert cct["0"] == cct["O"] == cct["D"] == cct["Q"]

    model_dir = tmp_path / "model"
    assert cli.cli_main(["--seed", "7", "--out", str(model_dir), "train",
                         "--dataset", str(label_dir / "dataset.jsonl"),
                         "--epochs", "3"]) == 0
    assert (model_dir / "model.fmdf").exists()

    eval_dir = tmp_path / "eval"
    assert cli.cli_main(["--out", str(eval_dir), "eval",
                         "--model", str(model_dir / "model.fmdf"),
                         "--run", str(run_dir)]) == 0
    assert (eval_dir / "report.csv").exists()
    out = capsys.readouterr().out
    assert "CR_total=" in out


def test_eval_report_written_like_the_experiment_report(tmp_path):
    model_path = tmp_path / "model.fmdf"
    mdl.save_model(mdl.init_model(mdl.ModelConfig(), np.random.default_rng(3)), model_path)
    cfg_path = tmp_path / "w.json"
    cfg_path.write_text(json.dumps({"num_vehicles": 12, "duration": 10.0}))
    out = tmp_path / "eval"
    assert cli.cli_main(["--seed", "5", "--config", str(cfg_path), "--out", str(out),
                         "eval", "--model", str(model_path)]) == 0
    header, row, end = (out / "report.csv").read_bytes().split(b"\r\n")
    assert header.decode().split(",") == experiment.REPORT_COLUMNS[2:]
    assert end == b"" and b"\n" not in header + row
    values = dict(zip(experiment.REPORT_COLUMNS[2:], row.decode().split(",")))
    assert all(len(values[k].split(".")[1]) == 6 for k in ("cr_ic", "cr_inside", "cr_outside",
                                                          "cr_total"))
    assert all(values[k].isdigit() for k in ("p_correctly", "p_inside", "p_outside",
                                             "n_inside", "n_outside"))


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_serve_and_client_subcommands(tmp_path):
    import time

    cfg_path = tmp_path / "w.json"
    cfg_path.write_text(json.dumps({"num_vehicles": 10, "duration": 10.0}))
    run_dir = tmp_path / "run"
    assert cli.cli_main(["--seed", "78", "--config", str(cfg_path),
                         "--out", str(run_dir), "gen"]) == 0
    label_dir = tmp_path / "labels"
    assert cli.cli_main(["--out", str(label_dir), "label", "--run", str(run_dir)]) == 0
    dataset = str(label_dir / "dataset.jsonl")

    port = _free_port()
    serve_dir = tmp_path / "serve"
    rc = {}

    def serve():
        rc["serve"] = cli.cli_main(["--seed", "7", "--out", str(serve_dir), "serve",
                                    "--port", str(port), "--clients", "1",
                                    "--rounds", "2", "--timeout", "10"])

    t = threading.Thread(target=serve, daemon=True)
    t.start()
    client_rc = None
    for _ in range(50):  # wait for the listener to come up
        client_rc = cli.cli_main(["client", "--host", "127.0.0.1", "--port", str(port),
                                  "--id", "1", "--dataset", dataset, "--timeout", "10"])
        if client_rc == 0:
            break
        time.sleep(0.1)
    t.join(timeout=30.0)
    assert client_rc == 0
    assert rc["serve"] == 0
    assert (serve_dir / "model.fmdf").exists()
    assert (serve_dir / "transcript.log").exists()


def _gen_and_label(tmp_path, cfg):
    """gen a seed-79 run from `cfg` and label it as ALDA; returns (run dir, dataset)."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    run_dir = tmp_path / "run"
    assert cli.cli_main(["--seed", "79", "--config", str(cfg_path),
                         "--out", str(run_dir), "gen"]) == 0
    label_dir = tmp_path / "labels"
    assert cli.cli_main(["--out", str(label_dir), "label", "--run", str(run_dir),
                         "--mode", "ALDA"]) == 0
    return run_dir, label_dir / "dataset.jsonl"


def test_train_seed_zero_is_honoured(tmp_path):
    _, dataset = _gen_and_label(tmp_path, {"num_vehicles": 10, "duration": 10.0})
    models = {}
    for seed in ("0", "7"):
        out = tmp_path / f"model{seed}"
        assert cli.cli_main(["--seed", seed, "--out", str(out), "train",
                             "--dataset", str(dataset), "--epochs", "1"]) == 0
        models[seed] = (out / "model.fmdf").read_bytes()
    assert models["0"] != models["7"]


def test_world_json_round_trips_camera_config(tmp_path):
    front = {"hfov_deg": 60.0, "image_w": 1280, "image_h": 720,
             "facing": "front", "max_range": 60.0}
    world = {"num_vehicles": 20, "duration": 30.0, "front_camera": front}
    run_dir, dataset = _gen_and_label(tmp_path, world)

    cfg = cli._load_world(run_dir)
    assert cfg.front_camera.hfov_deg == 60.0
    assert cfg == scenario.WorldConfig.from_dict({**world, "seed": 79})

    # label must run the field-of-view test with the 60 degree camera
    observations = scenario.read_run(run_dir)
    cct = plates.default_conversion_table()

    def alda_jsonl(world_cfg, name):
        run = labeling.label_run(observations, cct, world_cfg)
        examples = labeling.assemble_dataset(run, labeling.DatasetMode.ALDA)
        path = tmp_path / name
        labeling.write_dataset_jsonl(path, examples)
        return path.read_bytes()

    wide = replace(cfg, front_camera=scenario.default_front_camera())
    assert dataset.read_bytes() == alda_jsonl(cfg, "narrow.jsonl")
    assert dataset.read_bytes() != alda_jsonl(wide, "wide.jsonl")
