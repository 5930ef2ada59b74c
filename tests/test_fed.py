import json
import socket
import threading

import numpy as np
import pytest

from fedvid import fed, labeling, model as mdl

NARROW = mdl.ModelConfig(input_dim=11, hidden_width=8, hidden_layers=10)


def _scalar_params(*values):
    """Single-weight models for arithmetic checks."""
    out = []
    for v in values:
        out.append(mdl.ModelParams(np.array([float(v), 0.0]), [(1, 1)], dropout=0.3, mu=1.0))
    return out


def _toy_dataset(n=40, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 11))
    FB = rng.random((n, 4))
    Y = np.column_stack([X[:, 0], X[:, 1], X[:, 0], X[:, 1], (X[:, 2] > 0.5).astype(float)])
    return labeling.TrainingArrays(X=X, FB=FB, Y=Y)


def _equal(a, b):
    return (all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
            and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases)))


# --- fed_avg -------------------------------------------------------------------

def test_fed_avg_identical_params_idempotent():
    p, q = _scalar_params(3.25, 3.25)
    out = fed.fed_avg([(p, 10), (q, 10)])
    assert out.weights[0][0, 0] == 3.25


def test_fed_avg_symmetric_cancellation():
    p, q = _scalar_params(1.5, -1.5)
    out = fed.fed_avg([(p, 7), (q, 7)])
    assert out.weights[0][0, 0] == 0.0


def test_fed_avg_weighted_mean():
    p, q = _scalar_params(0.0, 4.0)
    out = fed.fed_avg([(p, 1), (q, 3)])
    assert out.weights[0][0, 0] == pytest.approx(3.0)


def test_fed_avg_rejects_empty_and_mismatched():
    with pytest.raises(fed.ProtocolError):
        fed.fed_avg([])
    p = mdl.init_model(NARROW, np.random.default_rng(0))
    q = mdl.init_model(mdl.ModelConfig(input_dim=11, hidden_width=16, hidden_layers=10),
                       np.random.default_rng(0))
    with pytest.raises(fed.ProtocolError):
        fed.fed_avg([(p, 1), (q, 1)])
    with pytest.raises(fed.ProtocolError):
        fed.fed_avg([(p, 0)])


def test_fed_avg_preserves_elementwise_bounds():
    rng = np.random.default_rng(1)
    ps = [mdl.init_model(NARROW, np.random.default_rng(s)) for s in range(4)]
    out = fed.fed_avg([(p, int(rng.integers(1, 20))) for p in ps])
    for i in range(len(out.weights)):
        lo = np.min([p.weights[i] for p in ps], axis=0)
        hi = np.max([p.weights[i] for p in ps], axis=0)
        assert np.all(out.weights[i] >= lo - 1e-12)
        assert np.all(out.weights[i] <= hi + 1e-12)


# --- local training / rounds -----------------------------------------------------

def test_local_train_zero_epochs_returns_global():
    data = _toy_dataset()
    global_params = mdl.init_model(NARROW, np.random.default_rng(2))
    client = fed.ClientState.create(1, data, global_params, mdl.OptConfig(), seed=3)
    params, count = fed.local_train(client, global_params, epochs=0)
    assert _equal(params, global_params)
    assert count == 40


def test_two_clients_report_partition_sizes():
    a = _toy_dataset(n=12, seed=1)
    b = _toy_dataset(n=30, seed=2)
    g = mdl.init_model(NARROW, np.random.default_rng(2))
    ca = fed.ClientState.create(1, a, g, mdl.OptConfig(), seed=3)
    cb = fed.ClientState.create(2, b, g, mdl.OptConfig(), seed=4)
    assert fed.local_train(ca, g, 1)[1] == 12
    assert fed.local_train(cb, g, 1)[1] == 30


def test_run_round_single_client_equals_update():
    data = _toy_dataset()
    g = mdl.init_model(NARROW, np.random.default_rng(4))
    server = fed.ServerState(global_params=g.copy())
    client = fed.ClientState.create(1, data, g, mdl.OptConfig(), seed=5)
    shadow = fed.ClientState.create(1, data, g, mdl.OptConfig(), seed=5)
    record = fed.run_round(server, [client], fed.RoundConfig(local_epochs=1))
    expected, _ = fed.local_train(shadow, g, 1)
    assert _equal(server.global_params, expected)
    assert record.participants == [1]
    assert record.example_counts == {1: 40}
    assert record.digest == fed.params_digest(server.global_params)


def test_run_round_below_min_clients_errors():
    g = mdl.init_model(NARROW, np.random.default_rng(4))
    server = fed.ServerState(global_params=g)
    with pytest.raises(fed.ProtocolError):
        fed.run_round(server, [], fed.RoundConfig(min_clients=1))


def test_round_aggregation_order_invariant():
    data_a = _toy_dataset(n=16, seed=6)
    data_b = _toy_dataset(n=24, seed=7)
    g = mdl.init_model(NARROW, np.random.default_rng(8))
    digests = []
    for order in ((1, 2), (2, 1)):
        server = fed.ServerState(global_params=g.copy())
        clients = {
            1: fed.ClientState.create(1, data_a, g, mdl.OptConfig(), seed=11),
            2: fed.ClientState.create(2, data_b, g, mdl.OptConfig(), seed=12),
        }
        record = fed.run_round(server, [clients[i] for i in order], fed.RoundConfig())
        digests.append(record.digest)
    assert digests[0] == digests[1]


# --- wire encoding ----------------------------------------------------------------

def test_encode_decode_roundtrip_bitwise():
    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(9))
    assert _equal(fed.decode_params(fed.encode_params(params)), params)


def test_decode_truncated_names_offset():
    params = mdl.init_model(NARROW, np.random.default_rng(10))
    blob = fed.encode_params(params)
    with pytest.raises(mdl.DecodeError, match="offset"):
        fed.decode_params(blob[: len(blob) - 5])


def test_decode_corrupted_magic():
    params = mdl.init_model(NARROW, np.random.default_rng(11))
    blob = b"ZZZZ" + fed.encode_params(params)[4:]
    with pytest.raises(mdl.DecodeError, match="bad magic"):
        fed.decode_params(blob)


# --- TCP sessions ---------------------------------------------------------------

def test_tcp_session_two_clients_records_and_transcript():
    data = _toy_dataset(n=40)
    shards = [labeling.TrainingArrays(X=data.X[0::2], FB=data.FB[0::2], Y=data.Y[0::2]),
              labeling.TrainingArrays(X=data.X[1::2], FB=data.FB[1::2], Y=data.Y[1::2])]
    init = mdl.init_model(NARROW, np.random.default_rng(12))
    final, records, transcript, _ = fed.train_federated_tcp(
        shards, init, mdl.OptConfig(), rounds=3, seeds=[21, 22], timeout=10.0)
    assert [r.round for r in records] == [1, 2, 3]
    assert all(r.participants == [1, 2] for r in records)
    assert all(r.example_counts == {1: 20, 2: 20} for r in records)
    kinds = [json.loads(line.split(" ", 1)[1])["type"] for line in transcript]
    assert kinds.count("hello") == 2
    assert kinds.count("round_begin") == 6
    assert kinds.count("update") == 6
    assert kinds.count("round_end") == 6
    assert kinds.count("shutdown") == 2


def test_tcp_single_client_degenerates_to_centralized():
    data = _toy_dataset(n=40)
    init = mdl.init_model(NARROW, np.random.default_rng(13))
    central = mdl.Trainer(init.copy(), mdl.OptConfig(), seed=33)
    central.run_epochs(data, 5)
    final, records, _, _ = fed.train_federated_tcp(
        [data], init.copy(), mdl.OptConfig(), rounds=5, seeds=[33], timeout=10.0)
    assert _equal(final, central.params)


def test_tcp_silent_client_times_out_to_protocol_error():
    init = mdl.init_model(NARROW, np.random.default_rng(14))
    server = fed.FedServer(init, expected_clients=1, rounds=1,
                           round_cfg=fed.RoundConfig(timeout_s=0.5, min_clients=1))
    host, port = server.address

    def silent_client():
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b'{"type":"hello","client_id":9,"examples":4}\n')
            try:
                while sock.recv(65536):
                    pass  # never reply to round_begin
            except OSError:
                pass

    t = threading.Thread(target=silent_client, daemon=True)
    t.start()
    with pytest.raises(fed.ProtocolError):
        server.serve()
    t.join(timeout=5.0)


def test_tcp_unknown_frame_gets_error_and_close():
    init = mdl.init_model(NARROW, np.random.default_rng(15))
    server = fed.FedServer(init, expected_clients=1, rounds=1,
                           round_cfg=fed.RoundConfig(timeout_s=2.0, min_clients=1))
    host, port = server.address
    result = {}

    def bad_client():
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b'{"type":"hello","client_id":5,"examples":4}\n')
            reader = fed._LineReader(sock)
            reader.readline(5.0)  # round_begin
            sock.sendall(b'{"type":"mystery"}\n')
            try:
                result["reply"] = reader.readline(5.0)
            except fed.ProtocolError:
                result["reply"] = None

    t = threading.Thread(target=bad_client, daemon=True)
    t.start()
    with pytest.raises(fed.ProtocolError):
        server.serve()
    t.join(timeout=5.0)
    assert result["reply"] is not None
    assert json.loads(result["reply"])["type"] == "error"


def test_tcp_round_aggregates_survivors_without_retraining():
    # client 2 hangs up after its first round_begin; client 1 must train once
    # per round, and every round averages client 1's update alone
    data = _toy_dataset(n=20)
    init = mdl.init_model(NARROW, np.random.default_rng(17))
    server = fed.FedServer(init, expected_clients=2, rounds=2,
                           round_cfg=fed.RoundConfig(timeout_s=5.0, min_clients=1))
    host, port = server.address
    trained = {}

    def survivor():
        client = fed.FedClient(1, data, mdl.OptConfig(), seed=51)
        trained["rounds"] = client.run(host, port, timeout=10.0)

    def quitter():
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b'{"type":"hello","client_id":2,"examples":4}\n')
            fed._LineReader(sock).readline(5.0)  # round_begin, then hang up

    threads = [threading.Thread(target=f, daemon=True) for f in (survivor, quitter)]
    for t in threads:
        t.start()
    records = server.serve()
    for t in threads:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads)
    assert trained["rounds"] == 2
    assert [r.round for r in records] == [1, 2]
    assert all(r.participants == [1] for r in records)
    assert all(r.example_counts == {1: 20} for r in records)


def test_tcp_round_below_min_clients_after_drop_errors():
    init = mdl.init_model(NARROW, np.random.default_rng(18))
    server = fed.FedServer(init, expected_clients=2, rounds=1,
                           round_cfg=fed.RoundConfig(timeout_s=5.0, min_clients=2))
    host, port = server.address

    def client(cid, reply):
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(json.dumps({"type": "hello", "client_id": cid,
                                     "examples": 4}).encode() + b"\n")
            reader = fed._LineReader(sock)
            frame = json.loads(reader.readline(5.0))
            if reply:
                sock.sendall(json.dumps({"type": "update", "round": 1, "examples": 4,
                                         "params_b64": frame["params_b64"]}).encode() + b"\n")
                try:
                    reader.readline(5.0)
                except (fed.ProtocolError, OSError):
                    pass

    threads = [threading.Thread(target=client, args=(cid, cid == 1), daemon=True)
               for cid in (1, 2)]
    for t in threads:
        t.start()
    with pytest.raises(fed.ProtocolError, match="need 2"):
        server.serve()
    for t in threads:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads)


def _serve_in_thread(server):
    out = {}

    def run():
        out["records"] = server.serve()

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t, out


def _poison_nan(frame):
    params = fed.params_from_b64(frame["params_b64"])
    params.weights[0][0, 3] = np.nan
    frame["params_b64"] = fed.params_b64(params)


def _poison_zero_count(frame):
    frame["examples"] = 0


def _poison_blob_type(frame):
    frame["params_b64"] = 12345


@pytest.mark.parametrize("poison", [_poison_nan, _poison_zero_count, _poison_blob_type])
def test_tcp_poisoned_update_is_dropped(poison):
    data = _toy_dataset(n=20)
    init = mdl.init_model(NARROW, np.random.default_rng(19))
    server = fed.FedServer(init, expected_clients=2, rounds=1,
                           round_cfg=fed.RoundConfig(timeout_s=5.0, min_clients=1))
    host, port = server.address

    def honest():
        fed.FedClient(1, data, mdl.OptConfig(), seed=52).run(host, port, timeout=10.0)

    def poisoner():
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b'{"type":"hello","client_id":2,"examples":4}\n')
            reader = fed._LineReader(sock)
            begin = json.loads(reader.readline(5.0))
            frame = {"type": "update", "round": 1, "examples": 4,
                     "params_b64": begin["params_b64"]}
            poison(frame)
            sock.sendall(json.dumps(frame).encode() + b"\n")
            try:
                reader.readline(5.0)
            except (fed.ProtocolError, OSError):
                pass

    threads = [threading.Thread(target=f, daemon=True) for f in (honest, poisoner)]
    for t in threads:
        t.start()
    records = server.serve()
    for t in threads:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads)
    assert [r.participants for r in records] == [[1]]
    assert np.isfinite(server.state.global_params.flat).all()


def test_tcp_update_of_other_architecture_is_not_installed():
    init = mdl.init_model(NARROW, np.random.default_rng(20))
    wide = mdl.init_model(mdl.ModelConfig(hidden_width=16), np.random.default_rng(20))
    server = fed.FedServer(init, expected_clients=1, rounds=1,
                           round_cfg=fed.RoundConfig(timeout_s=5.0, min_clients=1))
    host, port = server.address

    def client():
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b'{"type":"hello","client_id":1,"examples":4}\n')
            reader = fed._LineReader(sock)
            reader.readline(5.0)  # round_begin
            sock.sendall(json.dumps({"type": "update", "round": 1, "examples": 4,
                                     "params_b64": fed.params_b64(wide)}).encode() + b"\n")
            try:
                reader.readline(5.0)
            except (fed.ProtocolError, OSError):
                pass

    t = threading.Thread(target=client, daemon=True)
    t.start()
    with pytest.raises(fed.ProtocolError, match="need 1"):
        server.serve()
    t.join(timeout=10.0)
    assert not t.is_alive()
    assert server.state.global_params.shapes == init.shapes
    assert not server.state.records


@pytest.mark.parametrize("hello", [
    b"not json\n",
    b'["hello"]\n',
    b'{"type":"hello","examples":4}\n',
    b'{"type":"hello","client_id":"one","examples":4}\n',
    b"",
], ids=["not-json", "not-object", "no-client-id", "string-client-id", "silent"])
def test_tcp_bad_hello_gets_error_and_server_keeps_accepting(hello):
    data = _toy_dataset(n=20)
    init = mdl.init_model(NARROW, np.random.default_rng(21))
    server = fed.FedServer(init, expected_clients=1, rounds=1,
                           round_cfg=fed.RoundConfig(timeout_s=2.0, min_clients=1))
    host, port = server.address
    serving, out = _serve_in_thread(server)

    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(hello)
        reader = fed._LineReader(sock)
        reply = json.loads(reader.readline(5.0))
        with pytest.raises(fed.ProtocolError, match="closed"):
            reader.readline(5.0)
    assert reply["type"] == "error"

    rounds = fed.FedClient(3, data, mdl.OptConfig(), seed=53).run(host, port, timeout=10.0)
    serving.join(timeout=10.0)
    assert not serving.is_alive()
    assert rounds == 1
    assert [r.participants for r in out["records"]] == [[3]]


def test_tcp_duplicate_client_id_is_refused_and_first_keeps_its_slot():
    data = _toy_dataset(n=20)
    init = mdl.init_model(NARROW, np.random.default_rng(22))
    server = fed.FedServer(init, expected_clients=2, rounds=1,
                           round_cfg=fed.RoundConfig(timeout_s=5.0, min_clients=2))
    host, port = server.address
    serving, out = _serve_in_thread(server)

    with socket.create_connection((host, port), timeout=5.0) as first:
        first.sendall(b'{"type":"hello","client_id":1,"examples":4}\n')
        with socket.create_connection((host, port), timeout=5.0) as dup:
            dup.sendall(b'{"type":"hello","client_id":1,"examples":4}\n')
            dup_reader = fed._LineReader(dup)
            reply = json.loads(dup_reader.readline(5.0))
            with pytest.raises(fed.ProtocolError, match="closed"):
                dup_reader.readline(5.0)

        other = threading.Thread(
            target=fed.FedClient(2, data, mdl.OptConfig(), seed=54).run,
            args=(host, port, 10.0), daemon=True)
        other.start()
        reader = fed._LineReader(first)
        begin = json.loads(reader.readline(5.0))
        first.sendall(json.dumps({"type": "update", "round": 1, "examples": 4,
                                  "params_b64": begin["params_b64"]}).encode() + b"\n")
        first_frames = [begin, json.loads(reader.readline(5.0)),
                        json.loads(reader.readline(5.0))]
        other.join(timeout=10.0)
    serving.join(timeout=10.0)
    assert not other.is_alive() and not serving.is_alive()
    assert reply["type"] == "error"
    assert [f["type"] for f in first_frames] == ["round_begin", "round_end", "shutdown"]
    assert [r.participants for r in out["records"]] == [[1, 2]]


def test_transcript_carries_no_training_payloads():
    data = _toy_dataset(n=20)
    init = mdl.init_model(NARROW, np.random.default_rng(16))
    _, _, transcript, _ = fed.train_federated_tcp(
        [data], init, mdl.OptConfig(), rounds=2, seeds=[44], timeout=10.0)
    forbidden = ('"features"', '"target"', '"validity_mask"', '"feedback"',
                 '"latlng"', '"dataset"', '"X"', '"Y"', '"FB"')
    for line in transcript:
        payload = line.split(" ", 1)[1]
        frame = json.loads(payload)
        assert set(frame) <= {"type", "client_id", "examples", "round",
                              "params_b64", "digest", "reason"}
        assert not any(token in payload for token in forbidden)
