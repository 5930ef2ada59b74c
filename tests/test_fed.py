import json
import select
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# --- local training --------------------------------------------------------------

def test_local_train_zero_epochs_returns_global():
    data = _toy_dataset()
    global_params = mdl.init_model(NARROW, np.random.default_rng(2))
    trainer = mdl.Trainer(global_params, mdl.OptConfig(), seed=3)
    params, count = fed.local_train(trainer, data, global_params, epochs=0)
    assert _equal(params, global_params)
    assert count == 40


def test_two_clients_report_partition_sizes():
    a = _toy_dataset(n=12, seed=1)
    b = _toy_dataset(n=30, seed=2)
    g = mdl.init_model(NARROW, np.random.default_rng(2))
    ta = mdl.Trainer(g, mdl.OptConfig(), seed=3)
    tb = mdl.Trainer(g, mdl.OptConfig(), seed=4)
    assert fed.local_train(ta, a, g, 1)[1] == 12
    assert fed.local_train(tb, b, g, 1)[1] == 30


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
    assert records[-1].digest == fed.params_digest(final)
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


def test_tcp_session_raises_a_failing_clients_error():
    # the second client's shard has 10 feature columns where the model takes 11
    data = _toy_dataset(n=40)
    bad = labeling.TrainingArrays(X=data.X[20:, :10], FB=data.FB[20:], Y=data.Y[20:])
    init = mdl.init_model(NARROW, np.random.default_rng(12))
    threads_before = threading.active_count()
    with pytest.raises(ValueError):
        fed.train_federated_tcp([data, bad], init, mdl.OptConfig(), rounds=2, seeds=[21, 22],
                                timeout=10.0)
    assert threading.active_count() == threads_before


def test_round_aggregation_order_invariant():
    # the server reduces in ascending client id, whichever hello came first
    data_a = _toy_dataset(n=16, seed=6)
    data_b = _toy_dataset(n=24, seed=7)
    g = mdl.init_model(NARROW, np.random.default_rng(8))
    digests = []
    for order in ((1, 2), (2, 1)):
        server = fed.FedServer(g.copy(), expected_clients=2, rounds=1, timeout_s=5.0)
        host, port = server.address
        serving, out = _serve_in_thread(server)
        clients = {1: fed.FedClient(1, data_a, mdl.OptConfig(), seed=11),
                   2: fed.FedClient(2, data_b, mdl.OptConfig(), seed=12)}
        threads = []
        for cid in order:
            frames = len(server.transcript)
            threads.append(threading.Thread(target=clients[cid].run, args=(host, port, 10.0),
                                            daemon=True))
            threads[-1].start()
            deadline = time.monotonic() + 5.0
            while len(server.transcript) == frames and time.monotonic() < deadline:
                time.sleep(0.01)  # wait for this client's hello
        for t in threads + [serving]:
            t.join(timeout=10.0)
        hellos = [json.loads(line.split(" ", 1)[1]) for line in server.transcript]
        assert [h["client_id"] for h in hellos if h["type"] == "hello"] == list(order)
        assert out["records"][0].participants == [1, 2]
        digests.append(out["records"][0].digest)
    assert digests[0] == digests[1]


def test_tcp_silent_client_times_out_to_protocol_error():
    init = mdl.init_model(NARROW, np.random.default_rng(14))
    server = fed.FedServer(init, expected_clients=1, rounds=1,
                           min_clients=1, timeout_s=0.5)
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
                           min_clients=1, timeout_s=2.0)
    host, port = server.address
    result = {}

    def bad_client():
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b'{"type":"hello","client_id":5,"examples":4}\n')
            conn = fed._Conn(sock, 5.0)
            conn.recv()  # round_begin
            sock.sendall(b'{"type":"mystery"}\n')
            try:
                result["reply"] = conn.recv()
            except fed.ProtocolError:
                result["reply"] = None

    t = threading.Thread(target=bad_client, daemon=True)
    t.start()
    with pytest.raises(fed.ProtocolError):
        server.serve()
    t.join(timeout=5.0)
    assert result["reply"] is not None
    assert result["reply"]["type"] == "error"


def test_tcp_round_aggregates_survivors_without_retraining():
    # client 2 hangs up after its first round_begin; client 1 must train once
    # per round, and every round averages client 1's update alone
    data = _toy_dataset(n=20)
    init = mdl.init_model(NARROW, np.random.default_rng(17))
    server = fed.FedServer(init, expected_clients=2, rounds=2,
                           min_clients=1, timeout_s=5.0)
    host, port = server.address
    trained = {}

    def survivor():
        client = fed.FedClient(1, data, mdl.OptConfig(), seed=51)
        trained["rounds"] = client.run(host, port, timeout=10.0)

    def quitter():
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b'{"type":"hello","client_id":2,"examples":4}\n')
            fed._Conn(sock, 5.0).recv()  # round_begin, then hang up

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


def test_tcp_client_that_hangs_up_after_its_update_is_dropped_at_the_next_broadcast():
    data = _toy_dataset(n=20)
    init = mdl.init_model(NARROW, np.random.default_rng(24))
    server = fed.FedServer(init, expected_clients=2, rounds=2, timeout_s=5.0)
    host, port = server.address
    serving, out = _serve_in_thread(server)

    with socket.create_connection((host, port), timeout=5.0) as sock:
        conn = fed._Conn(sock, 5.0)
        conn.send({"type": "hello", "client_id": 2, "examples": 4})
        honest = threading.Thread(target=fed.FedClient(1, data, mdl.OptConfig(), seed=57).run,
                                  args=(host, port, 10.0), daemon=True)
        honest.start()
        begin = conn.recv()
        conn.send({"type": "update", "round": 1, "examples": 4,
                   "params_b64": begin["params_b64"]})
    honest.join(timeout=10.0)
    serving.join(timeout=10.0)
    assert not honest.is_alive() and not serving.is_alive()
    assert [r.participants for r in out["records"]] == [[1, 2], [1]]


def test_tcp_round_below_min_clients_after_drop_errors():
    init = mdl.init_model(NARROW, np.random.default_rng(18))
    server = fed.FedServer(init, expected_clients=2, rounds=1,
                           min_clients=2, timeout_s=5.0)
    host, port = server.address

    def client(cid, reply):
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(json.dumps({"type": "hello", "client_id": cid,
                                     "examples": 4}).encode() + b"\n")
            conn = fed._Conn(sock, 5.0)
            frame = conn.recv()
            if reply:
                conn.send({"type": "update", "round": 1, "examples": 4,
                           "params_b64": frame["params_b64"]})
                try:
                    conn.recv()
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
                           min_clients=1, timeout_s=5.0)
    host, port = server.address

    def honest():
        fed.FedClient(1, data, mdl.OptConfig(), seed=52).run(host, port, timeout=10.0)

    def poisoner():
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b'{"type":"hello","client_id":2,"examples":4}\n')
            conn = fed._Conn(sock, 5.0)
            begin = conn.recv()
            frame = {"type": "update", "round": 1, "examples": 4,
                     "params_b64": begin["params_b64"]}
            poison(frame)
            conn.send(frame)
            try:
                conn.recv()
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
    assert np.isfinite(server.global_params.flat).all()


def test_tcp_update_of_other_architecture_is_not_installed():
    init = mdl.init_model(NARROW, np.random.default_rng(20))
    wide = mdl.init_model(mdl.ModelConfig(hidden_width=16), np.random.default_rng(20))
    server = fed.FedServer(init, expected_clients=1, rounds=1,
                           min_clients=1, timeout_s=5.0)
    host, port = server.address

    def client():
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b'{"type":"hello","client_id":1,"examples":4}\n')
            conn = fed._Conn(sock, 5.0)
            conn.recv()  # round_begin
            conn.send({"type": "update", "round": 1, "examples": 4,
                       "params_b64": fed.params_b64(wide)})
            try:
                conn.recv()
            except (fed.ProtocolError, OSError):
                pass

    t = threading.Thread(target=client, daemon=True)
    t.start()
    with pytest.raises(fed.ProtocolError, match="need 1"):
        server.serve()
    t.join(timeout=10.0)
    assert not t.is_alive()
    assert server.global_params.shapes == init.shapes
    assert not server.records


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
                           min_clients=1, timeout_s=2.0)
    host, port = server.address
    serving, out = _serve_in_thread(server)

    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(hello)
        conn = fed._Conn(sock, 5.0)
        reply = conn.recv()
        with pytest.raises(fed.ProtocolError, match="closed"):
            conn.recv()
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
                           min_clients=2, timeout_s=5.0)
    host, port = server.address
    serving, out = _serve_in_thread(server)

    with socket.create_connection((host, port), timeout=5.0) as first:
        first.sendall(b'{"type":"hello","client_id":1,"examples":4}\n')
        with socket.create_connection((host, port), timeout=5.0) as dup:
            dup.sendall(b'{"type":"hello","client_id":1,"examples":4}\n')
            dup_conn = fed._Conn(dup, 5.0)
            reply = dup_conn.recv()
            with pytest.raises(fed.ProtocolError, match="closed"):
                dup_conn.recv()

        other = threading.Thread(
            target=fed.FedClient(2, data, mdl.OptConfig(), seed=54).run,
            args=(host, port, 10.0), daemon=True)
        other.start()
        conn = fed._Conn(first, 5.0)
        begin = conn.recv()
        conn.send({"type": "update", "round": 1, "examples": 4,
                   "params_b64": begin["params_b64"]})
        first_frames = [begin, conn.recv(), conn.recv()]
        other.join(timeout=10.0)
    serving.join(timeout=10.0)
    assert not other.is_alive() and not serving.is_alive()
    assert reply["type"] == "error"
    assert [f["type"] for f in first_frames] == ["round_begin", "round_end", "shutdown"]
    assert [r.participants for r in out["records"]] == [[1, 2]]


DRIP_S = 5.0


def _drip(sock, frame):
    """Send `frame` one byte every 0.1 s until the peer replies or hangs up,
    or DRIP_S has passed."""
    data = json.dumps(frame).encode() + b"\n"
    start = time.monotonic()
    for i in range(len(data)):
        if time.monotonic() - start > DRIP_S or select.select([sock], [], [], 0.1)[0]:
            return
        sock.sendall(data[i:i + 1])


def _oversize(sock, frame):
    """Send `frame` padded far past the server's frame cap, in one write."""
    try:
        sock.sendall(json.dumps({**frame, "pad": "x" * 65536}).encode() + b"\n")
    except OSError:
        pass  # the server may hang up before it has read everything


@pytest.mark.parametrize("phase", ["hello", "update"])
@pytest.mark.parametrize("send", [_drip, _oversize], ids=["drip", "oversized"])
def test_tcp_slow_or_oversized_frame_drops_its_peer(send, phase):
    # client 2 sends its hello or its update through `send`: the server must
    # refuse it within about timeout_s and serve the honest client 1 alone
    data = _toy_dataset(n=20)
    init = mdl.init_model(NARROW, np.random.default_rng(23))
    server = fed.FedServer(init, expected_clients=1 if phase == "hello" else 2, rounds=1,
                           timeout_s=1.0)
    host, port = server.address
    serving, out = _serve_in_thread(server)
    honest = threading.Thread(target=fed.FedClient(1, data, mdl.OptConfig(), seed=55).run,
                              args=(host, port, 10.0), daemon=True)
    frame = {"type": "hello", "client_id": 2, "examples": 4}
    with socket.create_connection((host, port), timeout=5.0) as sock:
        conn = fed._Conn(sock, 5.0)
        if phase == "update":
            conn.send(frame)
            honest.start()
            frame = {"type": "update", "round": 1, "examples": 4,
                     "params_b64": conn.recv()["params_b64"]}
        start = time.monotonic()
        send(sock, frame)
        try:
            reply = conn.recv()
        except (fed.ProtocolError, OSError):
            reply = None
        took = time.monotonic() - start
    if phase == "hello":
        honest.start()
    honest.join(timeout=10.0)
    serving.join(timeout=10.0)
    assert took < 3.0
    assert not serving.is_alive()
    assert (reply or {}).get("type") == ("error" if phase == "hello" else None)
    assert [r.participants for r in out["records"]] == [[1]]


def test_client_refuses_a_frame_that_is_not_an_object():
    data = _toy_dataset(n=20)
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5.0)
    host, port = listener.getsockname()

    def fake_server():
        sock, _ = listener.accept()
        with sock:
            fed._Conn(sock, 5.0).recv()  # hello
            sock.sendall(b"[]\n")
            try:
                sock.recv(1)  # until the client hangs up
            except OSError:
                pass

    t = threading.Thread(target=fake_server, daemon=True)
    t.start()
    with listener, pytest.raises(fed.ProtocolError, match="not a JSON object"):
        fed.FedClient(1, data, mdl.OptConfig(), seed=56).run(host, port, timeout=5.0)
    t.join(timeout=5.0)
    assert not t.is_alive()


_JSON = st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=20),
                     lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=8), inner, max_size=4), max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300).map(lambda b: b.replace(b"\n", b""))
       | _JSON.map(lambda v: json.dumps(v).encode()))
def test_frame_reader_returns_an_object_or_raises_protocol_error(line):
    a, b = socket.socketpair()
    with a, b:
        a.sendall(line + b"\n")
        try:
            frame = fed._Conn(b, 1.0, max_frame=200).recv()
        except fed.ProtocolError:
            return
    assert isinstance(frame, dict) and len(line) <= 200
    assert frame == json.loads(line)


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
