import ast
import base64
import contextlib
import dataclasses
import hashlib
import json
import re
import select
import socket
import threading
import time
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedvid import experiment, fed, labeling, model as mdl, records

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


def test_fed_avg_rejects_empty():
    # layouts and counts are the server's checks: see the update and hello tests
    with pytest.raises(fed.ProtocolError):
        fed.fed_avg([])


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
    params = fed.local_train(trainer, data, global_params, epochs=0)
    assert _equal(params, global_params)


def test_two_clients_report_partition_sizes():
    # each round weighs a client by the example count of its hello
    shards = [_toy_dataset(n=12, seed=1), _toy_dataset(n=30, seed=2)]
    g = mdl.init_model(NARROW, np.random.default_rng(2))
    _, records, _, _ = fed.train_federated_tcp(shards, g, mdl.OptConfig(), rounds=2,
                                               seeds=[3, 4], timeout=10.0)
    assert [r.example_counts for r in records] == [{1: 12, 2: 30}] * 2


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


def _pin_session():
    """Criterion 9's session with a held-out set."""
    shards = experiment.split_shards(_toy_dataset(n=30, seed=9), 2)
    init = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(21))
    return fed.train_federated_tcp(shards, init, mdl.OptConfig(), rounds=3, seeds=[51, 52],
                                   eval_dataset=_toy_dataset(n=20, seed=10), timeout=30.0)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_short_federated_session_bytes_pinned():
    # the round digests, the final model bytes, the per-round held-out losses,
    # the transcript and the bytes on the wire must not move
    final, records, transcript, losses = _pin_session()
    assert _sha(repr([r.digest for r in records]).encode()) == (
        "4c1bcac55bf74397a901745f6a59f8effbb7f93c871b0f9cb662d3101aa44d08")
    assert _sha(mdl.params_to_bytes(final)) == (
        "f7b0903a3fdaad46107fcd56b366cfb69c6fe55aefc09619f273a370081da342")
    assert _sha(repr(losses).encode()) == (
        "ea65b3521961de584a1d3c3a333e0ffe1c8bb514fa58efcd17d1216a7faa2934")
    # the hellos in client id order, then every blob as its length and digest
    assert _sha("\n".join(transcript).encode()) == (
        "b0ad9168616f0bf4b6552e4bd63480aef279767c22c26a6172ac466294ced37a")
    # every byte on the wire, newlines included: the rounds' socket counts,
    # then the hello and shutdown frames, which the transcript keeps whole
    round_bytes = sum(sum(r.bytes_in.values()) + sum(r.bytes_out.values()) for r in records)
    others = [line.split(" ", 1)[1] for line in transcript if '"round"' not in line]
    assert round_bytes + sum(len(frame) + 1 for frame in others) == 4_938_428


def test_transcript_of_a_session_is_one_text():
    # the clients race to connect, but the kept hellos are logged in client id order
    assert len({_sha("\n".join(_pin_session()[2]).encode()) for _ in range(3)}) == 1


@settings(max_examples=50, deadline=None)
@given(kind=st.sampled_from(["round_begin", "update"]), rnd=st.integers(1, 10**6),
       width=st.integers(1, 6), layers=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_spliced_params_frame_equals_json_dumps(kind, rnd, width, layers, seed):
    params = mdl.init_model(mdl.ModelConfig(input_dim=3, hidden_width=width,
                                            hidden_layers=layers), np.random.default_rng(seed))
    blob = fed.params_b64(params)
    expected = json.dumps({"type": kind, "round": rnd, "params_b64": blob}, separators=(",", ":"))
    frame = fed.FRAMES[kind](rnd, blob)
    a, b = socket.socketpair()
    with a, b:
        fed._Conn(a, 1.0).send(frame)
        wire = b""
        while not wire.endswith(b"\n"):
            wire += b.recv(65536)
    assert wire == expected.encode() + b"\n"
    # the transcript keeps the blob's length and BLAKE2b in its place
    digest = hashlib.blake2b(blob.encode(), digest_size=8).hexdigest()
    assert fed._frame_line(frame, log=True) == expected.replace(
        blob, f"{len(blob)} bytes blake2b {digest}")


def test_tcp_single_client_degenerates_to_centralized():
    data = _toy_dataset(n=40)
    init = mdl.init_model(NARROW, np.random.default_rng(13))
    central = mdl.Trainer(init.copy(), mdl.OptConfig(), seed=33)
    central.run_epochs(data, 5)
    final, records, _, _ = fed.train_federated_tcp(
        [data], init.copy(), mdl.OptConfig(), rounds=5, seeds=[33], timeout=10.0)
    assert _equal(final, central.params)


def _narrow_shard_error(with_honest: bool) -> ValueError:
    """The error of a session whose last shard has 10 feature columns where the
    model takes 11, after an honest shard or alone."""
    data = _toy_dataset(n=40)
    bad = labeling.TrainingArrays(X=data.X[20:, :10], FB=data.FB[20:], Y=data.Y[20:])
    init = mdl.init_model(NARROW, np.random.default_rng(12))
    threads_before = threading.active_count()
    with pytest.raises(ValueError, match="takes 11 input features, the data has 10") as exc:
        fed.train_federated_tcp([data, bad] if with_honest else [bad], init, mdl.OptConfig(),
                                rounds=2, seeds=[21, 22] if with_honest else [22], timeout=10.0)
    assert threading.active_count() == threads_before
    return exc.value


def test_tcp_session_raises_a_failing_clients_error():
    assert _narrow_shard_error(with_honest=True).__cause__ is None


def test_tcp_session_ended_by_a_failing_client_raises_its_error():
    # alone, the failing client leaves no update, so the server ends the session
    assert isinstance(_narrow_shard_error(with_honest=False).__cause__, fed.ProtocolError)


@pytest.mark.parametrize("timeout_s", [0.0, -1.0, float("nan"), float("inf")])
def test_server_refuses_a_timeout_that_is_not_positive_and_finite(timeout_s):
    init = mdl.init_model(NARROW, np.random.default_rng(12))
    refused = "below inf" if timeout_s == float("inf") else "above 0.0"
    with pytest.raises(ValueError, match=f"^timeout_s {timeout_s} is not {refused}$"):
        fed.FedServer(init, expected_clients=1, rounds=1, timeout_s=timeout_s)


def test_server_and_client_refuse_counts_below_one():
    init = mdl.init_model(NARROW, np.random.default_rng(12))
    with pytest.raises(ValueError, match="^rounds -1 is not at least 1$"):
        fed.FedServer(init, expected_clients=1, rounds=-1, timeout_s=1.0)
    with pytest.raises(ValueError, match="^local_epochs -2 is not at least 1$"):
        fed.FedClient(1, _toy_dataset(n=4), mdl.OptConfig(), seed=1, local_epochs=-2)
    # one rule, which the experiment config's counts share
    assert {rule for field, _, rule in records.field_rules(experiment.ExperimentConfig)
            if field in ("rounds", "local_epochs")} == {fed.COUNT_RULE}


def test_client_refuses_a_timeout_that_is_not_positive_before_it_connects(monkeypatch):
    def connect(*args, **kwargs):
        raise AssertionError("connected")
    monkeypatch.setattr(fed.socket, "create_connection", connect)
    client = fed.FedClient(1, _toy_dataset(n=4), mdl.OptConfig(), seed=3)
    with pytest.raises(ValueError, match="^timeout 0 is not above 0.0$"):
        client.run("127.0.0.1", 9, timeout=0)


@pytest.mark.parametrize("min_clients", [0, 3])
def test_server_refuses_min_clients_outside_one_to_expected(min_clients):
    init = mdl.init_model(NARROW, np.random.default_rng(12))
    with pytest.raises(ValueError, match=f"^min_clients {min_clients} must be between 1 and "
                                         f"expected_clients 2$"):
        fed.FedServer(init, expected_clients=2, rounds=1, min_clients=min_clients)


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
            threads.append(threading.Thread(target=clients[cid].run, args=(host, port, 10.0),
                                            daemon=True))
            threads[-1].start()
            deadline = time.monotonic() + 5.0
            while cid not in server.weights and time.monotonic() < deadline:
                time.sleep(0.01)  # wait for this client's hello
        for t in threads + [serving]:
            t.join(timeout=10.0)
        assert list(server.weights) == list(order)   # the order the hellos were kept in
        hellos = [json.loads(line.split(" ", 1)[1]) for line in server.transcript]
        assert [h["client_id"] for h in hellos if h["type"] == "hello"] == [1, 2]
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
    assert isinstance(result["reply"], fed.Error)


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
        conn.send(fed.Hello(2, 4))
        honest = threading.Thread(target=fed.FedClient(1, data, mdl.OptConfig(), seed=57).run,
                                  args=(host, port, 10.0), daemon=True)
        honest.start()
        conn.send(fed.Update(1, conn.recv().params_b64))
    honest.join(timeout=10.0)
    serving.join(timeout=10.0)
    assert not honest.is_alive() and not serving.is_alive()
    assert [r.participants for r in out["records"]] == [[1, 2], [1]]


def _counting_peer(host, port, cid, rounds, bad_round=None):
    """Client `cid` on a bare socket: it answers each round_begin with the
    broadcast's own parameters, or in `bad_round` with an update of another
    round. For each round it appends to `rounds` the lines it read and the
    line it wrote, newlines included."""
    with socket.create_connection((host, port), timeout=10.0) as sock, \
            sock.makefile("rb") as lines:
        sock.sendall(b'{"type":"hello","client_id":%d,"examples":4}\n' % cid)
        while not isinstance(frame := fed.decode_frame(line := lines.readline()), fed.Shutdown):
            if isinstance(frame, fed.RoundBegin):
                update = fed.Update(frame.round + (frame.round == bad_round), frame.params_b64)
                data = fed._frame_line(update).encode() + b"\n"
                sock.sendall(data)
                rounds.append(([line], data))
            else:   # round_end, or the error frame before the server hangs up
                rounds[-1][0].append(line)
                if isinstance(frame, fed.Error):
                    return


def test_round_records_count_the_bytes_each_client_sent_and_got():
    # client 2 answers round 2 with an update of round 3, so it is dropped there
    init = mdl.init_model(NARROW, np.random.default_rng(27))
    server = fed.FedServer(init, expected_clients=2, rounds=3, timeout_s=5.0)
    host, port = server.address
    serving, out = _serve_in_thread(server)
    seen = {1: [], 2: []}
    peers = [threading.Thread(target=_counting_peer, args=(host, port, cid, seen[cid]),
                              kwargs={"bad_round": 2 if cid == 2 else None}, daemon=True)
             for cid in (1, 2)]
    for t in peers:
        t.start()
    for t in peers + [serving]:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in peers + [serving])
    records = out["records"]
    assert [r.participants for r in records] == [[1, 2], [1], [1]]
    assert [list(r.bytes_in) for r in records] == [[1, 2], [1, 2], [1]]
    assert [list(r.bytes_out) for r in records] == [[1, 2], [1, 2], [1]]
    for cid, rounds in seen.items():
        assert len(rounds) == (3 if cid == 1 else 2)
        for record, (got, sent) in zip(records, rounds):
            kinds = [type(fed.decode_frame(line)) for line in got]
            dropped = cid == 2 and record.round == 2
            assert kinds == [fed.RoundBegin, fed.Error if dropped else fed.RoundEnd]
            assert record.bytes_out[cid] == len(got[0]) + len(got[1])
            assert record.bytes_in[cid] == len(sent)


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
                conn.send(fed.Update(1, frame.params_b64))
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


def test_failed_round_leaves_the_losses_of_the_rounds_before_it():
    # client 2 hangs up after its round-1 update, so round 2 falls below
    # min_clients; the one loss left is the round-1 model's
    data, held_out = _toy_dataset(n=20), _toy_dataset(n=12, seed=8)
    init = mdl.init_model(NARROW, np.random.default_rng(25))
    server = fed.FedServer(init, expected_clients=2, rounds=2, min_clients=2, timeout_s=5.0,
                           eval_dataset=held_out)
    host, port = server.address

    def honest():
        try:
            fed.FedClient(1, data, mdl.OptConfig(), seed=58).run(host, port, timeout=10.0)
        except (fed.ProtocolError, OSError):
            pass   # the server ends the session in round 2

    def quitter():
        with socket.create_connection((host, port), timeout=5.0) as sock:
            conn = fed._Conn(sock, 5.0)
            conn.send(fed.Hello(2, 4))
            conn.send(fed.Update(1, conn.recv().params_b64))
            conn.recv()   # round_end, then hang up

    threads = [threading.Thread(target=f, daemon=True) for f in (honest, quitter)]
    for t in threads:
        t.start()
    with pytest.raises(fed.ProtocolError, match="round 2: .* need 2"):
        server.serve()
    for t in threads:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads)
    assert len(server.records) == 1
    assert server.eval_losses == [mdl.mean_loss(server.global_params, held_out)]


def test_hello_phase_timeout_counts_the_hellos_and_names_the_refusals():
    # a hello of examples 0 is refused, so the second client never arrives
    init = mdl.init_model(NARROW, np.random.default_rng(26))
    server = fed.FedServer(init, expected_clients=2, rounds=1, timeout_s=1.0)
    host, port = server.address

    def client():
        try:
            fed.FedClient(1, _toy_dataset(n=20), mdl.OptConfig(), seed=59).run(host, port, 10.0)
        except (fed.ProtocolError, OSError):
            pass   # the server ends the session in its hello phase

    honest = threading.Thread(target=client, daemon=True)
    honest.start()
    start = time.monotonic()
    with socket.create_connection((host, port), timeout=5.0) as sock:
        sock.sendall(b'{"type":"hello","client_id":2,"examples":0}\n')
        with pytest.raises(fed.ProtocolError, match="1 of 2") as exc:
            server.serve()
    honest.join(timeout=10.0)
    assert "hello: examples 0 is not above 0" in str(exc.value)
    assert time.monotonic() - start < 10.0
    assert not honest.is_alive()


def test_hello_phase_keeps_the_first_refusals_and_counts_the_rest():
    # 50 garbage connections, then none: the transcript and the error hold
    # the first REFUSALS_KEPT refusals, and the error counts the other 42
    init = mdl.init_model(NARROW, np.random.default_rng(27))
    server = fed.FedServer(init, expected_clients=1, rounds=1, timeout_s=1.0)
    host, port = server.address
    serving, failed = _serve_until_it_fails(server)
    for i in range(50):
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b"garbage %d\n" % i)
            assert isinstance(fed._Conn(sock, 5.0).recv(), fed.Error)
    serving.join(timeout=10.0)
    assert not serving.is_alive()
    assert fed.REFUSALS_KEPT == 8
    assert len(server.transcript) == 2 * fed.REFUSALS_KEPT
    assert failed["error"].startswith("0 of 1 clients said hello")
    assert failed["error"].count("bad frame: not JSON") == fed.REFUSALS_KEPT
    assert failed["error"].endswith("; and 42 more refused")
    assert len(failed["error"]) < 1_500


def test_client_of_an_empty_shard_fails_before_its_hello():
    data = _toy_dataset(n=20)
    empty = labeling.TrainingArrays(X=data.X[:0], FB=data.FB[:0], Y=data.Y[:0])
    with socket.create_server(("127.0.0.1", 0)) as listener:
        with pytest.raises(ValueError, match="^examples 0 is not above 0$"):
            fed.FedClient(1, empty, mdl.OptConfig(), seed=60).run(*listener.getsockname(), 1.0)
        listener.settimeout(0.0)
        with pytest.raises(BlockingIOError):
            listener.accept()   # it never connected


def _serve_in_thread(server):
    out = {}

    def run():
        out["records"] = server.serve()

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t, out


def _serve_until_it_fails(server):
    """Run `server.serve()` in a thread that expects a ProtocolError; `failed`
    gets its text and the time it was raised."""
    failed = {}

    def run():
        with pytest.raises(fed.ProtocolError) as exc:
            server.serve()
        failed["error"], failed["at"] = str(exc.value), time.monotonic()

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t, failed


def _session_with_peer(update, rounds=1):
    """Serve the honest client 1 and peer 2 for `rounds` rounds. The peer says
    hello with 4 examples, then answers each round_begin frame with the line
    `update(frame)`, until the server sends shutdown or drops it."""
    data = _toy_dataset(n=20)
    init = mdl.init_model(NARROW, np.random.default_rng(19))
    server = fed.FedServer(init, expected_clients=2, rounds=rounds,
                           min_clients=1, timeout_s=5.0)
    host, port = server.address

    def honest():
        fed.FedClient(1, data, mdl.OptConfig(), seed=52).run(host, port, timeout=10.0)

    def peer():
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b'{"type":"hello","client_id":2,"examples":4}\n')
            conn = fed._Conn(sock, 5.0)
            try:
                while not isinstance(frame := conn.recv(), fed.Shutdown):
                    if isinstance(frame, fed.RoundBegin):
                        sock.sendall(update(frame).encode() + b"\n")
            except (fed.ProtocolError, OSError):
                pass

    threads = [threading.Thread(target=f, daemon=True) for f in (honest, peer)]
    for t in threads:
        t.start()
    records = server.serve()
    for t in threads:
        t.join(timeout=10.0)
    assert not any(t.is_alive() for t in threads)
    return server, records


def _update(frame, **fields):
    """The update line that answers the round_begin `frame` with its own
    parameters, changed by `fields`; without `fields` it is accepted."""
    return json.dumps({"type": "update", "round": frame.round, "params_b64": frame.params_b64,
                       **fields})


def _poison_nan(frame):
    params = fed.params_from_b64(frame.params_b64)
    params.weights[0][0, 3] = np.nan
    return _update(frame, params_b64=fed.params_b64(params))


def _poison_blob_type(frame):
    return _update(frame, params_b64=12345)


def _poison_blob_alphabet(frame):
    # a lenient base64 decoder skips the '!' and reads the broadcast itself
    return _update(frame, params_b64=frame.params_b64[:8] + "!" + frame.params_b64[8:])


def _poison_blob_surrogate(frame):
    # JSON reads the escape as a lone surrogate, which no UTF-8 encoder takes
    return _update(frame, params_b64="\ud800")


@pytest.mark.parametrize("poison", [_poison_nan, _poison_blob_type, _poison_blob_alphabet,
                                    _poison_blob_surrogate])
def test_tcp_poisoned_update_is_dropped(poison):
    server, records = _session_with_peer(poison)
    assert [r.participants for r in records] == [[1]]
    # the poisoned frame is logged too: two hellos and two updates received
    assert sum(line.startswith("recv ") for line in server.transcript) == 4
    assert np.isfinite(server.global_params.flat).all()


@pytest.mark.parametrize("value", ["Infinity", "1e999", "true", "1.0", '"1"', "0", "2"])
def test_tcp_update_whose_round_is_not_the_int_round_is_dropped(value):
    _, records = _session_with_peer(lambda frame: _update(frame, round="R").replace('"R"', value))
    assert [r.participants for r in records] == [[1]]


def test_tcp_update_cannot_claim_a_weight_beyond_its_hello():
    # the hello's examples are the weight; an update that carries a count is
    # refused for its unknown key, so no claim reaches a round's weights
    digests = []
    for claim in (4, 10**12):
        _, records = _session_with_peer(lambda frame: _update(frame, examples=claim), rounds=2)
        assert [r.participants for r in records] == [[1], [1]]
        assert all(r.example_counts == {1: 20} for r in records)
        digests.append([r.digest for r in records])
    assert digests[0] == digests[1]


def test_tcp_update_of_other_architecture_is_not_installed():
    init = mdl.init_model(NARROW, np.random.default_rng(20))
    # narrower than the global model, so that its frame fits under the server's
    # frame cap and only the layout check can refuse it
    other = mdl.init_model(mdl.ModelConfig(input_dim=11, hidden_width=4), np.random.default_rng(20))
    server = fed.FedServer(init, expected_clients=1, rounds=1,
                           min_clients=1, timeout_s=5.0)
    host, port = server.address

    def client():
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall(b'{"type":"hello","client_id":1,"examples":4}\n')
            conn = fed._Conn(sock, 5.0)
            conn.recv()  # round_begin
            conn.send(fed.Update(1, fed.params_b64(other)))
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


def _bad_hello_then_honest_client(init, hello):
    """Send `hello` to a one-client server of `init`; it must answer with an
    error frame and a hang-up, then serve an honest client."""
    data = _toy_dataset(n=20)
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
    assert isinstance(reply, fed.Error)

    rounds = fed.FedClient(3, data, mdl.OptConfig(), seed=53).run(host, port, timeout=10.0)
    serving.join(timeout=10.0)
    assert not serving.is_alive()
    assert rounds == 1
    assert [r.participants for r in out["records"]] == [[3]]
    return reply


_HELLO_EXAMPLES = {"zero": b"0", "negative": b"-1", "true": b"true", "float": b"1.5",
                   "string": b'"4"'}
_CLIENT_ID_REFUSED = {   # hello -> the reason of its refusal
    b'{"type":"hello","client_id":0,"examples":4}\n':
        "bad frame: hello: client_id 0 is not at least 1",
    b'{"type":"hello","client_id":-7,"examples":3}\n':
        "bad frame: hello: client_id -7 is not at least 1",
}


@pytest.mark.parametrize("hello", [
    b"not json\n",
    b'["hello"]\n',
    b'{"type":"hello","examples":4}\n',
    b'{"type":"hello","client_id":"one","examples":4}\n',
    *_CLIENT_ID_REFUSED,
    b"",
    *(b'{"type":"hello","client_id":2,"examples":%s}\n' % v for v in _HELLO_EXAMPLES.values()),
    b'{"type":"hello","client_id":2}\n',
    b'{"type":"update","round":1,"params_b64":"\\ud800"}\n',
], ids=["not-json", "not-object", "no-client-id", "string-client-id", "client-id-zero",
        "client-id-negative", "silent",
        *(f"examples-{name}" for name in _HELLO_EXAMPLES), "no-examples", "surrogate-update"])
def test_tcp_bad_hello_gets_error_and_server_keeps_accepting(hello):
    reply = _bad_hello_then_honest_client(mdl.init_model(NARROW, np.random.default_rng(21)), hello)
    assert reply.reason == _CLIENT_ID_REFUSED.get(hello, reply.reason)


def test_tcp_deeply_nested_hello_to_a_default_size_server_is_refused():
    # 200,000 '[' fit in the frame cap of the default model's broadcast
    init = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(21))
    _bad_hello_then_honest_client(init, b"[" * 200_000 + b"\n")


def test_tcp_hello_of_a_huge_client_id_is_refused_with_a_short_reason():
    init = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(21))
    hello = json.dumps({"type": "hello", "client_id": "7" * 400_000, "examples": 4})
    reply = _bad_hello_then_honest_client(init, hello.encode() + b"\n")
    assert reply.reason.startswith("bad frame: hello: client_id '7777")
    assert len(reply.reason) < 200


@pytest.mark.parametrize("line", [
    '{"type":"hello","client_id":"%s","examples":4}' % ("7" * 400_000),
    '{"type":"hello","client_id":1,"examples":4,"%s":1}' % ("k" * 400_000),
    '{"type":"%s"}' % ("t" * 400_000),
    '{"type":"hello","client_id":1,"examples":-%s}' % ("9" * 4000),
    '{"type":"hello","client_id":[%s],"examples":4}' % ",".join(['"%s"' % ("s" * 9999)] * 40),
    '{"type":"hello","client_id":{%s},"examples":4}' % ",".join(
        f'"{i}{"k" * 9999}":[{"[" * 50}{"]" * 50}]' for i in range(40)),
    '{"type":"hello","client_id":1%s.0,"examples":4}' % ("0" * 400_000),
], ids=["long-string", "long-key", "long-type", "huge-int", "long-list", "long-object",
        "non-finite"])
def test_decode_frame_quotes_a_refused_value_briefly(line):
    with pytest.raises(ValueError) as exc:
        fed.decode_frame(line)
    assert len(f"bad frame: {exc.value}") < 200


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
        conn.send(fed.Update(1, begin.params_b64))
        first_frames = [begin, conn.recv(), conn.recv()]
        other.join(timeout=10.0)
    serving.join(timeout=10.0)
    assert not other.is_alive() and not serving.is_alive()
    assert isinstance(reply, fed.Error)
    assert [type(f) for f in first_frames] == [fed.RoundBegin, fed.RoundEnd, fed.Shutdown]
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
            conn.send(fed.Hello(2, 4))
            honest.start()
            frame = {"type": "update", "round": 1, "params_b64": conn.recv().params_b64}
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
    assert isinstance(reply, fed.Error)
    assert [r.participants for r in out["records"]] == [[1]]


def _silent(sock, frame):
    """Send nothing: wait until the peer replies or hangs up, or DRIP_S has passed."""
    select.select([sock], [], [], DRIP_S)


def test_silent_socket_that_connects_first_does_not_delay_an_honest_client():
    # the server reads every pending connection at once, so the silent one
    # costs the honest client nothing; one at a time, it cost all of timeout_s
    init = mdl.init_model(NARROW, np.random.default_rng(29))
    server = fed.FedServer(init, expected_clients=1, rounds=1, timeout_s=2.0)
    host, port = server.address
    with socket.create_connection((host, port), timeout=5.0):
        start = time.monotonic()
        serving, out = _serve_in_thread(server)
        rounds = fed.FedClient(1, _toy_dataset(n=20), mdl.OptConfig(), seed=62).run(host, port, 10.0)
        serving.join(timeout=10.0)
        took = time.monotonic() - start
    assert not serving.is_alive() and rounds == 1
    assert [r.participants for r in out["records"]] == [[1]]
    assert took < 1.0


@pytest.mark.parametrize("send", [_silent, _drip], ids=["silent", "drip"])
def test_slow_peers_hold_a_round_for_one_timeout_together(send):
    # peers 1 and 2 say hello, then send their updates through `send`: the
    # round ends one timeout_s after its broadcast, not one per slow peer, and
    # keeps the complete update of the honest client 3
    timeout_s = 1.0
    init = mdl.init_model(NARROW, np.random.default_rng(30))
    server = fed.FedServer(init, expected_clients=3, rounds=1, timeout_s=timeout_s)
    host, port = server.address
    serving, out = _serve_in_thread(server)
    began = {}

    def slow_peer(cid):
        with socket.create_connection((host, port), timeout=5.0) as sock:
            conn = fed._Conn(sock, 5.0)
            conn.send(fed.Hello(cid, 4))
            begin = conn.recv()
            began[cid] = time.monotonic()
            send(sock, {"type": "update", "round": 1, "params_b64": begin.params_b64})

    peers = [threading.Thread(target=slow_peer, args=(cid,), daemon=True) for cid in (1, 2)]
    honest = threading.Thread(target=fed.FedClient(3, _toy_dataset(n=20), mdl.OptConfig(),
                                                   seed=63).run, args=(host, port, 10.0),
                              daemon=True)
    for t in [*peers, honest]:
        t.start()
    for t in [*peers, honest, serving]:
        t.join(timeout=15.0)
    took = time.monotonic() - min(began.values())
    assert not any(t.is_alive() for t in [*peers, honest, serving])
    assert [r.participants for r in out["records"]] == [[3]]
    assert took < 1.5 * timeout_s


def test_garbage_reconnect_loop_cannot_hold_the_hello_phase_open():
    # client 1 says hello, then a peer reconnects with garbage until the
    # server stops listening: the phase ends one timeout_s after the kept hello
    timeout_s = 1.0
    init = mdl.init_model(NARROW, np.random.default_rng(31))
    server = fed.FedServer(init, expected_clients=2, rounds=1, timeout_s=timeout_s)
    host, port = server.address
    serving, failed = _serve_until_it_fails(server)
    with socket.create_connection((host, port), timeout=5.0) as honest:
        honest.sendall(b'{"type":"hello","client_id":1,"examples":4}\n')
        while 1 not in server.weights:
            time.sleep(0.01)
        kept = time.monotonic()
        while serving.is_alive() and time.monotonic() - kept < 5 * timeout_s:
            try:
                with socket.create_connection((host, port), timeout=5.0) as sock:
                    sock.sendall(b"garbage\n")
                    fed._Conn(sock, 5.0).recv()
            except (fed.ProtocolError, OSError):
                pass   # the server closed the connection, or no longer listens
        serving.join(timeout=10.0)
    assert not serving.is_alive()
    assert failed["error"].startswith("1 of 2 clients said hello")
    assert failed["at"] - kept < 1.5 * timeout_s


def test_hello_phase_closes_connections_beyond_those_it_awaits():
    # with expected_clients + REFUSALS_KEPT connections pending, the next one is
    # closed unread, so a peer that opens many sockets cannot use up the
    # server's file descriptors
    init = mdl.init_model(NARROW, np.random.default_rng(33))
    server = fed.FedServer(init, expected_clients=1, rounds=1, timeout_s=2.0)
    host, port = server.address
    serving, failed = _serve_until_it_fails(server)
    pending = [socket.create_connection((host, port), timeout=5.0)
               for _ in range(1 + fed.REFUSALS_KEPT)]
    try:
        with socket.create_connection((host, port), timeout=1.0) as extra:
            assert extra.recv(1) == b""
    finally:
        for sock in pending:
            sock.close()
    serving.join(timeout=10.0)
    assert not serving.is_alive()
    # the pending connections were refused when they hung up; the extra one was no refusal
    assert failed["error"].startswith("0 of 1 clients said hello")
    assert failed["error"].endswith("; and 1 more refused")


def test_silent_connections_one_after_another_cannot_hold_the_hello_phase_open():
    # a peer opens a silent connection every 0.25 s, for 3 s at most: each is
    # refused timeout_s after its accept, and only the phase's first refusal
    # for silence restarts the phase's wait, so serve fails within a few timeout_s
    timeout_s = 0.3
    init = mdl.init_model(NARROW, np.random.default_rng(34))
    server = fed.FedServer(init, expected_clients=1, rounds=1, timeout_s=timeout_s)
    host, port = server.address
    start = time.monotonic()
    serving, failed = _serve_until_it_fails(server)
    opened = []
    try:
        while serving.is_alive() and time.monotonic() - start < 3.0:
            with contextlib.suppress(OSError):   # the server no longer listens
                opened.append(socket.create_connection((host, port), timeout=1.0))
            time.sleep(0.25)
    finally:
        for sock in opened:
            sock.close()
    serving.join(timeout=10.0)
    assert not serving.is_alive()
    assert failed["error"].startswith("0 of 1 clients said hello")
    assert failed["at"] - start < 4 * timeout_s


def test_a_reply_that_never_comes_is_a_protocol_error():
    a, b = socket.socketpair()
    with a, b:
        start = time.monotonic()
        with pytest.raises(fed.ProtocolError, match=r"frame incomplete after 0\.5 s"):
            fed._Conn(a, 0.5).recv()
        assert time.monotonic() - start < 2.0


def test_client_facing_a_server_that_never_replies_raises_protocol_error():
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5.0)
    host, port = listener.getsockname()
    accepted = []
    t = threading.Thread(target=lambda: accepted.append(listener.accept()[0]), daemon=True)
    t.start()
    try:
        # a client waits twice its timeout for each reply
        with pytest.raises(fed.ProtocolError, match=r"frame incomplete after 0\.5 s"):
            fed.FedClient(1, _toy_dataset(n=20), mdl.OptConfig(), seed=65).run(
                host, port, timeout=0.25)
    finally:
        t.join(timeout=5.0)
        listener.close()
        for sock in accepted:
            sock.close()
    assert not t.is_alive()


def test_honest_client_outlasts_the_servers_wait_on_a_silent_peer():
    # a client waits twice its timeout for a reply, so behind a peer that
    # says hello and goes silent it still gets round_end from a server of
    # the same timeout, and trains every round
    init = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(32))
    for _ in range(3):
        server = fed.FedServer(init.copy(), expected_clients=2, rounds=2, timeout_s=1.0)
        host, port = server.address
        serving, out = _serve_in_thread(server)
        trained = {}

        def honest():
            trained["rounds"] = fed.FedClient(1, _toy_dataset(n=20), mdl.OptConfig(),
                                              seed=64).run(host, port, timeout=1.0)

        with socket.create_connection((host, port), timeout=5.0) as silent:
            silent.sendall(b'{"type":"hello","client_id":2,"examples":4}\n')
            client = threading.Thread(target=honest, daemon=True)
            client.start()
            client.join(timeout=15.0)
            serving.join(timeout=15.0)
        assert not client.is_alive() and not serving.is_alive()
        assert trained == {"rounds": 2}
        assert [r.participants for r in out["records"]] == [[1], [1]]


def test_transcript_stays_bounded_whatever_peers_send():
    # before two honest clients say hello, one peer sends a garbage line just
    # under the frame cap, one a hello of a 400,000-character client_id and one
    # an error frame of a 400,000-character reason; none of it, and no blob of
    # the default-width model, is kept whole
    init = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(28))
    assert init.flat.size == 38_553
    server = fed.FedServer(init, expected_clients=2, rounds=3, timeout_s=10.0)
    host, port = server.address
    serving, out = _serve_in_thread(server)
    max_frame = len(fed.params_b64(init)) + fed.ENVELOPE_BYTES
    for line in (b"x" * (max_frame - 1),
                 json.dumps({"type": "hello", "client_id": "7" * 400_000, "examples": 4}).encode(),
                 json.dumps({"type": "error", "reason": "r" * 400_000}).encode()):
        with socket.create_connection((host, port), timeout=10.0) as sock:
            sock.sendall(line + b"\n")
            reply = fed._Conn(sock, 10.0).recv()
        assert isinstance(reply, fed.Error) and len(reply.reason) < 200
    honest = [threading.Thread(target=fed.FedClient(cid, _toy_dataset(n=20, seed=cid),
                                                    mdl.OptConfig(), seed=60 + cid).run,
                               args=(host, port, 10.0), daemon=True) for cid in (1, 2)]
    for t in honest:
        t.start()
    for t in honest + [serving]:
        t.join(timeout=20.0)
    assert not any(t.is_alive() for t in honest + [serving])
    assert [r.participants for r in out["records"]] == [[1, 2]] * 3
    # 3 refusals of 2 lines, 2 hellos, 3 rounds of 6 frames, 2 shutdowns
    assert len(server.transcript) == 3 * 2 + 2 + 3 * 6 + 2
    assert max(map(len, server.transcript)) <= fed.ENVELOPE_BYTES
    assert sum(map(len, server.transcript)) < 16_384


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
@given(line=st.binary(max_size=300).map(lambda b: b.replace(b"\n", b""))
       | _JSON.map(lambda v: json.dumps(v).encode()), max_frame=st.just(200))
@example(line=b'{"a": NaN}', max_frame=200)
@example(line=b'{"a": [-Infinity]}', max_frame=200)
@example(line=b'{"a": 1e999}', max_frame=200)
@example(line=b"[" * 100_000, max_frame=200_000)
def test_frame_reader_returns_an_object_or_raises_protocol_error(line, max_frame):
    a, b = socket.socketpair()
    with a, b:
        a.sendall(line + b"\n")
        try:
            frame = fed._Conn(b, 1.0, max_frame=max_frame).recv()
        except fed.ProtocolError:
            return
    record = json.loads(line)
    assert len(line) <= max_frame and type(frame) is fed.FRAMES[record.pop("type")]
    assert vars(frame) == record
    json.dumps(record, allow_nan=False)   # every number is finite


def test_transcript_carries_no_training_payloads():
    data = _toy_dataset(n=20)
    init = mdl.init_model(NARROW, np.random.default_rng(16))
    _, _, transcript, _ = fed.train_federated_tcp(
        [data], init, mdl.OptConfig(), rounds=2, seeds=[44], timeout=10.0)
    forbidden = ('"features"', '"target"', '"validity_mask"', '"feedback"',
                 '"latlng"', '"dataset"', '"X"', '"Y"', '"FB"')
    for line in transcript:
        payload = line.split(" ", 1)[1]
        assert set(json.loads(payload)) <= _WIRE_KEYS
        assert not any(token in payload for token in forbidden)


# --- frames -----------------------------------------------------------------------

_WIRE_KEYS = {"type"} | {f.name for tp in fed.FRAMES.values() for f in dataclasses.fields(tp)}
_B64 = st.binary(max_size=48).map(lambda b: base64.b64encode(b).decode("ascii"))
_FRAME_VALUES = {
    fed.Hello: st.builds(fed.Hello, st.integers(min_value=1), st.integers(min_value=1)),
    fed.RoundBegin: st.builds(fed.RoundBegin, st.integers(), _B64),
    fed.Update: st.builds(fed.Update, st.integers(), _B64),
    fed.RoundEnd: st.builds(fed.RoundEnd, st.integers(), st.integers()),
    fed.Error: st.builds(fed.Error, st.text()),
    fed.Shutdown: st.builds(fed.Shutdown),
}
_OF_TYPE = {int: st.integers(), str: st.text(max_size=8) | _B64}
_FIELD_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8) | _B64,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8)
_DEEP = "[" * 100_000 + "]" * 100_000


def test_wire_keys_are_criterion_9s_allowed_fields():
    # criterion 9's allowed keys, read from its source, are exactly the frames' keys
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text())
    allowed = [ast.literal_eval(node.value) for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "allowed_fields" for t in node.targets)]
    assert allowed == [_WIRE_KEYS]


@settings(max_examples=300, deadline=None)
@given(frame=st.one_of(*_FRAME_VALUES.values()))
def test_every_frame_round_trips_through_its_line(frame):
    assert set(_FRAME_VALUES) == set(fed.FRAMES.values())   # every frame type is drawn
    assert fed.decode_frame(fed._frame_line(frame)) == frame


class _CutSocket:
    """One end of a socketpair whose `recv` returns at most the next of
    `sizes` bytes, and records the largest chunk it returned."""

    def __init__(self, sock, sizes):
        self.sock, self.sizes, self.largest = sock, list(sizes), 0

    def settimeout(self, timeout):
        self.sock.settimeout(timeout)

    def recv(self, n):
        chunk = self.sock.recv(min(n, self.sizes.pop(0)) if self.sizes else n)
        self.largest = max(self.largest, len(chunk))
        return chunk


@st.composite
def _cut(draw, stream: bytes) -> list[int]:
    """The sizes of the pieces that `stream` falls into when cut at drawn
    offsets, some of them on a newline or just after one."""
    ends = [i for i, byte in enumerate(stream) if byte == ord("\n")]
    at = st.integers(0, len(stream))
    if ends:
        at |= st.sampled_from(ends) | st.sampled_from(ends).map(lambda i: i + 1)
    cuts = sorted(c for c in draw(st.sets(at, max_size=24)) if 0 < c < len(stream))
    return [b - a for a, b in zip([0, *cuts], [*cuts, len(stream)])]


@settings(max_examples=200, deadline=None)
@given(frames=st.lists(st.one_of(*_FRAME_VALUES.values()), min_size=1, max_size=6),
       data=st.data())
def test_frames_survive_any_chunking_of_the_stream(frames, data):
    stream = b"".join(fed._wire(f) for f in frames)
    a, b = socket.socketpair()
    with a, b:
        a.sendall(stream)
        conn = fed._Conn(_CutSocket(b, data.draw(_cut(stream))), 1.0)
        assert [conn.recv() for _ in frames] == frames
        assert conn.received == len(stream)


@settings(max_examples=100, deadline=None)
@given(frames=st.lists(st.one_of(*_FRAME_VALUES.values()), max_size=4),
       slack=st.integers(0, 64), over=st.integers(1, 2000), newline=st.booleans(),
       data=st.data())
def test_a_line_longer_than_max_frame_is_refused_within_one_chunk(frames, slack, over,
                                                                 newline, data):
    good = [fed._wire(f) for f in frames]
    max_frame = max([len(line) - 1 for line in good] + [0]) + slack
    stream = b"".join(good) + b"x" * (max_frame + over) + b"\n" * newline
    a, b = socket.socketpair()
    with a, b:
        a.sendall(stream)
        sock = _CutSocket(b, data.draw(_cut(stream)))
        conn = fed._Conn(sock, 1.0, max_frame=max_frame)
        assert [conn.recv() for _ in frames] == frames
        with pytest.raises(fed.ProtocolError, match=f"longer than {max_frame} bytes"):
            conn.recv()
        assert len(conn.buf) <= max_frame + sock.largest


def test_one_blob_is_received_and_decoded_with_few_copies():
    # the line, its text, the frame's blob, the FMDF bytes and the vector:
    # 3.27 blob lengths at peak when each step copied, 2.53 with one live
    # copy per step
    import tracemalloc

    params = mdl.init_model(mdl.ModelConfig(), np.random.default_rng(61))
    blob = fed.params_b64(params)
    line = fed._wire(fed.RoundBegin(1, blob))
    a, b = socket.socketpair()
    with a, b:
        writer = threading.Thread(target=a.sendall, args=(line,))
        writer.start()
        conn = fed._Conn(b, 5.0, max_frame=len(blob) + fed.ENVELOPE_BYTES)
        tracemalloc.start()
        try:
            decoded = fed.params_from_b64(conn.recv().params_b64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        writer.join()
    assert decoded.flat.tobytes() == params.flat.tobytes()
    assert peak < 2.9 * len(blob), f"peak {peak / len(blob):.2f} blob lengths"


@pytest.mark.parametrize("line, message", [
    ('{"type":"hello","client_id":"one","examples":4}', "hello: client_id 'one' is not int"),
    ('{"type":"hello","client_id":2,"examples":0}', "hello: examples 0 is not above 0"),
    ('{"type":"update","round":1,"params_b64":"AA==","examples":4}',
     "update: unknown key 'examples'"),
    ('{"type":"round_begin","round":1}', "round_begin: missing key 'params_b64'"),
    ('{"type":"mystery"}', "unknown frame type 'mystery'"),
    ('{"round":1}', "unknown frame type None"),
])
def test_decode_frame_names_what_it_refuses(line, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fed.decode_frame(line)


@st.composite
def _frame_objects(draw):
    """A JSON object near some frame: usually a `type` and, for a frame's
    type, its fields with drawn values, each field sometimes left out, and
    sometimes an extra key."""
    kind = draw(st.sampled_from(sorted(fed.FRAMES)) | _FIELD_VALUE)
    obj = {"type": kind} if draw(st.integers(0, 9)) else {}
    tp = fed.FRAMES.get(kind) if isinstance(kind, str) else None
    for name, hint in (typing.get_type_hints(tp) if tp else {}).items():
        if draw(st.integers(0, 9)):
            obj[name] = draw(_OF_TYPE[hint] | _FIELD_VALUE)
    if draw(st.integers(0, 4)) == 0:
        obj[draw(st.text(max_size=10))] = draw(_FIELD_VALUE)
    return obj


@settings(max_examples=400, deadline=None)
@given(line=_frame_objects().map(json.dumps))
@example(line='{"type":"hello","client_id":1,"examples":true}')
@example(line='{"type":"hello","client_id":true,"examples":1}')
@example(line='{"type":"hello","client_id":1,"examples":4,"extra":null}')
@example(line='{"type":"update","round":1,"params_b64":"AAAA","examples":4}')
@example(line='{"type":"round_end","round":1.0,"digest":2}')
@example(line='{"type":"shutdown","reason":"x"}')
@example(line='{"type":["hello"],"client_id":1,"examples":4}')
@example(line='{"client_id":1,"examples":4}')
@example(line='{"type":"hello","client_id":' + _DEEP + ',"examples":4}')
@example(line='{"type":"error","reason":' + '{"a":' * 2000 + "1" + "}" * 2001)
def test_decode_frame_returns_the_objects_fields_or_raises_value_error(line):
    try:
        frame = fed.decode_frame(line)
    except ValueError:
        return
    record = json.loads(line)
    assert type(frame) is fed.FRAMES[record.pop("type")]
    assert vars(frame) == record
