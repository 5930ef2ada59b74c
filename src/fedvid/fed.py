"""Federated averaging over a newline-delimited JSON TCP protocol.

Clients train the box-prediction model on their own labeled shards; a server
broadcasts global parameters each round, collects example-count-weighted
updates, and installs the weighted mean as the new global model. Only model
parameters, counts, and control fields ever cross the wire. Parameters travel
base64-encoded in the same binary format as the on-disk model file.
"""

from __future__ import annotations

import base64
import json
import socket
import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import model as mdl
from .plates import fnv1a64

if TYPE_CHECKING:
    from .labeling import TrainingArrays

PROTOCOL_TIMEOUT_S = 30.0


class ProtocolError(RuntimeError):
    """Wire-protocol violation: bad frame, dimension mismatch, lost client."""


# the wire encoding of parameters is exactly the model file format
encode_params = mdl.params_to_bytes
decode_params = mdl.params_from_bytes


def params_digest(params: mdl.ModelParams) -> int:
    """64-bit checksum of the encoded parameters."""
    return fnv1a64(encode_params(params))


def params_b64(params: mdl.ModelParams) -> str:
    return base64.b64encode(encode_params(params)).decode("ascii")


def params_from_b64(text: str) -> mdl.ModelParams:
    return decode_params(base64.b64decode(text))


@dataclass
class ClientState:
    """One federated participant: its shard, parameters, and optimizer.

    The optimizer moments and the shuffle/dropout stream persist across
    rounds; only the parameters are replaced by each broadcast. With a single
    client this makes federated training bitwise equal to centralized runs.
    """

    client_id: int
    dataset: TrainingArrays
    trainer: mdl.Trainer

    @classmethod
    def create(cls, client_id: int, dataset: TrainingArrays, params: mdl.ModelParams,
               opt_cfg: mdl.OptConfig, seed: int) -> "ClientState":
        return cls(client_id=client_id, dataset=dataset,
                   trainer=mdl.Trainer(params.copy(), opt_cfg, seed))

    def example_count(self) -> int:
        return int(self.dataset.X.shape[0])


def local_train(client: ClientState, global_params: mdl.ModelParams,
                epochs: int) -> tuple[mdl.ModelParams, int]:
    """Install the broadcast parameters and run local epochs; returns the
    updated parameters and the local example count."""
    client.trainer.params = global_params.copy()
    client.trainer.run_epochs(client.dataset, epochs)
    return client.trainer.params, client.example_count()


def _check_compatible(params: mdl.ModelParams, ref: mdl.ModelParams) -> None:
    """Raise ProtocolError unless `params` has the layer shapes and model config of `ref`."""
    if params.shapes != ref.shapes:
        raise ProtocolError(f"parameter dimensions {params.shapes} differ from {ref.shapes}")
    if params.mu != ref.mu or params.dropout != ref.dropout:
        raise ProtocolError("model config (mu, dropout) differs")


def fed_avg(updates: list[tuple[mdl.ModelParams, int]]) -> mdl.ModelParams:
    """Example-count-weighted elementwise mean of parameter updates.

    Updates are averaged in the given order; callers sort by ascending client
    id for a documented deterministic reduction.
    """
    if not updates:
        raise ProtocolError("fed_avg requires at least one update")
    for params, count in updates:
        if count <= 0:
            raise ProtocolError("update example counts must be positive")
    first, _ = updates[0]
    for params, _ in updates[1:]:
        _check_compatible(params, first)

    total = sum(c for _, c in updates)
    out = mdl.ModelParams(np.zeros_like(first.flat), first.shapes,
                          dropout=first.dropout, mu=first.mu)
    for params, count in updates:
        out.flat += (count / total) * params.flat
    return out


@dataclass(frozen=True)
class RoundConfig:
    local_epochs: int = 1      # in-process rounds; a TCP client sets its own
    min_clients: int = 1
    timeout_s: float = PROTOCOL_TIMEOUT_S


@dataclass
class RoundRecord:
    round: int
    participants: list[int]
    example_counts: dict[int, int]
    digest: int


@dataclass
class ServerState:
    global_params: mdl.ModelParams
    records: list[RoundRecord] = field(default_factory=list)

    def aggregate(self, updates: list[tuple[int, mdl.ModelParams, int]]) -> RoundRecord:
        """Install the FedAvg of (client id, params, example count) updates,
        reduced in ascending client-id order, and record the round."""
        updates = sorted(updates, key=lambda u: u[0])
        self.global_params = fed_avg([(p, n) for _, p, n in updates])
        record = RoundRecord(
            round=len(self.records) + 1, participants=[cid for cid, _, _ in updates],
            example_counts={cid: n for cid, _, n in updates},
            digest=params_digest(self.global_params),
        )
        self.records.append(record)
        return record


def run_round(server: ServerState, clients: list[ClientState],
              cfg: RoundConfig = RoundConfig()) -> RoundRecord:
    """One synchronous in-process round: broadcast, train all, aggregate."""
    if len(clients) < max(1, cfg.min_clients):
        raise ProtocolError(
            f"need at least {max(1, cfg.min_clients)} clients, have {len(clients)}"
        )
    updates = []
    for client in sorted(clients, key=lambda c: c.client_id):
        params, n = local_train(client, server.global_params, cfg.local_epochs)
        updates.append((client.client_id, params, n))
    return server.aggregate(updates)


# --- TCP transport -----------------------------------------------------------

def _send_frame(sock: socket.socket, obj: dict) -> str:
    line = json.dumps(obj, separators=(",", ":")) + "\n"
    sock.sendall(line.encode("utf-8"))
    return line


class _LineReader:
    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.buf = b""

    def readline(self, timeout: float) -> str:
        self.sock.settimeout(timeout)
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ProtocolError("connection closed mid-frame")
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode("utf-8")


class FedServer:
    """Synchronous-barrier federated server.

    Accepts `expected_clients` hello frames, then runs `rounds` rounds of
    broadcast/collect/aggregate. A connection whose hello is malformed or
    claims a connected client id gets an error frame and is closed. A client
    that times out, misbehaves, or sends an update whose layout or model
    config differs from the global model's or that holds a non-finite value
    is dropped for the rest of the session, and each round averages the
    updates that arrived, provided at least `min_clients` did. Every frame
    sent or received is appended to the transcript for audit.
    """

    def __init__(self, global_params: mdl.ModelParams, expected_clients: int,
                 rounds: int, round_cfg: RoundConfig = RoundConfig(),
                 host: str = "127.0.0.1", port: int = 0,
                 eval_dataset=None):
        self.state = ServerState(global_params=global_params)
        self.expected_clients = expected_clients
        self.rounds = rounds
        self.cfg = round_cfg
        self.transcript: list[str] = []
        self.eval_losses: list[float] = []
        self.eval_dataset = eval_dataset
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()

    def _log(self, direction: str, line: str) -> None:
        self.transcript.append(f"{direction} {line.rstrip()}")

    def _send(self, sock, obj) -> None:
        self._log("send", _send_frame(sock, obj))

    def _recv(self, reader, timeout) -> dict:
        line = reader.readline(timeout)
        self._log("recv", line)
        try:
            frame = json.loads(line)
        except ValueError:
            raise ProtocolError("frame is not JSON") from None
        if not isinstance(frame, dict):
            raise ProtocolError("frame is not a JSON object")
        return frame

    def _hello(self, sock, reader, conns: dict) -> int | None:
        """Read one connection's hello and return its client id. A malformed
        hello or an id already connected gets an error frame, and the
        connection is closed."""
        try:
            hello = self._recv(reader, self.cfg.timeout_s)
            if hello.get("type") != "hello":
                raise ProtocolError("expected hello")
            cid = hello.get("client_id")
            if type(cid) is not int:
                raise ProtocolError("hello needs an integer client_id")
            if cid in conns:
                raise ProtocolError(f"client_id {cid} is already connected")
            return cid
        except (ProtocolError, OSError, ValueError) as exc:
            try:
                self._send(sock, {"type": "error", "reason": str(exc)})
            except OSError:
                pass
            sock.close()
            return None

    def serve(self) -> list[RoundRecord]:
        conns: dict[int, tuple[socket.socket, _LineReader]] = {}
        try:
            self._listener.settimeout(self.cfg.timeout_s)
            while len(conns) < self.expected_clients:
                sock, _ = self._listener.accept()
                reader = _LineReader(sock)
                cid = self._hello(sock, reader, conns)
                if cid is not None:
                    conns[cid] = (sock, reader)

            for r in range(1, self.rounds + 1):
                self._run_tcp_round(r, conns)
                if self.eval_dataset is not None:
                    self.eval_losses.append(mdl.mean_loss(self.state.global_params, self.eval_dataset))

            for sock, _ in conns.values():
                try:
                    self._send(sock, {"type": "shutdown"})
                except OSError:
                    pass
            return self.state.records
        finally:
            for sock, _ in conns.values():
                sock.close()
            self._listener.close()

    def _run_tcp_round(self, r: int, conns: dict) -> None:
        blob = params_b64(self.state.global_params)
        for cid in sorted(conns):
            sock, _ = conns[cid]
            self._send(sock, {"type": "round_begin", "round": r, "params_b64": blob})

        updates: list[tuple[int, mdl.ModelParams, int]] = []
        for cid in sorted(conns):
            sock, reader = conns[cid]
            try:
                frame = self._recv(reader, self.cfg.timeout_s)
                if frame.get("type") != "update" or int(frame.get("round", -1)) != r:
                    self._send(sock, {"type": "error", "reason": "expected update"})
                    raise ProtocolError(f"client {cid}: bad frame in round {r}")
                params = params_from_b64(frame["params_b64"])
                count = int(frame["examples"])
                _check_compatible(params, self.state.global_params)
                if count <= 0:
                    raise ProtocolError(f"client {cid}: example count {count} in round {r}")
                if not np.isfinite(params.flat).all():
                    raise ProtocolError(f"client {cid}: non-finite parameters in round {r}")
                updates.append((cid, params, count))
            except (ProtocolError, OSError, KeyError, TypeError, ValueError):
                sock.close()
                del conns[cid]
        need = max(1, self.cfg.min_clients)
        if len(updates) < need:
            raise ProtocolError(f"round {r}: only {len(updates)} updates arrived, need {need}")

        record = self.state.aggregate(updates)
        for cid in sorted(conns):
            sock, _ = conns[cid]
            self._send(sock, {"type": "round_end", "round": r, "digest": record.digest})


class FedClient:
    """Federated participant over TCP; holds its trainer across rounds."""

    def __init__(self, client_id: int, dataset: TrainingArrays, opt_cfg: mdl.OptConfig,
                 seed: int, local_epochs: int = 1):
        self.client_id = client_id
        self.dataset = dataset
        self.opt_cfg = opt_cfg
        self.seed = seed
        self.local_epochs = local_epochs
        self.state: ClientState | None = None

    def run(self, host: str, port: int, timeout: float = PROTOCOL_TIMEOUT_S) -> int:
        """Participate until shutdown; returns the number of rounds trained."""
        rounds = 0
        with socket.create_connection((host, port), timeout=timeout) as sock:
            reader = _LineReader(sock)
            n = int(self.dataset.X.shape[0])
            _send_frame(sock, {"type": "hello", "client_id": self.client_id, "examples": n})
            while True:
                frame = json.loads(reader.readline(timeout))
                kind = frame.get("type")
                if kind == "shutdown":
                    return rounds
                if kind == "round_end":
                    continue
                if kind == "error":
                    raise ProtocolError(f"server error: {frame.get('reason')}")
                if kind != "round_begin":
                    raise ProtocolError(f"unexpected frame type {kind!r}")
                global_params = params_from_b64(frame["params_b64"])
                if self.state is None:
                    self.state = ClientState.create(
                        self.client_id, self.dataset, global_params, self.opt_cfg, self.seed
                    )
                params, count = local_train(self.state, global_params, self.local_epochs)
                _send_frame(sock, {
                    "type": "update", "round": frame["round"],
                    "params_b64": params_b64(params), "examples": count,
                })
                rounds += 1


def train_federated_tcp(shards: list, init_params: mdl.ModelParams,
                        opt_cfg: mdl.OptConfig, rounds: int, seeds: list[int],
                        local_epochs: int = 1, eval_dataset=None,
                        timeout: float = PROTOCOL_TIMEOUT_S,
                        ) -> tuple[mdl.ModelParams, list[RoundRecord], list[str], list[float]]:
    """Run a whole federated session on localhost threads.

    Returns the final global parameters, the round records, the server's wire
    transcript, and (if eval_dataset was given) the per-round held-out loss.
    """
    if len(shards) != len(seeds):
        raise ValueError("one seed per shard required")
    server = FedServer(init_params.copy(), expected_clients=len(shards), rounds=rounds,
                       round_cfg=RoundConfig(timeout_s=timeout),
                       eval_dataset=eval_dataset)
    host, port = server.address

    clients = [
        FedClient(client_id=i + 1, dataset=shard, opt_cfg=opt_cfg, seed=seed,
                  local_epochs=local_epochs)
        for i, (shard, seed) in enumerate(zip(shards, seeds))
    ]
    threads = [threading.Thread(target=c.run, args=(host, port), daemon=True) for c in clients]
    for t in threads:
        t.start()
    records = server.serve()
    for t in threads:
        t.join(timeout=timeout)
    return server.state.global_params, records, server.transcript, server.eval_losses
