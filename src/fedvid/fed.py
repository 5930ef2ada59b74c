"""Federated averaging over a newline-delimited JSON TCP protocol.

Clients train the box-prediction model on their own labeled shards; a server
broadcasts global parameters each round, collects example-count-weighted
updates, and installs the weighted mean as the new global model. Only model
parameters, counts, and control fields ever cross the wire. Parameters travel
base64-encoded in the same binary format as the on-disk model file.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import model as mdl

if TYPE_CHECKING:
    from .labeling import TrainingArrays

PROTOCOL_TIMEOUT_S = 30.0
ENVELOPE_BYTES = 4096   # what a frame may hold beside the params_b64 payload


class ProtocolError(RuntimeError):
    """Wire-protocol violation: bad frame, dimension mismatch, lost client."""


# the wire encoding of parameters is exactly the model file format
encode_params = mdl.params_to_bytes
decode_params = mdl.params_from_bytes


def params_digest(params: mdl.ModelParams) -> int:
    """64-bit BLAKE2b checksum of the encoded parameters."""
    return int.from_bytes(hashlib.blake2b(encode_params(params), digest_size=8).digest(), "big")


def params_b64(params: mdl.ModelParams) -> str:
    return base64.b64encode(encode_params(params)).decode("ascii")


def params_from_b64(text: str) -> mdl.ModelParams:
    return decode_params(base64.b64decode(text))


def local_train(trainer: mdl.Trainer, dataset: TrainingArrays, global_params: mdl.ModelParams,
                epochs: int) -> tuple[mdl.ModelParams, int]:
    """Install the broadcast parameters in `trainer` and run local epochs on
    `dataset`; returns the updated parameters and the local example count.

    The optimizer moments and the shuffle/dropout stream persist across
    rounds; only the parameters are replaced by each broadcast. With a single
    client this makes federated training bitwise equal to centralized runs.
    """
    trainer.params = global_params.copy()
    trainer.run_epochs(dataset, epochs)
    return trainer.params, int(dataset.X.shape[0])


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


@dataclass
class RoundRecord:
    round: int
    participants: list[int]
    example_counts: dict[int, int]
    digest: int


# --- TCP transport -----------------------------------------------------------

class _Conn:
    """One end of a connection that carries one JSON object per line.

    `recv` gives each frame one deadline, `timeout` seconds from its call, and
    refuses a frame longer than `max_frame` bytes. With a `transcript` list,
    every frame sent or received is appended to it.
    """

    def __init__(self, sock: socket.socket, timeout: float,
                 transcript: list[str] | None = None, max_frame: float = math.inf):
        self.sock = sock
        self.timeout = timeout
        self.transcript = transcript
        self.max_frame = max_frame
        self.buf = b""

    def _log(self, direction: str, line: str) -> None:
        if self.transcript is not None:
            self.transcript.append(f"{direction} {line}")

    def send(self, obj: dict) -> None:
        line = json.dumps(obj, separators=(",", ":"))
        self.sock.settimeout(self.timeout)
        self.sock.sendall(line.encode("utf-8") + b"\n")
        self._log("send", line)

    def recv(self) -> dict:
        deadline = time.monotonic() + self.timeout
        while (end := self.buf.find(b"\n")) < 0 and len(self.buf) <= self.max_frame:
            left = deadline - time.monotonic()
            if left <= 0:
                raise ProtocolError(f"frame incomplete after {self.timeout} s")
            self.sock.settimeout(left)
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ProtocolError("connection closed mid-frame")
            self.buf += chunk
        if not 0 <= end <= self.max_frame:
            raise ProtocolError(f"frame longer than {self.max_frame} bytes")
        line, self.buf = self.buf[:end], self.buf[end + 1:]
        try:
            text = line.decode("utf-8")
            self._log("recv", text)
            frame = json.loads(text)
        except ValueError:
            raise ProtocolError("frame is not UTF-8 JSON") from None
        if not isinstance(frame, dict):
            raise ProtocolError("frame is not a JSON object")
        return frame


class FedServer:
    """Synchronous-barrier federated server.

    Accepts `expected_clients` hello frames, then runs `rounds` rounds of
    broadcast/collect/aggregate. A bad hello (malformed, incomplete after
    `timeout_s`, longer than the broadcast plus `ENVELOPE_BYTES`, or claiming
    a connected client id) gets an error frame and its connection is closed.
    A client is dropped for the rest of the session when a send to it fails or
    its update is bad in those ways, has a layout or model config other than
    the global model's, or holds a non-finite value. Each round averages the
    updates that arrived, provided at least `min_clients` did. Every frame
    sent or received is appended to the transcript for audit.
    """

    def __init__(self, global_params: mdl.ModelParams, expected_clients: int, rounds: int, *,
                 min_clients: int = 1, timeout_s: float = PROTOCOL_TIMEOUT_S,
                 host: str = "127.0.0.1", port: int = 0, eval_dataset=None):
        self.global_params = global_params
        self.records: list[RoundRecord] = []
        self.expected_clients = expected_clients
        self.rounds = rounds
        self.min_clients = min_clients
        self.timeout_s = timeout_s
        self.transcript: list[str] = []
        self.eval_losses: list[float] = []
        self.eval_dataset = eval_dataset
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()

    def _hello(self, conn: _Conn, conns: dict[int, _Conn]) -> int | None:
        """Read one connection's hello; returns its client id, or None once refused."""
        try:
            hello = conn.recv()
            if hello.get("type") != "hello":
                raise ProtocolError("expected hello")
            cid = hello.get("client_id")
            if type(cid) is not int:
                raise ProtocolError("hello needs an integer client_id")
            if cid in conns:
                raise ProtocolError(f"client_id {cid} is already connected")
            return cid
        except (ProtocolError, OSError) as exc:
            try:
                conn.send({"type": "error", "reason": str(exc)})
            except OSError:
                pass
            conn.sock.close()
            return None

    @staticmethod
    def _send_all(conns: dict[int, _Conn], frame: dict) -> None:
        """Send `frame` to every client; one the send fails on is dropped."""
        for cid in sorted(conns):
            try:
                conns[cid].send(frame)
            except OSError:
                conns.pop(cid).sock.close()

    def serve(self) -> list[RoundRecord]:
        max_frame = len(params_b64(self.global_params)) + ENVELOPE_BYTES
        conns: dict[int, _Conn] = {}
        try:
            self._listener.settimeout(self.timeout_s)
            while len(conns) < self.expected_clients:
                sock, _ = self._listener.accept()
                conn = _Conn(sock, self.timeout_s, self.transcript, max_frame)
                cid = self._hello(conn, conns)
                if cid is not None:
                    conns[cid] = conn

            for r in range(1, self.rounds + 1):
                self._run_tcp_round(r, conns)
                if self.eval_dataset is not None:
                    self.eval_losses.append(mdl.mean_loss(self.global_params, self.eval_dataset))
            self._send_all(conns, {"type": "shutdown"})
            return self.records
        finally:
            for conn in conns.values():
                conn.sock.close()
            self._listener.close()

    def _run_tcp_round(self, r: int, conns: dict[int, _Conn]) -> None:
        self._send_all(conns, {"type": "round_begin", "round": r,
                               "params_b64": params_b64(self.global_params)})
        updates: list[tuple[int, mdl.ModelParams, int]] = []
        for cid in sorted(conns):
            conn = conns[cid]
            try:
                frame = conn.recv()
                if frame.get("type") != "update" or int(frame.get("round", -1)) != r:
                    conn.send({"type": "error", "reason": "expected update"})
                    raise ProtocolError(f"client {cid}: bad frame in round {r}")
                params = params_from_b64(frame["params_b64"])
                count = int(frame["examples"])
                _check_compatible(params, self.global_params)
                if count <= 0:
                    raise ProtocolError(f"client {cid}: example count {count} in round {r}")
                if not np.isfinite(params.flat).all():
                    raise ProtocolError(f"client {cid}: non-finite parameters in round {r}")
                updates.append((cid, params, count))
            except (ProtocolError, OSError, KeyError, TypeError, ValueError):
                conns.pop(cid).sock.close()
        need = max(1, self.min_clients)
        if len(updates) < need:
            raise ProtocolError(f"round {r}: only {len(updates)} updates arrived, need {need}")

        # `updates` is in ascending client id order: a deterministic reduction
        self.global_params = fed_avg([(p, n) for _, p, n in updates])
        record = RoundRecord(round=r, participants=[cid for cid, _, _ in updates],
                             example_counts={cid: n for cid, _, n in updates},
                             digest=params_digest(self.global_params))
        self.records.append(record)
        self._send_all(conns, {"type": "round_end", "round": r, "digest": record.digest})


class FedClient:
    """Federated participant over TCP; holds its trainer across rounds."""

    def __init__(self, client_id: int, dataset: TrainingArrays, opt_cfg: mdl.OptConfig,
                 seed: int, local_epochs: int = 1):
        self.client_id = client_id
        self.dataset = dataset
        self.opt_cfg = opt_cfg
        self.seed = seed
        self.local_epochs = local_epochs
        self.trainer: mdl.Trainer | None = None

    def run(self, host: str, port: int, timeout: float = PROTOCOL_TIMEOUT_S) -> int:
        """Participate until shutdown; returns the number of rounds trained."""
        rounds = 0
        with socket.create_connection((host, port), timeout=timeout) as sock:
            conn = _Conn(sock, timeout)
            conn.send({"type": "hello", "client_id": self.client_id,
                       "examples": int(self.dataset.X.shape[0])})
            while True:
                frame = conn.recv()
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
                if self.trainer is None:
                    self.trainer = mdl.Trainer(global_params, self.opt_cfg, self.seed)
                params, count = local_train(self.trainer, self.dataset, global_params,
                                            self.local_epochs)
                conn.send({"type": "update", "round": frame["round"],
                           "params_b64": params_b64(params), "examples": count})
                rounds += 1


def train_federated_tcp(shards: list, init_params: mdl.ModelParams,
                        opt_cfg: mdl.OptConfig, rounds: int, seeds: list[int],
                        local_epochs: int = 1, eval_dataset=None,
                        timeout: float = PROTOCOL_TIMEOUT_S,
                        ) -> tuple[mdl.ModelParams, list[RoundRecord], list[str], list[float]]:
    """Run a whole federated session on localhost threads.

    Returns the final global parameters, the round records, the server's wire
    transcript, and (if eval_dataset was given) the per-round held-out loss.
    A client that fails re-raises its exception here once the server is done.
    """
    if len(shards) != len(seeds):
        raise ValueError("one seed per shard required")
    server = FedServer(init_params.copy(), expected_clients=len(shards), rounds=rounds,
                       timeout_s=timeout, eval_dataset=eval_dataset)
    host, port = server.address

    clients = [
        FedClient(client_id=i + 1, dataset=shard, opt_cfg=opt_cfg, seed=seed,
                  local_epochs=local_epochs)
        for i, (shard, seed) in enumerate(zip(shards, seeds))
    ]
    with ThreadPoolExecutor(max_workers=len(clients)) as pool:
        runs = [pool.submit(c.run, host, port) for c in clients]
        records = server.serve()
        for run in runs:
            run.result()
    return server.global_params, records, server.transcript, server.eval_losses
