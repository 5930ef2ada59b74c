"""Federated averaging over a newline-delimited JSON TCP protocol.

Clients train the box-prediction model on their own labeled shards; a server
broadcasts global parameters each round, collects updates, and installs their
mean, weighted by each client's hello example count, as the new global model.
Only model parameters, counts, and control fields ever cross the wire.
Parameters travel base64-encoded in the same binary format as the on-disk
model file.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import math
import socket
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Annotated

import numpy as np

from . import model as mdl
from .records import Rule, brief, check, check_value, decode_record, from_record

if TYPE_CHECKING:
    from .labeling import TrainingArrays

PROTOCOL_TIMEOUT_S = 30.0
TIMEOUT_RULES = (Rule("above", 0.0), Rule("below", math.inf))   # of every timeout, in seconds
ENVELOPE_BYTES = 4096   # what a frame may hold beside the params_b64 payload
REFUSALS_KEPT = 8       # refused hellos a hello phase names and logs; the rest it counts


class ProtocolError(RuntimeError):
    """Wire-protocol violation: bad frame, dimension mismatch, lost client."""


# the wire encoding of parameters is exactly the model file format
encode_params = mdl.params_to_bytes
decode_params = mdl.params_from_bytes


def params_digest(params: mdl.ModelParams) -> int:
    """64-bit BLAKE2b checksum of the encoded parameters."""
    return int.from_bytes(hashlib.blake2b(encode_params(params), digest_size=8).digest(), "big")


def params_b64(params: mdl.ModelParams) -> str:
    return binascii.b2a_base64(encode_params(params), newline=False).decode("ascii")


def params_from_b64(text: str) -> mdl.ModelParams:
    # strict (3.11+): refuse, not skip, non-base64; a str is read in place, with no ASCII copy
    return decode_params(binascii.a2b_base64(text, strict_mode=True))


def local_train(trainer: mdl.Trainer, dataset: TrainingArrays, global_params: mdl.ModelParams,
                epochs: int) -> mdl.ModelParams:
    """Install the broadcast parameters in `trainer` and run local epochs on
    `dataset`; returns the updated parameters. The trainer takes ownership of
    `global_params`: it trains them in place, with no copy.

    The optimizer moments and the shuffle/dropout stream persist across
    rounds; only the parameters are replaced by each broadcast. With a single
    client this makes federated training bitwise equal to centralized runs.
    """
    trainer.params = global_params
    trainer.run_epochs(dataset, epochs)
    return trainer.params


def fed_avg(updates: list[tuple[mdl.ModelParams, int]]) -> mdl.ModelParams:
    """Example-count-weighted elementwise mean of parameter updates.

    Updates, already checked by the server, are averaged in the given order;
    callers sort by ascending client id for a documented deterministic reduction.
    """
    if not updates:
        raise ProtocolError("fed_avg requires at least one update")
    first, _ = updates[0]
    total = sum(c for _, c in updates)
    out = mdl.ModelParams(np.zeros_like(first.flat), first.shapes,
                          dropout=first.dropout, mu=first.mu)
    for params, count in updates:
        out.flat += (count / total) * params.flat
    return out


@dataclass
class RoundRecord:
    """One completed round. `bytes_in` and `bytes_out` count, per client that
    began the round (a dropped one included), the bytes read from and written
    to its socket during the round, newlines included."""
    round: int
    participants: list[int]
    example_counts: dict[int, int]
    digest: int
    bytes_in: dict[int, int]
    bytes_out: dict[int, int]


# --- TCP transport -----------------------------------------------------------
# A frame is one line: the JSON object of its `type`, then its fields in order.

@dataclass(frozen=True)
class Hello:
    client_id: Annotated[int, Rule("at least", 1)]
    examples: Annotated[int, Rule("above", 0)]   # the client's FedAvg weight for the session
    __post_init__ = check


@dataclass(frozen=True)
class RoundBegin:
    round: int
    params_b64: str


@dataclass(frozen=True)
class Update:
    round: int
    params_b64: str


@dataclass(frozen=True)
class RoundEnd:
    round: int
    digest: int


@dataclass(frozen=True)
class Error:
    reason: str


@dataclass(frozen=True)
class Shutdown:
    pass


FRAMES = {"hello": Hello, "round_begin": RoundBegin, "update": Update,
          "round_end": RoundEnd, "error": Error, "shutdown": Shutdown}
_TYPE_OF = {cls: kind for kind, cls in FRAMES.items()}


def decode_frame(line: str | bytes):
    """The frame of one line by the record rule: `type` names one of `FRAMES`,
    and the other keys are exactly its fields; anything else is a ValueError."""
    rec = decode_record(line)
    kind = rec.pop("type", None)
    if not isinstance(kind, str) or kind not in FRAMES:
        raise ValueError(f"unknown frame type {brief(kind)}")
    try:
        return from_record(FRAMES[kind], rec, kind)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{kind}: {exc}") from None


def _tag(data: str | bytes) -> str:
    """What a transcript keeps of a blob, or of a line it does not keep
    whole: its length in bytes and its 64-bit BLAKE2b, of its UTF-8 if it is
    text. The spaces tell it from base64 text, which never holds one."""
    data = data.encode() if isinstance(data, str) else data
    return f"{len(data)} bytes blake2b {hashlib.blake2b(data, digest_size=8).hexdigest()}"


def _frame_line(frame, log: bool = False) -> str:
    """`frame` as one compact JSON line. A `params_b64` field is spliced in
    last, before the closing brace; with `log`, the blob's `_tag` is spliced
    in its place, which gives the frame's transcript line.

    A blob sent is always this node's own `params_b64` output. Base64 text
    holds nothing that `json.dumps` escapes, so the line equals `json.dumps`
    of the whole frame, without scanning the blob again.
    """
    record = {"type": _TYPE_OF[type(frame)], **vars(frame)}
    blob = record.pop("params_b64", None)
    line = json.dumps(record, separators=(",", ":"))
    if blob is None:
        return line
    return f'{line[:-1]},"params_b64":"{_tag(blob) if log else blob}"}}'


def _wire(frame) -> bytes:
    """`frame` as it goes on the socket: its `_frame_line` and a newline, in UTF-8."""
    return f"{_frame_line(frame)}\n".encode()


class _Conn:
    """One end of a connection that carries one frame per line.

    `send` writes a frame's `_wire` bytes; `send_line` sends bytes encoded
    once, such as a broadcast's. `recv` gives each frame one deadline,
    `timeout` seconds from its call, and decodes it with `decode_frame`; every
    failure is a `ProtocolError`. It searches each buffered byte for the
    newline once and cuts each line out once, and refuses a frame longer than
    `max_frame` bytes having buffered at most one chunk more. `received` and
    `sent` count the bytes read from and written to the socket.

    With a `transcript` list, each frame sent or received is appended to it as
    one line of at most `ENVELOPE_BYTES` characters: "send " or "recv ", then
    the frame's `_frame_line` with `log`, which holds the blob's `_tag` in
    place of the blob. A line that does not decode, or that would be longer,
    is logged as its own `_tag` instead.
    """

    def __init__(self, sock: socket.socket, timeout: float,
                 transcript: list[str] | None = None, max_frame: float = math.inf):
        self.sock = sock
        self.timeout = timeout
        self.transcript = transcript
        self.max_frame = max_frame
        self.buf = bytearray()
        self._scanned = 0   # bytes of `buf` known to hold no newline
        self.received = self.sent = 0

    def _log(self, direction: str, line: str) -> None:
        entry = f"{direction} {line}"
        self.transcript.append(entry if len(entry) <= ENVELOPE_BYTES
                               else f"{direction} {_tag(line)}")

    def send(self, frame) -> None:
        self.send_line(_wire(frame),
                       None if self.transcript is None else _frame_line(frame, log=True))

    def send_line(self, data: bytes, logged: str | None) -> None:
        """Send `data`, one frame's `_wire` bytes, and log it as `logged`, its
        frame's transcript line."""
        self.sock.settimeout(self.timeout)
        self.sock.sendall(data)
        self.sent += len(data)
        if self.transcript is not None:
            self._log("send", logged)

    def recv(self):
        deadline = time.monotonic() + self.timeout
        while (end := self.buf.find(b"\n", self._scanned)) < 0 and len(self.buf) <= self.max_frame:
            self._scanned = len(self.buf)
            left = deadline - time.monotonic()
            if left <= 0:
                raise ProtocolError(f"frame incomplete after {self.timeout} s")
            self.sock.settimeout(left)
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ProtocolError("connection closed mid-frame")
            self.received += len(chunk)
            self.buf += chunk
        if not 0 <= end <= self.max_frame:
            raise ProtocolError(f"frame longer than {self.max_frame} bytes")
        line = self.buf[:end]
        del self.buf[:end + 1]
        self._scanned = 0
        try:   # a blob's lone surrogate escape fails only at `_frame_line`'s `_tag`
            line = line.decode("utf-8")   # the raw bytes die before the JSON decode
            frame = decode_frame(line)
            logged = None if self.transcript is None else _frame_line(frame, log=True)
        except ValueError as exc:
            if self.transcript is not None:
                self._log("recv", _tag(line))
            raise ProtocolError(f"bad frame: {exc}") from None
        if logged is not None:
            self._log("recv", logged)
        return frame


class FedServer:
    """Synchronous-barrier federated server.

    Accepts `expected_clients` hello frames, then runs `rounds` rounds of
    broadcast/collect/aggregate. A hello's `examples` is that client's FedAvg
    weight for the session (`weights`). A peer whose frame `_Conn.recv`
    refuses, whose hello claims a connected client id, or whose update is not
    this round's, has another layout or model config than the global model's,
    or holds a non-finite value gets an error frame with the reason and is
    closed for the rest of the session; a client that a send fails on is
    closed without one. Each round averages the updates that arrived,
    provided at least `min_clients` did, which must be in
    `1..expected_clients`; `timeout_s` must meet `TIMEOUT_RULES`. A hello
    phase in which no further client connects for `timeout_s` ends the
    session with a `ProtocolError` that counts the hellos kept and gives the
    reason of each of the first `REFUSALS_KEPT` refused hellos, then counts
    the others.

    Each broadcast line is built once, with the global model's base64 spliced
    in, and the same line goes to every client. With an `eval_dataset`, the
    held-out loss of round r's model is computed after round r+1's broadcast,
    while the clients train on that model, and the final model's after the
    last round; `eval_losses` holds one loss per completed round.

    The transcript holds one bounded line per frame sent or received, as
    `_Conn` logs it: each blob is kept as its length and digest, and each
    round's `RoundRecord` counts the bytes that went over each socket. Kept
    hellos are logged in client id order once the hello phase ends; the
    first `REFUSALS_KEPT` refused hellos and their error replies are logged
    when they happen, and later ones not at all.
    """

    def __init__(self, global_params: mdl.ModelParams, expected_clients: int, rounds: int, *,
                 min_clients: int = 1, timeout_s: float = PROTOCOL_TIMEOUT_S,
                 host: str = "127.0.0.1", port: int = 0, eval_dataset=None):
        if not 1 <= min_clients <= expected_clients:
            raise ValueError(f"min_clients {min_clients} must be between 1 and "
                             f"expected_clients {expected_clients}")
        check_value("timeout_s", timeout_s, *TIMEOUT_RULES)
        self.global_params = global_params
        self.records: list[RoundRecord] = []
        self.weights: dict[int, int] = {}
        self.expected_clients = expected_clients
        self.rounds = rounds
        self.min_clients = min_clients
        self.timeout_s = timeout_s
        self.transcript: list[str] = []
        self.eval_losses: list[float] = []
        self.eval_dataset = eval_dataset
        self._listener = socket.create_server((host, port))
        self.address = self._listener.getsockname()

    def _hello(self, conn: _Conn, conns: dict[int, _Conn]) -> str | None:
        """Read one connection's hello; add the connection to `conns` and keep
        its weight, or refuse it and return the reason."""
        try:
            hello = conn.recv()
            if not isinstance(hello, Hello):
                raise ProtocolError(f"expected hello, not {_TYPE_OF[type(hello)]}")
            if hello.client_id in conns:
                raise ProtocolError(f"client_id {brief(hello.client_id)} is already connected")
        except (ProtocolError, OSError) as exc:
            self._refuse(conn, str(exc))
            return str(exc)
        conns[hello.client_id] = conn
        self.weights[hello.client_id] = hello.examples
        return None

    @staticmethod
    def _refuse(conn: _Conn, reason: str) -> None:
        """Send `reason` in an error frame, if the peer still reads, and hang up."""
        try:
            conn.send(Error(reason))
        except OSError:
            pass
        conn.sock.close()

    @staticmethod
    def _send_all(conns: dict[int, _Conn], frame) -> None:
        """Send one line, built and encoded once, to every client; one the
        send fails on is dropped."""
        data, logged = _wire(frame), _frame_line(frame, log=True)
        for cid in sorted(conns):
            try:
                conns[cid].send_line(data, logged)
            except OSError:
                conns.pop(cid).sock.close()

    def _evaluate(self, params: mdl.ModelParams) -> None:
        if self.eval_dataset is not None:
            self.eval_losses.append(mdl.mean_loss(params, self.eval_dataset))

    def serve(self) -> list[RoundRecord]:
        max_frame = len(params_b64(self.global_params)) + ENVELOPE_BYTES
        conns: dict[int, _Conn] = {}
        try:
            self._hello_phase(conns, max_frame)
            for r in range(1, self.rounds + 1):
                self._run_tcp_round(r, conns)
            self._send_all(conns, Shutdown())
            if self.rounds:
                self._evaluate(self.global_params)
            return self.records
        finally:
            for conn in conns.values():
                conn.sock.close()
            self._listener.close()

    def _hello_phase(self, conns: dict[int, _Conn], max_frame: int) -> None:
        """Accept connections and read their hellos into `conns` until
        `expected_clients` are kept; each connection logs to a transcript of
        its own until its hello is refused or the phase ends. The reasons and
        transcript lines of the first `REFUSALS_KEPT` refused connections are
        kept; the rest are only counted."""
        refused: list[str] = []
        more = 0   # refusals beyond the kept ones
        self._listener.settimeout(self.timeout_s)
        try:
            while len(conns) < self.expected_clients:
                try:
                    sock, _ = self._listener.accept()
                except TimeoutError:
                    raise ProtocolError(
                        f"{len(conns)} of {self.expected_clients} clients said hello, then none "
                        f"connected for {self.timeout_s} s; refused hellos: "
                        f"{'; '.join(refused) or 'none'}"
                        f"{f'; and {more} more refused' if more else ''}") from None
                conn = _Conn(sock, self.timeout_s, [], max_frame)
                if (reason := self._hello(conn, conns)) is None:
                    continue
                if len(refused) < REFUSALS_KEPT:
                    refused.append(reason)
                    self.transcript += conn.transcript
                else:
                    more += 1
        finally:   # the kept hellos, in client id order
            for cid in sorted(conns):
                self.transcript += conns[cid].transcript
                conns[cid].transcript = self.transcript

    def _run_tcp_round(self, r: int, conns: dict[int, _Conn]) -> None:
        g = self.global_params
        began = {cid: conns[cid] for cid in sorted(conns)}
        for conn in began.values():
            conn.received = conn.sent = 0   # this round's bytes
        self._send_all(conns, RoundBegin(r, params_b64(g)))
        if r > 1:   # round r-1's model, evaluated while the clients train on it
            self._evaluate(g)
        updates: list[tuple[int, mdl.ModelParams]] = []
        for cid in sorted(conns):
            try:
                frame = conns[cid].recv()
                if not isinstance(frame, Update) or frame.round != r:
                    raise ProtocolError(f"expected the update of round {r}")
                params = params_from_b64(frame.params_b64)
                del frame   # the update's text dies once it is decoded
                if (params.shapes, params.mu, params.dropout) != (g.shapes, g.mu, g.dropout):
                    raise ProtocolError(f"layout or model config in round {r}")
                if not np.isfinite(params.flat).all():
                    raise ProtocolError(f"non-finite parameters in round {r}")
                updates.append((cid, params))
            except (ProtocolError, OSError, ValueError) as exc:
                self._refuse(conns.pop(cid), f"client {brief(cid)}: {exc}")
        if len(updates) < self.min_clients:
            raise ProtocolError(
                f"round {r}: only {len(updates)} updates arrived, need {self.min_clients}")

        # `updates` is in ascending client id order: a deterministic reduction
        counts = {cid: self.weights[cid] for cid, _ in updates}
        self.global_params = fed_avg([(p, counts[cid]) for cid, p in updates])
        digest = params_digest(self.global_params)
        self._send_all(conns, RoundEnd(r, digest))
        self.records.append(RoundRecord(
            round=r, participants=list(counts), example_counts=counts, digest=digest,
            bytes_in={cid: c.received for cid, c in began.items()},
            bytes_out={cid: c.sent for cid, c in began.items()}))


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
        check_value("timeout", timeout, *TIMEOUT_RULES)
        rounds = 0
        hello = Hello(self.client_id, int(self.dataset.X.shape[0]))   # an empty shard fails here
        with socket.create_connection((host, port), timeout=timeout) as sock:
            conn = _Conn(sock, timeout)
            conn.send(hello)
            while True:
                match conn.recv():
                    case Shutdown():
                        return rounds
                    case RoundEnd():
                        continue
                    case Error(reason=reason):
                        raise ProtocolError(f"server error: {reason}")
                    case RoundBegin(round=rnd, params_b64=blob):
                        global_params = params_from_b64(blob)
                        del blob   # the broadcast's text dies before training
                    case frame:
                        raise ProtocolError(f"unexpected frame type {_TYPE_OF[type(frame)]!r}")
                if self.trainer is None:
                    self.trainer = mdl.Trainer(global_params, self.opt_cfg, self.seed)
                params = local_train(self.trainer, self.dataset, global_params,
                                     self.local_epochs)
                conn.send(Update(rnd, params_b64(params)))
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
    When the server ends the session with a `ProtocolError`, the lowest-id
    client's own failure (not a `ProtocolError` or `OSError` of the transport)
    is raised in its place, chained from the server's error.
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
        try:
            records = server.serve()
        except ProtocolError as exc:   # a client's own failure may be what ended it
            for run in runs:   # in client id order
                err = run.exception()
                if err is not None and not isinstance(err, (ProtocolError, OSError)):
                    raise err from exc
            raise
        for run in runs:
            run.result()
    return server.global_params, records, server.transcript, server.eval_losses
