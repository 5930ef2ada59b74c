"""Federated averaging over a newline-delimited JSON TCP protocol.

Clients train the box-prediction model on their own labeled shards; a server
broadcasts global parameters each round, collects updates, and installs their
mean, weighted by each client's hello example count. Only model parameters,
counts and control fields cross the wire; parameters travel base64-encoded in
the binary format of the on-disk model file.
"""

from __future__ import annotations

import binascii
import contextlib
import hashlib
import json
import math
import selectors
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
REFUSALS_KEPT = 8       # refusals a phase names and logs, and extra hellos it awaits at once
COUNT_RULE = Rule("at least", 1)   # of rounds and of epochs


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
    """Install the broadcast parameters in `trainer`, which takes ownership of
    them and trains them in place, and run `epochs` on `dataset`. The optimizer
    moments and the shuffle/dropout stream persist across rounds, so a single
    client's federated training is bitwise equal to a centralized run."""
    trainer.params = global_params
    trainer.run_epochs(dataset, epochs)
    return trainer.params


def fed_avg(updates: list[tuple[mdl.ModelParams, int]]) -> mdl.ModelParams:
    """Example-count-weighted elementwise mean of checked updates, summed in
    the given order; callers sort them by ascending client id for a
    deterministic reduction."""
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
    """One completed round. `bytes_in` and `bytes_out` count, per client that began it
    (a dropped one too), the bytes read from and written to its socket, newlines included."""
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
    """`frame` as one compact JSON line, with a `params_b64` field spliced in
    last, before the closing brace; with `log`, the blob's `_tag` takes its
    place, which gives the frame's transcript line. A sent blob is this node's
    own base64, which holds nothing that `json.dumps` escapes, so the line
    equals `json.dumps` of the whole frame without scanning the blob again."""
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
    """One end of a connection that carries one frame per line. `read`
    appends a chunk of the socket to `buf` and `take` cuts the next whole line
    out of it, searching each byte for the newline once; a line longer than
    `max_frame` bytes is refused having buffered at most one chunk more.
    `recv`, the client's reader, waits `timeout` seconds for one frame.
    `received` and `sent` count the bytes read and written."""

    def __init__(self, sock: socket.socket, timeout: float, max_frame: float = math.inf):
        self.sock = sock
        self.timeout = timeout
        self.max_frame = max_frame
        self.buf = bytearray()
        self._scanned = 0   # bytes of `buf` known to hold no newline
        self.received = self.sent = 0

    def send(self, frame) -> None:
        self.send_line(_wire(frame))

    def send_line(self, data: bytes) -> None:
        self.sock.settimeout(self.timeout)
        self.sock.sendall(data)
        self.sent += len(data)

    def read(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        self.received += len(chunk)
        self.buf += chunk

    def take(self, log: bool = False):
        """None until `buf` holds a whole line, then its frame or the
        `ProtocolError` that refuses it, and with `log` its transcript line:
        the frame's `_frame_line` with `log`, or the line's `_tag`."""
        end = self.buf.find(b"\n", self._scanned)
        if end < 0 and len(self.buf) <= self.max_frame:
            self._scanned = len(self.buf)
            return None
        if not 0 <= end <= self.max_frame:
            return ProtocolError(f"frame longer than {self.max_frame} bytes"), None
        line = self.buf[:end]
        del self.buf[:end + 1]
        self._scanned = 0
        try:   # a blob's lone surrogate escape fails only at `_frame_line`'s `_tag`
            line = line.decode("utf-8")   # the raw bytes die before the JSON decode
            frame = decode_frame(line)
            return frame, _frame_line(frame, log=True) if log else None
        except ValueError as exc:
            return ProtocolError(f"bad frame: {exc}"), _tag(line) if log else None

    def recv(self):
        deadline = time.monotonic() + self.timeout
        try:
            while (taken := self.take()) is None:
                if (left := deadline - time.monotonic()) <= 0:
                    raise TimeoutError
                self.sock.settimeout(left)
                self.read()
        except TimeoutError:   # the deadline's between chunks, or the socket's within one
            raise ProtocolError(f"frame incomplete after {self.timeout} s") from None
        if isinstance(frame := taken[0], ProtocolError):
            raise frame
        return frame


class FedServer:
    """Synchronous-barrier federated server.

    Accepts `expected_clients` hellos, then runs `rounds` rounds of
    broadcast/collect/aggregate, reading each phase's peers with `_gather`.
    A hello's `examples` is that client's FedAvg weight (`weights`). A
    refused peer gets an error frame with the reason and is closed for the
    session; a client that a send fails on is closed without one. Each round
    averages the updates that arrived, if at least `min_clients` did.

    Each broadcast line is built once and sent to every client. With an
    `eval_dataset`, the held-out loss of round r's model is computed while
    the clients train on it in round r+1, and the final model's after the
    last round: one per round in `eval_losses`. The transcript holds one
    line of at most `ENVELOPE_BYTES` characters per frame sent or received,
    "send " or "recv " and what `_Conn.take` logs of it, or its `_tag` if
    longer. Each `RoundRecord` counts the bytes that went over each socket.
    """

    def __init__(self, global_params: mdl.ModelParams, expected_clients: int, rounds: int, *,
                 min_clients: int = 1, timeout_s: float = PROTOCOL_TIMEOUT_S,
                 host: str = "127.0.0.1", port: int = 0, eval_dataset=None):
        if not 1 <= min_clients <= expected_clients:
            raise ValueError(f"min_clients {min_clients} must be between 1 and "
                             f"expected_clients {expected_clients}")
        check_value("rounds", rounds, COUNT_RULE)
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

    def _log(self, direction: str, line: str) -> None:
        entry = f"{direction} {line}"
        self.transcript.append(entry if len(entry) <= ENVELOPE_BYTES
                               else f"{direction} {_tag(line)}")

    def _send_all(self, conns: dict[int, _Conn], frame) -> None:
        """Send one line, encoded once, to every client; drop one it fails on."""
        data, logged = _wire(frame), _frame_line(frame, log=True)
        for cid in sorted(conns):
            try:
                conns[cid].send_line(data)
                self._log("send", logged)
            except OSError:
                conns.pop(cid).sock.close()

    def _evaluate(self, params: mdl.ModelParams) -> None:
        if self.eval_dataset is not None:
            self.eval_losses.append(mdl.mean_loss(params, self.eval_dataset))

    def serve(self) -> list[RoundRecord]:
        conns: dict[int, _Conn] = {}
        try:
            self._gather(0, conns, time.monotonic())
            for r in range(1, self.rounds + 1):
                self._run_tcp_round(r, conns)
            self._send_all(conns, Shutdown())
            self._evaluate(self.global_params)
            return self.records
        finally:
            for conn in conns.values():
                conn.sock.close()
            self._listener.close()

    def _gather(self, r: int, conns: dict[int, _Conn], begun: float) -> dict[int, mdl.ModelParams]:
        """The server's one reader of peer sockets: one selector reads all
        peers of a phase at once. Phase 0 accepts connections and keeps
        hellos into `conns` until `expected_clients` are kept; phase r keeps
        an update of round r from each client and returns them by client id.
        A peer with no whole frame by its deadline, `timeout_s` after its
        accept or after `begun` (the broadcast), is refused. The hello phase
        waits `timeout_s` for the next hello to be kept: a kept hello restarts
        the wait, and so does the phase's first refusal for silence, not a
        later one. New connections are closed while `expected_clients +
        REFUSALS_KEPT` are pending and once the wait is over, and then a
        `ProtocolError` ends the phase when none is pending. Kept frames are
        logged by client id when the phase ends, the first `REFUSALS_KEPT`
        refusals when they happen; the rest counted."""
        t, g = self.timeout_s, self.global_params
        ids = {conn: cid for cid, conn in conns.items()}
        waiting = dict.fromkeys(ids, begun + t)   # each peer's deadline
        idle_end, kept, refused, more, restart = begun + t, {}, [], 0, True
        sel = selectors.DefaultSelector()
        for conn in waiting:
            sel.register(conn.sock, selectors.EVENT_READ, conn)
        if not r:
            sel.register(self._listener, selectors.EVENT_READ)
            max_frame = len(params_b64(g)) + ENVELOPE_BYTES

        def refuse(conn: _Conn, exc: Exception, received: str | None = None) -> None:
            nonlocal more
            sel.unregister(conn.sock)
            del waiting[conn]
            reason = f"client {brief(ids[conn])}: {exc}" if conn in ids else str(exc)
            conns.pop(ids.get(conn), None)
            if log := len(refused) < REFUSALS_KEPT:
                refused.append(reason)
                if received is not None:
                    self._log("recv", received)
            more += not log
            with contextlib.suppress(OSError):
                conn.send(err := Error(reason))
                if log:
                    self._log("send", _frame_line(err))
            conn.sock.close()

        def take(conn: _Conn) -> None:   # read once, then keep or refuse a whole line
            nonlocal idle_end
            received = None
            try:
                conn.read()
                frame, received = conn.take(log=True) or (None, None)
                if frame is None:
                    return
                if isinstance(frame, ProtocolError):
                    raise frame
                if not r:
                    if not isinstance(frame, Hello):
                        raise ProtocolError(f"expected hello, not {_TYPE_OF[type(frame)]}")
                    if (cid := frame.client_id) in conns:
                        raise ProtocolError(f"client_id {brief(cid)} is already connected")
                    conns[cid], self.weights[cid], params = conn, frame.examples, None
                    idle_end = time.monotonic() + t
                else:
                    if not isinstance(frame, Update) or frame.round != r:
                        raise ProtocolError(f"expected the update of round {r}")
                    params, cid = params_from_b64(frame.params_b64), ids[conn]
                    del frame   # the update's text dies once it is decoded
                    if (params.shapes, params.mu, params.dropout) != (g.shapes, g.mu, g.dropout):
                        raise ProtocolError(f"layout or model config in round {r}")
                    if not np.isfinite(params.flat).all():
                        raise ProtocolError(f"non-finite parameters in round {r}")
            except (ProtocolError, OSError, ValueError) as exc:
                return refuse(conn, exc, received)
            sel.unregister(conn.sock)
            del waiting[conn]
            kept[cid] = params, received

        try:
            while waiting if r else len(conns) < self.expected_clients:
                now = time.monotonic()
                if expired := [c for c, end in waiting.items() if end <= now]:
                    for conn in expired:
                        refuse(conn, ProtocolError(f"frame incomplete after {t} s"))
                    if restart:
                        idle_end, restart = now + t, False
                    continue
                if not r and now >= idle_end and not waiting:
                    raise ProtocolError(
                        f"{len(conns)} of {self.expected_clients} clients said hello, then none "
                        f"for {t} s; refused hellos: {'; '.join(refused) or 'none'}"
                        f"{f'; and {more} more refused' if more else ''}")
                wake = min(end for end in (idle_end, *waiting.values()) if end > now) - now
                for key, _ in sel.select(wake)[:1]:   # one, then the phase is checked again
                    if key.data is not None:
                        take(key.data)
                    elif now >= idle_end or len(waiting) >= self.expected_clients + REFUSALS_KEPT:
                        self._listener.accept()[0].close()
                    else:
                        sock, _ = self._listener.accept()
                        waiting[conn := _Conn(sock, t, max_frame)] = time.monotonic() + t
                        sel.register(sock, selectors.EVENT_READ, conn)
        finally:
            sel.close()
            for conn in waiting:
                conn.sock.close()
            for cid in sorted(kept):
                self._log("recv", kept[cid][1])
        return {cid: params for cid, (params, _) in sorted(kept.items())}

    def _run_tcp_round(self, r: int, conns: dict[int, _Conn]) -> None:
        g = self.global_params
        began = {cid: conns[cid] for cid in sorted(conns)}
        for conn in began.values():
            conn.received = conn.sent = 0   # this round's bytes
        self._send_all(conns, RoundBegin(r, params_b64(g)))
        broadcast = time.monotonic()
        if r > 1:   # round r-1's model, evaluated while the clients train on it
            self._evaluate(g)
        updates = self._gather(r, conns, broadcast)
        if len(updates) < self.min_clients:
            raise ProtocolError(
                f"round {r}: only {len(updates)} updates arrived, need {self.min_clients}")

        # `updates` is in ascending client id order: a deterministic reduction
        counts = {cid: self.weights[cid] for cid in updates}
        self.global_params = fed_avg([(p, counts[cid]) for cid, p in updates.items()])
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
        check_value("local_epochs", local_epochs, COUNT_RULE)
        self.client_id = client_id
        self.dataset = dataset
        self.opt_cfg = opt_cfg
        self.seed = seed
        self.local_epochs = local_epochs
        self.trainer: mdl.Trainer | None = None

    def run(self, host: str, port: int, timeout: float = PROTOCOL_TIMEOUT_S) -> int:
        """Participate until shutdown; returns the number of rounds trained.
        A reply may wait out a whole server phase of the same `timeout` and
        the server's own work, so each reply and send gets twice `timeout`."""
        check_value("timeout", timeout, *TIMEOUT_RULES)
        rounds = 0
        hello = Hello(self.client_id, int(self.dataset.X.shape[0]))   # an empty shard fails here
        with socket.create_connection((host, port), timeout=timeout) as sock:
            conn = _Conn(sock, 2 * timeout)
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
                params = local_train(self.trainer, self.dataset, global_params, self.local_epochs)
                conn.send(Update(rnd, params_b64(params)))
                rounds += 1


def train_federated_tcp(shards: list, init_params: mdl.ModelParams,
                        opt_cfg: mdl.OptConfig, rounds: int, seeds: list[int],
                        local_epochs: int = 1, eval_dataset=None,
                        timeout: float = PROTOCOL_TIMEOUT_S,
                        ) -> tuple[mdl.ModelParams, list[RoundRecord], list[str], list[float]]:
    """Run a whole federated session on localhost threads; returns the final
    global parameters, the round records, the server's transcript and, with
    an `eval_dataset`, the per-round held-out losses. A failed client
    re-raises its exception once the server is done; when the server ends the
    session with a `ProtocolError`, the lowest-id client's own failure (not a
    `ProtocolError` or `OSError`) is raised in its place, chained from it."""
    if len(shards) != len(seeds):
        raise ValueError("one seed per shard required")
    server = FedServer(init_params.copy(), expected_clients=len(shards), rounds=rounds,
                       timeout_s=timeout, eval_dataset=eval_dataset)
    host, port = server.address

    clients = [FedClient(i + 1, shard, opt_cfg, seed, local_epochs)
               for i, (shard, seed) in enumerate(zip(shards, seeds))]
    with ThreadPoolExecutor(max_workers=len(clients)) as pool:
        runs = [pool.submit(c.run, host, port, timeout) for c in clients]
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
