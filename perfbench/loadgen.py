"""Open-loop HTTP/1.1 load generator over a few keep-alive connections.

Every request has a *due* time fixed before the run starts.  A small
pool of connection threads takes requests strictly in due order; each
thread sleeps until the request is due, sends it, and reads the reply.
When every connection is busy, a due request waits for the first free
one, and its latency is still measured from the due time, so a stalled
server is charged for the requests it delayed (no coordinated omission).

Timestamps are taken at the socket: ``sent`` after ``sendall``,
``first_byte`` when the first ``recv`` returns, ``last_byte`` when the
body named by ``Content-Length`` is complete.  All times are
``time.perf_counter`` values, which share one monotonic clock with the
server processes on the same host.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass

import numpy as np

# Lead time between building the schedule and the first due request, so
# thread start-up is not charged to the first requests.
_LEAD_SECONDS = 0.05


@dataclass
class Reply:
    """One request's outcome and socket-level timestamps (seconds)."""

    index: int
    due: float
    free: float = 0.0        # when a connection became free to send it
    sent: float = 0.0
    first_byte: float = 0.0
    last_byte: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.error

    @property
    def latency(self) -> float:
        """Due time to last response byte."""
        return self.last_byte - self.due

    @property
    def ttfb(self) -> float:
        return self.first_byte - self.sent

    @property
    def reply_tail(self) -> float:
        return self.last_byte - self.first_byte

    @property
    def generator_lag(self) -> float:
        """How late the generator sent a request it had a connection for."""
        return self.sent - max(self.due, self.free)


def encode_request(path: str, body: bytes) -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode() + body


def _read_reply(sock: socket.socket, reply: Reply) -> None:
    buffer = b""
    header_end = -1
    while header_end < 0:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed before headers")
        if not reply.first_byte:
            reply.first_byte = time.perf_counter()
        buffer += chunk
        header_end = buffer.find(b"\r\n\r\n")
    head, body = buffer[:header_end], buffer[header_end + 4:]
    lines = head.split(b"\r\n")
    reply.status = int(lines[0].split()[1])
    length = 0
    for line in lines[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed mid-body")
        body += chunk
    reply.last_byte = time.perf_counter()
    reply.body = body


def run_open_loop(port: int, offsets: list[float], payloads: list[bytes],
                  connections: int, rng=None, path: str = "/v1/predict",
                  timeout: float = 30.0) -> list[Reply]:
    """Send ``payloads[i]`` due at ``offsets[i]`` seconds after start.

    A dispatcher hands each request, in due order, to an idle connection
    drawn from ``rng`` (the first one when ``rng`` is None), or waits for
    the first one to free up.  Random choice matters for keep-alive: a
    connection reused within ~40 ms of its last reply is the one whose
    next reply can stall, and a random pick reuses one at 10 req/s about
    a fifth of the time, where an oldest-idle pick (~8%) or a newest-idle
    pick (~40%) puts the stall next to the p90 or the p50 of the light
    phase, and those flip between runs.  Returns one
    :class:`Reply` per request, in schedule order.  A request that fails
    (refused, reset, timed out) is recorded with its ``error`` and its
    connection is reopened for the next one.
    """
    start = time.perf_counter() + _LEAD_SECONDS
    replies = [Reply(i, start + offset) for i, offset in enumerate(offsets)]
    frames = [encode_request(path, body) for body in payloads]
    pool = threading.Condition()
    idle: list[_Connection] = []
    workers = [_Connection(port, timeout, pool, idle, frames, start)
               for _ in range(connections)]
    idle.extend(workers)
    for worker in workers:
        worker.thread.start()
    try:
        for reply in replies:
            wait = reply.due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            with pool:
                while not idle:
                    pool.wait()
                worker = idle.pop(int(rng.integers(len(idle)))
                                  if rng is not None else 0)
            worker.assign(reply)
    finally:
        for worker in workers:
            worker.assign(None)
        for worker in workers:
            worker.thread.join()
    return replies


class _Connection:
    """One keep-alive connection and the thread that drives it."""

    def __init__(self, port: int, timeout: float, pool: threading.Condition,
                 idle: list, frames: list[bytes], start: float) -> None:
        self.port, self.timeout = port, timeout
        self.pool, self.idle, self.frames = pool, idle, frames
        self.released = start
        self.sock: socket.socket | None = None
        self._inbox: list = []
        self._ready = threading.Semaphore(0)
        self.thread = threading.Thread(target=self._run, daemon=True)

    def assign(self, reply: Reply | None) -> None:
        self._inbox.append(reply)
        self._ready.release()

    def _run(self) -> None:
        try:
            while True:
                self._ready.acquire()
                reply = self._inbox.pop(0)
                if reply is None:
                    return
                self._send(reply)
                with self.pool:
                    self.released = time.perf_counter()
                    self.idle.append(self)
                    self.pool.notify()
        finally:
            if self.sock is not None:
                self.sock.close()

    def _send(self, reply: Reply) -> None:
        reply.free = self.released
        try:
            if self.sock is None:
                self.sock = socket.create_connection(("127.0.0.1", self.port),
                                                     timeout=self.timeout)
            self.sock.sendall(self.frames[reply.index])
            reply.sent = time.perf_counter()
            _read_reply(self.sock, reply)
        except OSError as error:
            reply.error = f"{type(error).__name__}: {error}"
            reply.last_byte = time.perf_counter()
            if self.sock is not None:
                self.sock.close()
            self.sock = None


def poisson_offsets(rng, rate: float, count: int) -> list[float]:
    """``count`` arrival offsets of a Poisson process at ``rate`` per s.

    The gaps are the exponential distribution's ``count`` stratified
    quantiles, scaled to average exactly ``1 / rate``, in an order drawn
    from ``rng``: the phase runs at its nominal rate, and only the order
    of the gaps is random.
    """
    quantiles = (np.arange(count) + 0.5) / count
    gaps = -np.log1p(-quantiles)
    gaps /= gaps.mean() * rate
    return [float(x) for x in rng.permutation(gaps).cumsum()]
