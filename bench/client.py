"""Closed-loop HTTP replay against a running ``mockskel serve``.

One thread drives every connection through a selector, so the client
adds no threads of its own to compete with the server for the two cores.
Each keep-alive connection sends its next request only after the previous
reply has been read in full, as a test suite calling the mock would.
Every resource is pinned to one connection, so per-resource order, and
with it the mock's state, follows the recording.  When a connection
reaches the end of its share it starts over with the resource ids moved
to a fresh range (``Replay.target``), so every cycle meets a clean
per-resource state without resetting the server.
"""

from __future__ import annotations

import math
import selectors
import socket
import statistics
import time
import zlib
from dataclasses import dataclass, field

from workloads import Replay

P99_WINDOW = 1000  # requests; a p99 needs at least this many


@dataclass
class ConnectionStats:
    #: (completed at, latency) in perf_counter nanoseconds, one per answered request
    answered: list[tuple[int, int]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0  # transport errors, timeouts, 5xx
    agreed: int = 0  # served status == recorded status
    cycles: int = 0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``0 < q <= 1``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def windowed_p99(latencies: list[float]) -> float:
    """Median, over consecutive windows of at least ``P99_WINDOW`` requests
    in completion order, of each window's p99.  A run with fewer than two
    windows' worth of requests gets the plain p99; with more, a short host
    stall moves one window, not the result."""
    windows = max(1, len(latencies) // P99_WINDOW)
    size = len(latencies) / windows
    return statistics.median(
        percentile(latencies[round(i * size):round((i + 1) * size)], 0.99) for i in range(windows))


def shard(replays: list[Replay], connections: int) -> list[list[Replay]]:
    """Split a recording by resource, keeping recording order per shard."""
    shards: list[list[Replay]] = [[] for _ in range(connections)]
    for replay in replays:
        shards[zlib.crc32(replay.path.encode()) % connections].append(replay)
    return [s for s in shards if s]


def encode_request(replay: Replay, cycle: int, host: str) -> bytes:
    lines = [f"{replay.method} {replay.target(cycle)} HTTP/1.1", f"Host: {host}"]
    lines += [f"{name}: {value}" for name, value in replay.headers]
    if replay.body is not None:
        lines.append(f"Content-Length: {len(replay.body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + (replay.body or b"")


def parse_response(buffer: bytes) -> tuple[int, bool] | None:
    """(status, server closes) once ``buffer`` holds one whole response."""
    end = buffer.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = buffer[:end].decode("latin-1").split("\r\n")
    length, closes = 0, False
    for line in head[1:]:
        name, _, value = line.partition(":")
        name = name.strip().lower()
        if name == "content-length":
            length = int(value)
        elif name == "connection":
            closes = value.strip().lower() == "close"
    if len(buffer) < end + 4 + length:
        return None
    return int(head[0].split()[1]), closes


class _Connection:
    def __init__(self, port: int, replays: list[Replay], stats: ConnectionStats,
                 timeout_s: float):
        self.port = port
        self.timeout_s = timeout_s
        self.host = f"127.0.0.1:{port}"
        self.replays = replays
        self.stats = stats
        self.sock: socket.socket | None = None
        self.index = 0
        self.buffer = b""
        self.sent_ns = 0

    def send(self, selector: selectors.BaseSelector) -> None:
        """Send the next request, reconnecting first if needed."""
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=self.timeout_s)
            selector.register(self.sock, selectors.EVENT_READ, self)
        self.stats.attempted += 1
        self.buffer = b""
        self.sent_ns = time.perf_counter_ns()
        self.sock.sendall(encode_request(self.replays[self.index], self.stats.cycles, self.host))

    def close(self, selector: selectors.BaseSelector) -> None:
        if self.sock is not None:
            selector.unregister(self.sock)
            self.sock.close()
            self.sock = None

    def finish(self, status: int | None) -> None:
        """Account for the request in flight; ``None`` means it failed."""
        if status is None:
            self.stats.failed += 1
        else:
            now_ns = time.perf_counter_ns()
            self.stats.answered.append((now_ns, now_ns - self.sent_ns))
            self.stats.failed += status >= 500
            self.stats.agreed += status == self.replays[self.index].status
        self.index += 1
        if self.index == len(self.replays):
            self.index = 0
            self.stats.cycles += 1


def replay_http(port: int, replays: list[Replay], connections: int, seconds: float,
                timeout_s: float) -> tuple[list[ConnectionStats], float]:
    """Replay for ``seconds`` over ``connections`` connections; returns the
    per-connection stats and the wall time until the last reply."""
    shards = shard(replays, connections)
    stats = [ConnectionStats() for _ in shards]
    conns = [_Connection(port, s, st, timeout_s) for s, st in zip(shards, stats)]
    selector = selectors.DefaultSelector()
    start = time.perf_counter()
    deadline = start + seconds
    busy = set()

    def next_request(conn: _Connection) -> None:
        while time.perf_counter() < deadline:
            try:
                conn.send(selector)
            except OSError:
                conn.close(selector)
                conn.finish(None)
                time.sleep(0.01)  # the server is unreachable; do not spin
                continue
            busy.add(conn)
            return
        conn.close(selector)

    try:
        for conn in conns:
            next_request(conn)
        while busy:
            for key, _ in selector.select(timeout=0.05):
                conn = key.data
                try:
                    chunk = conn.sock.recv(65536)
                except OSError:
                    chunk = b""
                if not chunk:  # the server closed or reset the connection
                    busy.discard(conn)
                    conn.close(selector)
                    conn.finish(None)
                    next_request(conn)
                    continue
                conn.buffer += chunk
                try:
                    parsed = parse_response(conn.buffer)
                except (ValueError, IndexError):
                    parsed = (599, True)  # unparseable: count as a failure, reconnect
                if parsed is None:
                    continue
                busy.discard(conn)
                status, closes = parsed
                conn.finish(status)
                if closes:
                    conn.close(selector)
                next_request(conn)
            now_ns = time.perf_counter_ns()
            for conn in [c for c in busy if now_ns - c.sent_ns > timeout_s * 1e9]:
                busy.discard(conn)
                conn.close(selector)
                conn.finish(None)
                next_request(conn)
    finally:
        for conn in conns:
            conn.close(selector)
        selector.close()
    return stats, time.perf_counter() - start
