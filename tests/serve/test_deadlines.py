"""Server read deadlines, driven over raw sockets.

A request whose head or body stalls past ``REQUEST_TIMEOUT_S`` gets a
best-effort ``408`` and the connection closes; a keep-alive connection
idle past ``IDLE_TIMEOUT_S`` closes silently.  A client whose pauses stay
under both is unaffected.  ``/v1/stats`` counts both kinds of close.
"""

from __future__ import annotations

import asyncio
import socket
import time

import pytest

from repro.serve import ServeClient, app, start_in_thread

REQUEST_S = 0.4
IDLE_S = 0.6


@pytest.fixture
def server(monkeypatch):
    # Each connection reads the deadlines when it starts.
    monkeypatch.setattr(app, "REQUEST_TIMEOUT_S", REQUEST_S)
    monkeypatch.setattr(app, "IDLE_TIMEOUT_S", IDLE_S)
    handle = start_in_thread()
    yield handle
    handle.stop()


def connect(server) -> socket.socket:
    return socket.create_connection((server.host, server.port), timeout=10)


def read_until_eof(sock: socket.socket) -> bytes:
    data = b""
    while True:
        block = sock.recv(65536)
        if not block:
            return data
        data += block


def read_response(sock: socket.socket):
    """One ``Content-Length`` response: ``(status, body)``."""
    data = b""
    while b"\r\n\r\n" not in data:
        block = sock.recv(65536)
        assert block, f"connection closed mid-response: {data!r}"
        data += block
    head, body = data.split(b"\r\n\r\n", 1)
    lines = head.decode("latin-1").split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines[1:])
    length = int(headers["Content-Length"])
    while len(body) < length:
        block = sock.recv(65536)
        assert block, "connection closed mid-body"
        body += block
    return int(lines[0].split(" ")[1]), body


def stats_when(server, predicate) -> dict:
    """``/v1/stats`` once ``predicate`` holds (closes are counted as the
    server's connection loop unwinds, just after the socket closes)."""
    give_up = time.monotonic() + 10
    while True:
        with ServeClient(server.host, server.port, retry=None) as client:
            stats = client.stats()
        if predicate(stats) or time.monotonic() > give_up:
            return stats
        time.sleep(0.02)


def healthz(keep_alive: bool = True) -> bytes:
    return (b"GET /healthz HTTP/1.1\r\nHost: test\r\n"
            + (b"" if keep_alive else b"Connection: close\r\n") + b"\r\n")


class TestStalledRequests:
    def test_stalled_head_gets_408_then_close(self, server):
        with connect(server) as sock:
            started = time.monotonic()
            sock.sendall(b"POST /v1/simulate HTTP/1.1\r\nHost: test\r\n")
            reply = read_until_eof(sock)
            waited = time.monotonic() - started
        assert reply.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        assert b"Connection: close" in reply and b"not received within" in reply
        assert REQUEST_S * 0.9 <= waited < REQUEST_S + 5
        stats = stats_when(server, lambda s: s["request_timeouts"] == 1)
        assert (stats["request_timeouts"], stats["idle_timeouts"]) == (1, 0)
        assert stats["streams_aborted"] == 0

    def test_stalled_body_gets_408_then_close(self, server):
        with connect(server) as sock:
            sock.sendall(b"POST /v1/simulate HTTP/1.1\r\nHost: test\r\n"
                         b"Content-Type: application/json\r\nContent-Length: 100\r\n\r\n"
                         b'{"workload"')
            reply = read_until_eof(sock)
        assert reply.startswith(b"HTTP/1.1 408 ")
        stats = stats_when(server, lambda s: s["request_timeouts"] == 1)
        assert (stats["request_timeouts"], stats["idle_timeouts"]) == (1, 0)
        assert stats["executed"] == 0

    def test_stalled_chunked_body_gets_408(self, server):
        with connect(server) as sock:
            sock.sendall(b"POST /v1/traces HTTP/1.1\r\nHost: test\r\n"
                         b"Transfer-Encoding: chunked\r\n\r\n4\r\nabcd\r\n")
            reply = read_until_eof(sock)
        assert reply.startswith(b"HTTP/1.1 408 ")
        assert stats_when(server, lambda s: s["request_timeouts"] == 1)[
            "request_timeouts"] == 1


class TestIdleConnections:
    def test_idle_keep_alive_connection_closes_silently(self, server):
        with connect(server) as sock:
            sock.sendall(healthz())
            status, _ = read_response(sock)
            assert status == 200
            started = time.monotonic()
            assert read_until_eof(sock) == b""  # no 408, just a close
            waited = time.monotonic() - started
        assert IDLE_S * 0.9 <= waited < IDLE_S + 5
        stats = stats_when(server, lambda s: s["idle_timeouts"] == 1)
        assert (stats["request_timeouts"], stats["idle_timeouts"]) == (0, 1)

    def test_connection_that_never_sends_closes_silently(self, server):
        with connect(server) as sock:
            assert read_until_eof(sock) == b""
        assert stats_when(server, lambda s: s["idle_timeouts"] == 1)["idle_timeouts"] == 1


class TestPatientClient:
    def test_pauses_under_the_timeouts_are_unaffected(self, server):
        body = (b'{"workload": "microbench", "manager": "ideal", '
                b'"cores": 1, "scale": 0.02}')
        head = (b"POST /v1/simulate HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body))
        pause = REQUEST_S / 5
        started = time.monotonic()
        with connect(server) as sock:
            for _ in range(3):
                # A request trickled in pieces, well inside its deadline.
                for piece in (head[:20], head[20:], body):
                    sock.sendall(piece)
                    time.sleep(pause)
                status, _ = read_response(sock)
                assert status == 200
                time.sleep(IDLE_S / 2)  # idle, but under the idle timeout
            sock.sendall(healthz(keep_alive=False))
            status, _ = read_response(sock)
            assert status == 200
            assert read_until_eof(sock) == b""
        # The connection outlived both timeouts in total without tripping either.
        assert time.monotonic() - started > REQUEST_S + IDLE_S
        stats = stats_when(server, lambda s: True)
        assert (stats["request_timeouts"], stats["idle_timeouts"]) == (0, 0)


class _Transport:
    """Records what a deadline writes, and whether it aborted."""

    def __init__(self) -> None:
        self.written = b""
        self.aborted = False

    def write(self, data: bytes) -> None:
        self.written += data

    def abort(self) -> None:
        self.aborted = True


class _ExpiresOnArrival(app._Deadline):
    """A request deadline whose timer comes due as the request lands."""

    def request(self) -> None:
        super().request()
        self._expire("request")


class TestDeadlineAtArrival:
    def test_request_complete_when_timer_fires_is_not_served(self):
        body = b'{"workload": "microbench", "manager": "ideal", "cores": 1}'
        wire = (b"POST /v1/simulate HTTP/1.1\r\nHost: test\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body)

        async def read():
            reader = asyncio.StreamReader()
            reader.feed_data(wire)  # the whole request is already buffered
            transport = _Transport()
            deadline = _ExpiresOnArrival(transport, request_s=REQUEST_S, idle_s=IDLE_S)
            request = await app._read_request(reader, 1 << 20, deadline)
            return request, transport, deadline

        request, transport, deadline = asyncio.run(read())
        assert request is None
        assert deadline.expired == "request"
        assert transport.aborted
        assert transport.written.startswith(b"HTTP/1.1 408 ")
