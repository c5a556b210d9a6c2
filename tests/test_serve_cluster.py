"""Client reconnect tests: transparent reconnect-and-resend.

The file name is historical: it once also held the tests of a
multi-host cluster tier, which has since been removed.  What is left
covers :class:`~repro.serve.ServeClient`'s bounded transparent
reconnect -- a dropped connection is retried once with the identical
(idempotent) frame, a second drop propagates as a typed ``connection``
error, and an unreachable server fails fast.
"""

import socket
import threading

import pytest

from repro.serve import ServeClient, ServeError, protocol


class _FlakyServer(object):
    """Accepts connections; drops the first N requests without a reply."""

    def __init__(self, drops=1):
        self.drops = drops
        self.requests = []
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.address = self._sock.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while True:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return
            reader = conn.makefile("rb")
            writer = conn.makefile("wb")
            try:
                while True:
                    frame = protocol.read_frame_blocking(reader)
                    if frame is None:
                        break
                    self.requests.append(frame)
                    if self.drops > 0:
                        self.drops -= 1
                        break        # slam the connection, no reply
                    protocol.write_frame_blocking(
                        writer, {"type": "pong"})
            except (OSError, protocol.ProtocolError):
                pass
            finally:
                # close the makefile handles too, or the client sees a
                # stalled-but-open socket instead of a clean EOF
                for handle in (reader, writer):
                    try:
                        handle.close()
                    except OSError:
                        pass
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                conn.close()

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


class TestClientReconnect(object):
    def test_dropped_connection_is_retried_once_transparently(self):
        server = _FlakyServer(drops=1)
        try:
            client = ServeClient(*server.address, timeout=5.0)
            reply = client.ping()
            assert reply["type"] == "pong"
            assert client.reconnects == 1
            # the resend carried the identical frame (idempotent)
            assert len(server.requests) == 2
            assert server.requests[0] == server.requests[1]
            client.close()
        finally:
            server.close()

    def test_second_drop_propagates_not_loops(self):
        server = _FlakyServer(drops=5)
        try:
            client = ServeClient(*server.address, timeout=5.0)
            with pytest.raises(ServeError) as info:
                client.ping()
            assert info.value.code == "connection"
            # exactly one bounded resend: two requests hit the wire
            assert len(server.requests) == 2
            assert client.reconnects == 1
            client.close()
        finally:
            server.close()

    def test_unreachable_server_raises_typed_connection_error(self):
        sock = socket.create_server(("127.0.0.1", 0))
        host, port = sock.getsockname()
        sock.close()                     # nobody is listening here now
        client = ServeClient(host, port, timeout=0.5)
        with pytest.raises(ServeError) as info:
            client.ping()
        assert info.value.code == "connection"
