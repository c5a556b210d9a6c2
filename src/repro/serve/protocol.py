"""Wire protocol: length-prefixed JSON frames.

Every message between client and server is one *frame*::

    +----------------+----------------------------+
    | 4 bytes, u32be | UTF-8 JSON object payload  |
    +----------------+----------------------------+

The length prefix counts payload bytes only.  A frame's payload must be
a single JSON **object** (not an array/scalar); this keeps dispatch
uniform (``{"type": ...}``) and makes malformed input detectable early.

The decoder is *sans-IO*: :class:`FrameDecoder.feed` accepts arbitrary
byte chunks and yields complete messages, so the same implementation
(and the same tests) back the asyncio server, the blocking stdlib
client, and the abuse-path unit tests -- no sockets required.

Failure taxonomy: every way a peer can misbehave maps to a typed
:class:`ProtocolError` with a stable ``code`` drawn from
:data:`ERROR_CODES`; the server turns these into ``{"type": "error",
"code": ...}`` reply frames instead of wedging or dying (see
``tests/test_serve_protocol.py``).

* ``too-large``  -- declared payload length exceeds the frame cap
  (connection is closed afterwards: the stream cannot be resynced
  without reading the oversized body);
* ``bad-json``   -- well-framed payload that is not valid JSON
  (recoverable: framing is intact, the connection continues);
* ``bad-frame``  -- valid JSON that is not an object, or a missing /
  non-string ``type`` field (recoverable);
* ``truncated``  -- the peer disconnected mid-frame (detected by the
  reader helpers, never replied to -- the socket is gone).
"""

import json
import struct

#: hard cap on payload bytes accepted from a peer (per frame)
MAX_FRAME_BYTES = 1 << 20
#: reply frames can be bigger (a wide sweep's result set); clients use
#: this as their decoder limit
MAX_REPLY_BYTES = 8 << 20

_HEADER = struct.Struct(">I")
HEADER_BYTES = _HEADER.size

#: stable error codes carried by error frames (wire-visible API)
ERROR_CODES = (
    "too-large",       # frame bigger than the receiver's cap
    "bad-json",        # payload is not valid JSON
    "bad-frame",       # payload is not an object with a string "type"
    "truncated",       # peer vanished mid-frame
    "unknown-type",    # request type the server does not implement
    "bad-request",     # schema-valid frame with invalid request fields
    "unknown-job",     # job id not in the table
    "not-cancellable", # cancel on an already-terminal job
    "busy",            # admission queue past its high-water mark
    "circuit-open",    # per-benchmark circuit breaker is open (busy-class)
    "deadline-exceeded", # job shed: its deadline expired before execution
    "shutting-down",   # server is draining; no new submissions
    "internal",        # unexpected server-side exception
)

#: busy-class error codes: transient, safe for clients to retry with
#: backoff (unlike e.g. ``bad-request`` or ``deadline-exceeded``)
BUSY_CLASS_CODES = ("busy", "circuit-open")


class ProtocolError(Exception):
    """A violation of the framing or message grammar.

    :param code: one of :data:`ERROR_CODES`.
    """

    def __init__(self, message, code="bad-frame"):
        super().__init__(message)
        self.code = code

    def as_frame(self):
        """The ``{"type": "error"}`` reply payload for this failure."""
        return error_message(self.code, str(self))


def error_message(code, message, **extra):
    """Build a typed error payload (the body of an error frame)."""
    body = {"type": "error", "code": code, "message": message}
    body.update(extra)
    return body


def encode_frame(message, max_bytes=MAX_REPLY_BYTES):
    """Serialise one message dict into a length-prefixed frame.

    :raises ProtocolError: the encoded payload exceeds *max_bytes*
        (``code="too-large"``) or the message is not JSON-serialisable
        (``code="bad-frame"``).
    """
    if not isinstance(message, dict):
        raise ProtocolError(
            "frame payload must be a JSON object, got %s"
            % type(message).__name__
        )
    try:
        payload = json.dumps(
            message, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError("unserialisable frame payload: %s" % exc)
    if len(payload) > max_bytes:
        raise ProtocolError(
            "frame payload of %d bytes exceeds the %d byte cap"
            % (len(payload), max_bytes),
            code="too-large",
        )
    return _HEADER.pack(len(payload)) + payload


def decode_payload(payload):
    """Decode one frame payload into a message dict.

    :raises ProtocolError: ``bad-json`` for unparseable bytes,
        ``bad-frame`` for a non-object or a missing/typeless ``type``.
    """
    try:
        message = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError("unparseable frame payload: %s" % exc,
                            code="bad-json")
    if not isinstance(message, dict):
        raise ProtocolError(
            "frame payload must be a JSON object, got %s"
            % type(message).__name__
        )
    kind = message.get("type")
    if not isinstance(kind, str) or not kind:
        raise ProtocolError('frame payload needs a string "type" field')
    return message


class FrameDecoder(object):
    """Incremental frame parser over an arbitrary chunk stream.

    ``feed(data)`` buffers *data* and returns every complete message it
    terminates.  Oversized declared lengths raise immediately (before
    the body arrives), so a hostile 4 GiB header costs four bytes of
    buffering, not memory exhaustion.
    """

    __slots__ = ("max_bytes", "_buffer", "_need")

    def __init__(self, max_bytes=MAX_FRAME_BYTES):
        self.max_bytes = max_bytes
        self._buffer = bytearray()
        self._need = None  # declared payload length once header is read

    @property
    def pending_bytes(self):
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    def feed(self, data):
        """Consume *data*; return the list of completed messages.

        :raises ProtocolError: ``too-large`` / ``bad-json`` /
            ``bad-frame`` -- the decoder is poisoned afterwards and the
            connection should be torn down (the server replies with the
            typed error first where the stream allows it).
        """
        self._buffer.extend(data)
        messages = []
        while True:
            if self._need is None:
                if len(self._buffer) < HEADER_BYTES:
                    break
                (self._need,) = _HEADER.unpack_from(self._buffer)
                del self._buffer[:HEADER_BYTES]
                if self._need > self.max_bytes:
                    raise ProtocolError(
                        "declared frame length %d exceeds the %d byte cap"
                        % (self._need, self.max_bytes),
                        code="too-large",
                    )
            if len(self._buffer) < self._need:
                break
            payload = bytes(self._buffer[:self._need])
            del self._buffer[:self._need]
            self._need = None
            messages.append(decode_payload(payload))
        return messages


# ----------------------------------------------------------------------
# asyncio reader/writer helpers (server side)

async def read_frame(reader, max_bytes=MAX_FRAME_BYTES):
    """Read one frame from an :class:`asyncio.StreamReader`.

    Each part is one ``readexactly``; the ``EOFError`` it raises
    (``asyncio.IncompleteReadError``) carries the bytes that did arrive.

    :returns: the decoded message, or ``None`` on a clean EOF at a
        frame boundary.
    :raises ProtocolError: ``truncated`` when the peer disconnects
        mid-frame, ``too-large`` (before the body is read) for a
        declared length above *max_bytes*, plus the
        :func:`decode_payload` failures.
    """
    try:
        header = await reader.readexactly(HEADER_BYTES)
    except EOFError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("peer disconnected inside a frame header",
                            code="truncated")
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            "declared frame length %d exceeds the %d byte cap"
            % (length, max_bytes),
            code="too-large",
        )
    try:
        payload = await reader.readexactly(length)
    except EOFError:
        raise ProtocolError("peer disconnected inside a frame body",
                            code="truncated")
    return decode_payload(payload)


async def write_frame(writer, message, max_bytes=MAX_REPLY_BYTES):
    """Encode and send one frame over an :class:`asyncio.StreamWriter`."""
    writer.write(encode_frame(message, max_bytes=max_bytes))
    await writer.drain()


# ----------------------------------------------------------------------
# blocking file-object helpers (worker-subprocess pipes)

def read_frame_blocking(fp, max_bytes=MAX_REPLY_BYTES):
    """Read one frame from a blocking binary file object (worker stdin).

    :returns: the decoded message, or ``None`` on a clean EOF at a
        frame boundary.
    :raises ProtocolError: ``truncated`` on EOF mid-frame, plus the
        :func:`decode_payload` failures.
    """
    header = fp.read(HEADER_BYTES)
    if not header:
        return None
    while len(header) < HEADER_BYTES:
        chunk = fp.read(HEADER_BYTES - len(header))
        if not chunk:
            raise ProtocolError("peer closed inside a frame header",
                                code="truncated")
        header += chunk
    (length,) = _HEADER.unpack(header)
    if length > max_bytes:
        raise ProtocolError(
            "declared frame length %d exceeds the %d byte cap"
            % (length, max_bytes),
            code="too-large",
        )
    payload = b""
    while len(payload) < length:
        chunk = fp.read(length - len(payload))
        if not chunk:
            raise ProtocolError("peer closed inside a frame body",
                                code="truncated")
        payload += chunk
    return decode_payload(payload)


def write_frame_blocking(fp, message, max_bytes=MAX_REPLY_BYTES):
    """Encode and write one frame to a blocking binary file object."""
    fp.write(encode_frame(message, max_bytes=max_bytes))
    fp.flush()


# ----------------------------------------------------------------------
# blocking socket helpers (stdlib client side)

def send_frame(sock, message, max_bytes=MAX_REPLY_BYTES):
    """Send one frame over a blocking socket."""
    sock.sendall(encode_frame(message, max_bytes=max_bytes))


def recv_frame(sock, decoder, pending):
    """Receive one frame over a blocking socket via a shared decoder.

    :param decoder: the connection's :class:`FrameDecoder` (frames can
        arrive split or glued across ``recv`` calls; the decoder owns
        the carry-over buffer).
    :param pending: a mutable deque/list of already-decoded messages --
        when one ``recv`` yields several glued frames the extras are
        queued here and served first on the next call.
    :returns: the next message, or ``None`` on clean EOF.
    :raises ProtocolError: ``truncated`` on mid-frame disconnect.
    """
    if pending:
        return pending.popleft()
    while True:
        data = sock.recv(65536)
        if not data:
            if decoder.pending_bytes or decoder._need is not None:
                raise ProtocolError(
                    "server disconnected inside a frame", code="truncated"
                )
            return None
        messages = decoder.feed(data)
        if messages:
            pending.extend(messages[1:])
            return messages[0]
