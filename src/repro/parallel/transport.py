"""Byte-metered message transport under the distributed resident backend.

This module is the *transport seam* of :mod:`repro.parallel.distributed`: the
coordinator/rank protocol is expressed entirely against the three names
exported here — :class:`MessageListener` (rank side), :func:`connect_with_retry`
(coordinator side) and the :class:`MessageConnection` both sides exchange
messages through — so an alternative inter-host transport (an MPI
implementation, a TLS-wrapped socket, a shared-memory ring) drops in by
providing the same duplex ``send(obj)`` / ``recv()`` surface and the same byte
counters.

The shipped implementation is a framed pickle protocol over TCP:

* every message is one frame — an 8-byte big-endian length header followed by
  the ``pickle.dumps`` of the object (``HIGHEST_PROTOCOL``, so NumPy arrays
  ship as zero-copy buffers rather than lists);
* connections count **every byte that crosses the socket**, headers included,
  in both directions (``bytes_sent`` / ``bytes_received`` plus message
  counts). These are the *measured* counterparts of the logical
  :func:`repro.parallel.backends.shipped_nbytes` meter — the distributed
  tests gate the two against each other, which is what makes the logical
  accounting an honest model of real wire traffic. Partial transfers are
  charged too: a ``send`` that dies mid-frame still counts the chunks that
  hit the wire, and a receive that fails mid-frame still counts the bytes
  already drained, so the measured meters cannot drift under the logical
  ones across reconnects;
* ``TCP_NODELAY`` is set on every connection: superstep phases are small
  latency-sensitive request/response rounds, exactly the workload Nagle's
  algorithm penalises.

The default bind address is localhost (CI runs the whole cluster on one
host); pointing :class:`MessageListener` and :func:`connect_with_retry` at a
routable address is all multi-host operation needs at this layer. The
transport carries no authentication — deploy it only on trusted networks (or
swap this seam for one that wraps the socket).
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
from typing import Any, Callable, Optional, Tuple

__all__ = [
    "Address",
    "MessageConnection",
    "MessageListener",
    "TransportError",
    "connect_with_retry",
]

#: ``(host, port)`` — the only address shape the socket transport speaks.
Address = Tuple[str, int]

#: Frame header: one unsigned 64-bit big-endian payload length.
_HEADER = struct.Struct(">Q")

#: Refuse absurd frames instead of attempting a huge allocation — a desynced
#: or hostile peer would otherwise turn a corrupt header into an OOM.
_MAX_FRAME_BYTES = 1 << 40

#: How often an interruptible backoff sleep re-polls ``abort()``.
_ABORT_POLL_SECONDS = 0.02


class TransportError(ConnectionError):
    """A message could not cross the transport (peer gone, socket failed).

    Deliberately a :class:`ConnectionError` subclass: callers that already
    handle socket-level failures handle this one for free, while the
    coordinator's retry machinery can catch exactly this type to trigger its
    reconnect path.
    """


class MessageConnection:
    """One framed, byte-metered, pickling duplex connection.

    Not thread-safe by itself — the distributed coordinator serialises access
    per rank with its own lock, and each rank process serves one connection at
    a time.
    """

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        #: Measured on-the-wire bytes, headers included.
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.closed = False

    def send(self, obj: Any) -> None:
        """Pickle ``obj`` and ship it as one length-prefixed frame.

        The frame is written chunk by chunk so that a connection that dies
        mid-frame still charges the bytes that actually hit the wire: the
        measured meter must stay an upper bound on delivered traffic even
        across error paths, or the measured-vs-logical gate could drift on
        reconnects.
        """
        data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        frame = memoryview(_HEADER.pack(len(data)) + data)
        sent = 0
        try:
            while sent < len(frame):
                try:
                    n = self._sock.send(frame[sent:])
                except OSError as exc:
                    raise TransportError(f"send failed: {exc}") from exc
                if n == 0:  # pragma: no cover - blocking sockets raise instead
                    raise TransportError("send made no progress (socket wedged)")
                sent += n
        finally:
            # Charged even when an exception unwinds: partial traffic crossed
            # the socket and the peer's receive meter will see those bytes.
            self.bytes_sent += sent
        self.messages_sent += 1

    def _deadline_remaining(self, deadline: Optional[float]) -> Optional[float]:
        """Seconds left before ``deadline``; raises once it has passed."""
        if deadline is None:
            return None
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TransportError("receive deadline expired (peer alive but silent?)")
        return remaining

    def _recv_exact(self, nbytes: int, deadline: Optional[float] = None) -> bytes:
        buf = bytearray()
        try:
            while len(buf) < nbytes:
                remaining = self._deadline_remaining(deadline)
                try:
                    self._sock.settimeout(remaining)
                    chunk = self._sock.recv(nbytes - len(buf))
                except socket.timeout as exc:
                    raise TransportError(
                        "receive deadline expired (peer alive but silent?)"
                    ) from exc
                except OSError as exc:
                    raise TransportError(f"recv failed: {exc}") from exc
                if not chunk:
                    raise TransportError("connection closed by peer")
                buf.extend(chunk)
        finally:
            # Mid-frame failures still drained these bytes off the wire — they
            # mirror whatever fraction of the peer's send meter got through.
            self.bytes_received += len(buf)
            if not self.closed:
                try:
                    self._sock.settimeout(None)
                except OSError:  # pragma: no cover - socket torn down under us
                    pass
        return bytes(buf)

    def recv(self, timeout: Optional[float] = None) -> Any:
        """Receive one frame and unpickle it; raises TransportError on EOF.

        ``timeout`` (seconds) is a per-receive deadline covering the whole
        frame: when the peer is alive but wedged — connected, not sending —
        the call raises :class:`TransportError` instead of hanging the
        coordinator forever. ``None`` (default) blocks indefinitely, the
        right mode for rank serve loops that legitimately idle between
        requests.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        (length,) = _HEADER.unpack(self._recv_exact(_HEADER.size, deadline))
        if length > _MAX_FRAME_BYTES:
            raise TransportError(f"refusing {length}-byte frame (desynced peer?)")
        body = self._recv_exact(int(length), deadline)
        self.messages_received += 1
        return pickle.loads(body)

    def close(self) -> None:
        """Close the socket (idempotent); counters remain readable."""
        if not self.closed:
            self.closed = True
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close never usefully fails
                pass

    def __enter__(self) -> "MessageConnection":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class MessageListener:
    """Rank-side accept loop: bind, report the bound address, accept clients.

    Binding port 0 lets the OS pick a free port — the rank process reports
    ``listener.address`` back to the coordinator, which is how the cluster
    wires itself up without port configuration. The listening socket outlives
    individual client connections, which is what makes coordinator
    *reconnects* (after a transient network failure) possible while the rank
    process is alive.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 16) -> None:
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(backlog)

    @property
    def address(self) -> Address:
        """The bound ``(host, port)`` clients should connect to."""
        host, port = self._sock.getsockname()[:2]
        return (host, port)

    def accept(self) -> MessageConnection:
        """Block until a client connects; returns the metered connection."""
        try:
            sock, _ = self._sock.accept()
        except OSError as exc:
            raise TransportError(f"accept failed: {exc}") from exc
        return MessageConnection(sock)

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass


def _interruptible_sleep(seconds: float, abort: Optional[Callable[[], bool]]) -> bool:
    """Sleep up to ``seconds``, re-polling ``abort()`` throughout.

    Returns ``True`` the moment ``abort()`` does — a caller that learns
    mid-backoff that the peer is gone for good (its process object died)
    must not sleep through the rest of the schedule.
    """
    if abort is None:
        time.sleep(seconds)
        return False
    end = time.monotonic() + seconds
    while True:
        if abort():
            return True
        left = end - time.monotonic()
        if left <= 0:
            return False
        time.sleep(min(left, _ABORT_POLL_SECONDS))


def connect_with_retry(
    address: Address,
    attempts: int = 5,
    delay: float = 0.05,
    backoff: float = 2.0,
    timeout: float = 5.0,
    abort: Optional[Callable[[], bool]] = None,
) -> MessageConnection:
    """Connect to ``address``, retrying with exponential backoff.

    Transient failures (the rank is mid-restart, the accept queue hiccuped)
    are retried up to ``attempts`` times, sleeping ``delay * backoff**i``
    between tries. ``abort()`` is consulted before each retry *and
    repeatedly inside each backoff sleep* so a caller that learns the peer
    is gone for good (its process object is dead) stops within
    ``_ABORT_POLL_SECONDS`` instead of sleeping through the remaining
    schedule. The returned connection is blocking (the connect ``timeout``
    applies only to the handshake).
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    last: Optional[Exception] = None
    for attempt in range(attempts):
        if attempt and abort is not None and abort():
            break
        try:
            sock = socket.create_connection(address, timeout=timeout)
            sock.settimeout(None)
            return MessageConnection(sock)
        except OSError as exc:
            last = exc
            if attempt + 1 < attempts:
                if _interruptible_sleep(delay * (backoff ** attempt), abort):
                    break
    raise TransportError(
        f"could not connect to rank at {address} after {attempts} attempt(s): {last}"
    ) from last
