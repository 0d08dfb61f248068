"""Multi-host distributed execution: the ``ResidentSession`` over real sockets.

The session protocol behind ``map_partitions_resident`` does not depend on
where parts live: per-part payloads installed once and keyed by
``PartitionLayout.token``, then one delta (worklist, halo values, phase
scalars) per part per superstep phase. This module takes that protocol over
*actual transport*: a coordinator process
connects to N long-lived **rank processes** through the byte-metered socket
seam in :mod:`repro.parallel.transport`, ships each part's payload once into a
per-rank payload cache, and runs every superstep phase as ``(seq, session,
part, fn, delta)`` messages whose results return over the wire. The rank
processes run on localhost here (so CI exercises the full path), but nothing
in the protocol assumes it — the transport seam is where an MPI or multi-host
implementation drops in.

Protocol (one coordinator connection per rank, request/response):

``("install", token, part, payload|None, session_key, state)``
    Session open. ``payload=None`` when the coordinator believes the rank
    already caches ``(token, part)``; the rank acks ``("ok", False)`` and
    stores nothing if it does not (restarted rank, LRU eviction), and the
    coordinator re-sends the payload. States always ship — they are
    per-session. Every part is installed before the session is returned.
``("phase", seq, session_key, part, fn, delta)``
    One superstep phase for one part. The rank executes ``fn(payload, state,
    delta)`` against the session's record and replies ``("result", value)``.
    ``seq`` makes retries after a reconnect **exactly-once**: the rank caches
    the last ``(seq, result)`` per ``(session, part)`` and answers a replayed
    phase from the cache instead of re-running it (state is mutated once no
    matter how often the message is re-sent). A rank that lost the record
    replies ``("error", ...)`` (states are not reconstructible — see the
    rank-death story below).
``("forget", session_key, parts)``
    Session close: drops the records and the phase dedup cache; payloads stay
    cached for reruns on the same layout.
``("shutdown",)``
    Orderly rank exit.

Every coordinator request ships wrapped as ``("req", rid, message)`` and is
answered as ``("resp", rid, reply)``. A session writes each rank's batch
(its installs, or one phase's tasks) to every rank before it reads a reply,
so the ranks work concurrently; the request ids match replies to requests,
park a reply that belongs to another caller's collect, and let a reconnect
re-send exactly the unanswered backlog.

Rank-side storage is this module's process-global store (:func:`_install`,
:func:`_rank_reply`). Each session owns one record per part, ``(session,
part) -> (payload, state)``, taken at install and read by every phase until
the close-time ``forget``. Payloads are also cached by ``(layout token,
part)`` in an oldest-first LRU of ``_PAYLOAD_CAPACITY`` entries, which decides
only what the *next* session on a layout must ship: an eviction never touches
a running session, whose record keeps its payload alive.

Failure story, in two tiers:

* **Transient transport failures** (dropped connection, rank mid-accept):
  every request retries through :func:`transport.connect_with_retry` with
  exponential backoff while the rank *process* is alive; the rank's listening
  socket outlives client connections, the re-sent batch is deduplicated by
  ``seq``, and the run continues with bit-identical results.
* **Rank death** (process gone): the mutable session states on that rank are
  unrecoverable by design — reconstructing them would mean the coordinator
  shadowing every state mutation, which is exactly the traffic the resident
  protocol exists to avoid. The current run fails *loudly* with
  :class:`RankDeathError` (never silently wrong results) once the failed
  phase's other ranks have answered and their replies are dropped, the cluster
  respawns a fresh rank with empty caches, and the next session — including
  an immediate rerun of the failed kernel — proceeds normally, shipping the
  replacement every payload it lacks.

Byte accounting is two-ledger: the session's logical ``shipped_nbytes``
accounting (inherited from :class:`ResidentSession`, bit-identical across
backends) and the transport's **measured** socket-byte counters.
``DistributedBackend.measured_stats()`` exposes the latter, and the
distributed test suite gates measured against logical — same ordering,
bounded constant-factor overhead — which is what makes the logical meter an
honest model of real wire traffic.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import backends as _B
from .backends import ExecutionBackend, ResidentSession
from .transport import (
    Address,
    MessageConnection,
    MessageListener,
    TransportError,
    connect_with_retry,
)

__all__ = [
    "DistributedBackend",
    "RankCluster",
    "RankDeathError",
    "shutdown_rank_clusters",
]

#: Rank count of ``DistributedBackend(ranks=None)``, the registered instance
#: (CI runs two-rank clusters; pass ``ranks=`` for another count).
_DEFAULT_RANKS = 2

#: Transient-failure reconnect schedule: attempts per request, and the first
#: backoff delay in seconds (it doubles per retry, see ``connect_with_retry``).
_RETRY_ATTEMPTS = 4
_RETRY_DELAY = 0.05


class RankDeathError(RuntimeError):
    """A rank process died (or stayed unreachable through the whole retry
    schedule) while a session needed it.

    The resident states that rank held are gone, so the current kernel run
    cannot continue — but the cluster has already respawned a replacement
    rank, so rerunning the kernel succeeds (payloads re-ship on demand).
    """


# --------------------------------------------------------------- rank process
#
# Each rank is a daemon child process running an accept/serve loop over the
# module globals below.

#: Rank-side payload cache, ``(layout token, part) -> payload``: an
#: oldest-first LRU that never holds more than ``_PAYLOAD_CAPACITY`` entries.
#: It decides only whether the next session on a layout must ship a payload;
#: a running session reads its payload from its own record.
_PAYLOADS: "OrderedDict[Tuple[str, int], Any]" = OrderedDict()
_PAYLOAD_CAPACITY = 16

#: Rank-side session records, ``(session_key, part) -> (payload, state)``:
#: stored at install, read by every phase, dropped by the session's forget.
#: A record whose payload the cache has evicted keeps that payload alive.
_SESSIONS: "Dict[Tuple[int, int], Tuple[Any, Any]]" = {}

#: Rank-side phase dedup: ``(session_key, part, seq) -> result``. A phase
#: message replayed after a reconnect is answered from here without re-running
#: fn — the exactly-once guarantee that makes blind re-sends safe. Keyed by
#: ``seq``, so a replayed phase is answered from the cache whatever else the
#: rank has run since (re-running it against the mutated state would corrupt
#: the part).
_PHASE_DONE: "OrderedDict[Tuple[int, int, int], Any]" = OrderedDict()

#: LRU backstop for ``_PHASE_DONE``. A session's ``forget`` drops its entries
#: exactly, but forgets are best-effort (a coordinator can die mid-session),
#: so without a bound the cache grows for the rank's lifetime. Oldest-first
#: eviction is safe because only a part's latest phase can still be
#: replayed: every phase is a barrier, so a session has at most one phase
#: per part in flight, orders of magnitude below this capacity.
_PHASE_DONE_CAPACITY = 4096


class _RankShutdown(Exception):
    """Raised inside the serve loop on an orderly ``shutdown`` message."""


def _install(token: str, part: int, payload: Any, session_key: int, state: Any) -> bool:
    """Store a session's record for ``part``, caching a shipped payload.

    ``payload=None`` takes the payload from the cache. If the cache does not
    hold it (restarted rank, LRU eviction) nothing is stored and the result
    is False, so the coordinator re-sends the payload.
    """
    key = (token, part)
    if payload is None:
        payload = _PAYLOADS.get(key)
        if payload is None:
            return False
    else:
        _PAYLOADS[key] = payload
    _PAYLOADS.move_to_end(key)
    while len(_PAYLOADS) > _PAYLOAD_CAPACITY:
        _PAYLOADS.popitem(last=False)
    _SESSIONS[(session_key, part)] = (payload, state)
    return True


def _rank_reply(msg: tuple) -> tuple:
    """Compute the reply to one coordinator message (pure dispatch, no I/O)."""
    kind = msg[0]
    if kind == "phase":
        _, seq, session_key, part, fn, delta = msg
        done_key = (session_key, part, seq)
        if done_key in _PHASE_DONE:
            _PHASE_DONE.move_to_end(done_key)
            return ("result", _PHASE_DONE[done_key])
        record = _SESSIONS.get((session_key, part))
        if record is None:
            # Mutable state cannot be reconstructed by the coordinator; a
            # rank that lost it (restart) ends the run.
            return (
                "error",
                f"state of part {part} (session {session_key}) missing in rank "
                f"process {os.getpid()} — the rank lost its store; rerun the kernel",
            )
        try:
            result = fn(*record, delta)
        except Exception as exc:
            return ("error", f"{type(exc).__name__}: {exc}")
        _PHASE_DONE[done_key] = result
        while len(_PHASE_DONE) > _PHASE_DONE_CAPACITY:
            _PHASE_DONE.popitem(last=False)
        return ("result", result)
    if kind == "install":
        try:
            return ("ok", _install(*msg[1:]))
        except Exception as exc:
            return ("error", f"{type(exc).__name__}: {exc}")
    if kind == "forget":
        _, session_key, parts = msg
        for part in parts:
            _SESSIONS.pop((session_key, part), None)
        for done_key in [k for k in _PHASE_DONE if k[0] == session_key]:
            del _PHASE_DONE[done_key]
        return ("ok", True)
    return ("error", f"unknown message kind {kind!r}")


def _rank_handle_message(conn: MessageConnection, msg: tuple) -> None:
    """Answer one ``("req", rid, message)`` with ``("resp", rid, reply)``.

    The request id lets the coordinator match out-of-order collections
    against its in-flight requests.
    """
    _, rid, inner = msg
    if inner[0] == "shutdown":
        conn.send(("resp", rid, ("ok", True)))
        raise _RankShutdown
    conn.send(("resp", rid, _rank_reply(inner)))


def _rank_main(ready) -> None:
    """Entry point of one rank process: bind, report the address, serve.

    The listener outlives client connections: when the coordinator's
    connection drops (transient failure, coordinator-side reconnect) the rank
    returns to ``accept`` with all resident stores intact — which is exactly
    what makes the coordinator's reconnect path correct.
    """
    listener = MessageListener()
    ready.send(listener.address)  # analysis-ok: lock-guard -- listener is the transport MessageListener (same-named attribute); _RankHandle.address lives coordinator-side
    ready.close()
    try:
        while True:
            try:
                conn = listener.accept()
            except TransportError:  # pragma: no cover - listener torn down
                return
            try:
                while True:
                    _rank_handle_message(conn, conn.recv())
            except TransportError:
                # Client gone (EOF / reset): keep stores, await a reconnect.
                pass
            finally:
                conn.close()
    except _RankShutdown:
        return
    finally:
        listener.close()


# ------------------------------------------------------------ rank management
class _RankHandle:
    """Coordinator-side view of one rank: process, address, live connection,
    payload-cache mirror and the byte counters of retired connections."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Optional[multiprocessing.Process] = None  # guarded-by: lock
        self.address: Optional[Address] = None  # guarded-by: lock
        self.conn: Optional[MessageConnection] = None  # guarded-by: lock
        self.lock = threading.Lock()
        #: Mirror of which ``(token, part)`` payloads the rank is believed to
        #: hold, so repeat sessions skip the payload pickle. LRU-bounded like
        #: the rank's payload cache, and self-healing through the install ack
        #: in both directions: a stale entry costs one ``payload=None`` round
        #: trip that the rank acks False (the payload is then re-sent), a
        #: dropped entry merely re-ships a payload the rank still had.
        self.known: "OrderedDict[Tuple[str, int], None]" = OrderedDict()  # guarded-by: lock
        #: Request-id source for the multiplexed request/response protocol.
        self.rids = itertools.count(1)  # guarded-by: lock
        #: Unanswered requests, ``rid -> message`` in submission order — the
        #: resend set after a reconnect (every protocol message is idempotent:
        #: installs/forgets by content, phases by ``seq`` dedup).
        self.outstanding: "OrderedDict[int, tuple]" = OrderedDict()  # guarded-by: lock
        #: Request ids actually written to the *current* connection (cleared
        #: on retire, which is what marks the rest of ``outstanding`` for
        #: resend over the replacement connection).
        self.inflight: set = set()  # guarded-by: lock
        #: Responses received but not yet collected, ``rid -> reply`` — a
        #: collect for a later submission drains earlier responses here so an
        #: out-of-submission-order collect never loses them.
        self.arrived: Dict[int, tuple] = {}  # guarded-by: lock
        #: Bytes/messages accumulated by connections since closed or replaced.
        self.retired = {  # guarded-by: lock
            "bytes_sent": 0,
            "bytes_received": 0,
            "messages_sent": 0,
            "messages_received": 0,
        }

    def retire_connection(self) -> None:  # holds: lock
        """Fold the live connection's meters into the totals and drop it."""
        self.inflight.clear()
        conn = self.conn
        if conn is None:
            return
        self.conn = None
        self.retired["bytes_sent"] += conn.bytes_sent
        self.retired["bytes_received"] += conn.bytes_received
        self.retired["messages_sent"] += conn.messages_sent
        self.retired["messages_received"] += conn.messages_received
        conn.close()

    def stats(self) -> Dict[str, int]:  # holds: lock
        out = dict(self.retired)
        if self.conn is not None:
            out["bytes_sent"] += self.conn.bytes_sent
            out["bytes_received"] += self.conn.bytes_received
            out["messages_sent"] += self.conn.messages_sent
            out["messages_received"] += self.conn.messages_received
        return out


class RankCluster:
    """N localhost rank processes plus the coordinator-side request machinery.

    One cluster exists per rank count and is shared by every
    :class:`DistributedBackend` instance in the process — which is what lets
    payload caches survive across sessions and runs. Requests are batched per
    rank (send all, then receive all) so ranks compute concurrently while the
    coordinator drains replies.
    """

    def __init__(self, nranks: int) -> None:
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = int(nranks)
        self._handles = [_RankHandle(i) for i in range(self.nranks)]
        for handle in self._handles:
            self._spawn(handle)

    # -------------------------------------------------------------- lifecycle
    def _spawn(self, handle: _RankHandle) -> None:  # holds: lock
        """Start (or replace) the rank process behind ``handle``.

        A replacement rank has empty stores, so the payload mirror is cleared
        and the next session ships it every payload it needs.
        """
        ready_recv, ready_send = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.Process(
            target=_rank_main, args=(ready_send,), daemon=True,
            name=f"repro-rank-{handle.index}",
        )
        proc.start()
        ready_send.close()
        try:
            if not ready_recv.poll(30.0):
                raise RankDeathError(
                    f"rank {handle.index} did not report its address within 30s"
                )
            address = ready_recv.recv()
        finally:
            ready_recv.close()
        handle.process = proc
        handle.address = address
        handle.known.clear()
        # A replacement rank has empty stores and never saw the in-flight
        # requests; dropping them here keeps a later session's traffic from
        # replaying a dead session's phases against the fresh rank.
        handle.outstanding.clear()
        handle.arrived.clear()
        handle.retire_connection()

    def _alive(self, handle: _RankHandle) -> bool:  # holds: lock
        return handle.process is not None and handle.process.is_alive()

    def _connection(self, handle: _RankHandle) -> MessageConnection:  # holds: lock
        if handle.conn is None:
            handle.conn = connect_with_retry(
                handle.address,
                attempts=_RETRY_ATTEMPTS,
                delay=_RETRY_DELAY,
                abort=lambda: not self._alive(handle),
            )
        return handle.conn

    def _declare_dead(self, handle: _RankHandle, cause: Exception) -> "RankDeathError":  # holds: lock
        """Respawn a replacement for a dead rank and build the caller's error."""
        handle.retire_connection()
        if handle.process is not None:
            handle.process.join(timeout=1.0)
            if handle.process.is_alive():  # pragma: no cover - unreachable in tests
                handle.process.terminate()
        self._spawn(handle)
        return RankDeathError(
            f"rank {handle.index} died mid-run ({cause}); its resident session "
            f"states are unrecoverable, so this kernel run cannot continue. A "
            f"replacement rank is already serving — rerun the kernel (payloads "
            f"re-ship automatically)."
        )

    # --------------------------------------------------------------- requests
    def _flush_locked(self, handle: _RankHandle, conn: MessageConnection) -> None:  # holds: lock
        """Write every outstanding request not yet on the current connection.

        After a reconnect ``inflight`` is empty, so this re-sends the whole
        unanswered backlog — safe because every message in the protocol is
        idempotent (installs/forgets by content, phases by ``seq`` dedup).
        Caller holds ``handle.lock``.
        """
        for rid, msg in handle.outstanding.items():
            if rid not in handle.inflight:
                conn.send(("req", rid, msg))
                handle.inflight.add(rid)

    def _unreachable(self, handle: _RankHandle, last: Optional[Exception]) -> RankDeathError:  # holds: lock
        """Terminal error once the retry schedule is exhausted."""
        if not self._alive(handle):
            return self._declare_dead(
                handle, last if last is not None else RuntimeError("process exited")
            )
        return RankDeathError(
            f"rank {handle.index} at {handle.address} stayed unreachable through "
            f"{_RETRY_ATTEMPTS} reconnect attempt(s): {last}"
        )

    def submit(self, rank: int, messages: Sequence[tuple]) -> List[int]:
        """Ship a batch to one rank without waiting; returns its request ids.

        The requests go on the wire tagged ``("req", rid, message)``; the rank
        answers each with ``("resp", rid, reply)`` in its own (FIFO) order.
        Pass the ids to :meth:`collect` — in any order relative to other
        in-flight submissions — to obtain the replies.
        """
        handle = self._handles[rank]
        with handle.lock:
            rids = []
            for msg in messages:
                rid = next(handle.rids)
                handle.outstanding[rid] = msg
                rids.append(rid)
            last: Optional[Exception] = None
            for _ in range(_RETRY_ATTEMPTS):
                if not self._alive(handle):
                    raise self._declare_dead(
                        handle, last if last is not None else RuntimeError("process exited")
                    )
                try:
                    self._flush_locked(handle, self._connection(handle))
                    return rids
                except TransportError as exc:
                    last = exc
                    handle.retire_connection()
                    continue
            raise self._unreachable(handle, last)

    def collect(self, rank: int, rids: Sequence[int]) -> List[tuple]:
        """Block until every request in ``rids`` has a reply; return them in
        ``rids`` order.

        Responses for *other* in-flight requests that arrive meanwhile are
        parked in the handle's ``arrived`` buffer for their own collect, so
        collection order is free. On a
        transient transport failure the unanswered backlog is re-sent over a
        fresh connection; a dead rank raises :class:`RankDeathError` after a
        replacement has been spawned for future sessions.
        """
        rids = list(rids)
        handle = self._handles[rank]
        with handle.lock:
            last: Optional[Exception] = None
            for _ in range(_RETRY_ATTEMPTS):
                if all(rid in handle.arrived for rid in rids):
                    break
                if not self._alive(handle):
                    raise self._declare_dead(
                        handle, last if last is not None else RuntimeError("process exited")
                    )
                try:
                    conn = self._connection(handle)
                    self._flush_locked(handle, conn)
                    while not all(rid in handle.arrived for rid in rids):
                        frame = conn.recv()
                        if frame[0] != "resp":
                            raise TransportError(f"malformed rank frame {frame[:1]!r}")
                        _, rid, reply = frame
                        if handle.outstanding.pop(rid, None) is not None:
                            handle.inflight.discard(rid)
                            handle.arrived[rid] = reply
                    break
                except TransportError as exc:
                    last = exc
                    handle.retire_connection()
                    continue
            else:
                raise self._unreachable(handle, last)
            return [handle.arrived.pop(rid) for rid in rids]

    def request(self, rank: int, messages: Sequence[tuple]) -> List[tuple]:
        """Send a batch to one rank and wait for one reply per message
        (:meth:`submit` + :meth:`collect`)."""
        return self.collect(rank, self.submit(rank, list(messages)))

    # ------------------------------------------------------------ cache mirror
    def known(self, rank: int, key: Tuple[str, int]) -> bool:
        handle = self._handles[rank]
        with handle.lock:
            return key in handle.known

    def mark(self, rank: int, key: Tuple[str, int], present: bool) -> None:
        handle = self._handles[rank]
        with handle.lock:
            if not present:
                handle.known.pop(key, None)
                return
            handle.known[key] = None
            handle.known.move_to_end(key)
            while len(handle.known) > _PAYLOAD_CAPACITY:
                handle.known.popitem(last=False)

    # ------------------------------------------------------------------ meters
    def stats(self) -> Dict[str, int]:
        """Measured on-the-wire totals across all ranks (headers included),
        accumulated over the cluster's whole lifetime including retired and
        replaced connections."""
        totals = {
            "bytes_sent": 0,
            "bytes_received": 0,
            "messages_sent": 0,
            "messages_received": 0,
        }
        for handle in self._handles:
            with handle.lock:
                for key, value in handle.stats().items():
                    totals[key] += value
        return totals

    def shutdown(self) -> None:
        """Orderly stop: ask every rank to exit, then make sure it did."""
        for handle in self._handles:
            with handle.lock:
                if self._alive(handle):
                    try:
                        conn = self._connection(handle)
                        conn.send(("req", next(handle.rids), ("shutdown",)))
                        conn.recv()
                    except TransportError:
                        pass
                handle.retire_connection()
                if handle.process is not None:
                    handle.process.join(timeout=2.0)
                    if handle.process.is_alive():
                        handle.process.terminate()
                        handle.process.join(timeout=2.0)
                    handle.process = None


#: Process-wide cluster registry, one per rank count — shared by every
#: DistributedBackend instance so payload caches persist across sessions.
_CLUSTERS: "Dict[int, RankCluster]" = {}  # guarded-by: _CLUSTER_LOCK
_CLUSTER_LOCK = threading.Lock()


def _get_cluster(nranks: int) -> RankCluster:
    with _CLUSTER_LOCK:
        cluster = _CLUSTERS.get(nranks)
        if cluster is None:
            cluster = RankCluster(nranks)
            _CLUSTERS[nranks] = cluster
        return cluster


def shutdown_rank_clusters() -> None:
    """Stop every rank process started by this coordinator (idempotent)."""
    with _CLUSTER_LOCK:
        clusters = list(_CLUSTERS.values())
        _CLUSTERS.clear()
    for cluster in clusters:
        cluster.shutdown()


atexit.register(shutdown_rank_clusters)


def _drop_inherited_clusters() -> None:
    # A fork-started child inherits handle objects whose processes and socket
    # fds belong to the parent; drop the references so the child builds its
    # own cluster if it ever needs one (shutting them down here would kill
    # the parent's ranks).
    _CLUSTERS.clear()  # analysis-ok: lock-guard -- at-fork child is single-threaded; the inherited lock may be held by a parent thread that did not survive the fork, so taking it here could deadlock


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX
    os.register_at_fork(after_in_child=_drop_inherited_clusters)


# ------------------------------------------------------------------- sessions
#: Coordinator-side session keys: a session's rank-side records are keyed by
#: its number, so concurrent sessions on one layout never collide.
_SESSION_KEYS = itertools.count(1)


class _DistributedResidentSession(ResidentSession):
    """Socket-transport session: part ``i`` resides on rank ``i % nranks``.

    Session open installs every part and returns once every rank has acked:
    each part's payload ships unless the rank's cache mirror says it already
    holds the layout token, and its fresh state always ships. Every later
    superstep ships only ``(seq, session, part, fn, delta)`` messages.
    Inherits the logical shipped-bytes accounting unchanged — the logical
    ledger must be bit-identical across backends — while the transport
    underneath meters the actual socket bytes (see
    :meth:`DistributedBackend.measured_stats`).
    """

    def __init__(
        self,
        cluster: RankCluster,
        token: str,
        payloads: Sequence,
        states: Sequence,
    ) -> None:
        super().__init__(token, payloads, states)
        self._cluster = cluster
        self._key = next(_SESSION_KEYS)
        self._nranks = max(1, min(cluster.nranks, len(payloads)))
        self._seq = 0
        self._closed = False
        try:
            self._install(payloads, states)
        except BaseException:
            # The caller never gets the session, so drop what did install.
            self.close()
            raise

    def _by_rank(self, parts: Iterable[int]) -> Dict[int, List[int]]:
        """``parts`` grouped by the rank that holds them, in the given order."""
        groups: Dict[int, List[int]] = {}
        for part in parts:
            groups.setdefault(part % self._nranks, []).append(part)
        return groups

    def _install(self, payloads: Sequence, states: Sequence) -> None:
        """Install every part on its rank and wait for every ack.

        Every rank's batch goes out before the first ack is read, so the
        ranks store their parts concurrently. A payload the mirror wrongly
        believed cached (restarted rank, LRU eviction) acks False and
        installs nothing, so it ships in full here. A rank found dead has
        already been replaced by the cluster; nothing of this session is on
        the replacement, so its installs go again from scratch, once.
        """
        cluster, token = self._cluster, self.token

        def send(rank: int, parts: Sequence[int]) -> List[int]:
            return cluster.submit(
                rank,
                [
                    ("install", token, part,
                     None if cluster.known(rank, (token, part)) else payloads[part],
                     self._key, states[part])
                    for part in parts
                ],
            )

        def ack(rank: int, parts: Sequence[int], rids: Sequence[int]) -> None:
            replies = cluster.collect(rank, rids)
            missed = [
                part for part, reply in zip(parts, replies)
                if not self._installed(reply, part)
            ]
            if missed:
                for part in missed:
                    cluster.mark(rank, (token, part), present=False)
                for part, reply in zip(missed, cluster.collect(rank, send(rank, missed))):
                    if not self._installed(reply, part):
                        raise RuntimeError(
                            f"rank rejected a full install of part {part} "
                            f"(token {token!r}) — rank-side store failure"
                        )
            for part in parts:
                cluster.mark(rank, (token, part), present=True)

        groups = self._by_rank(range(self.num_parts))
        sent: Dict[int, List[int]] = {}
        for rank, parts in groups.items():
            try:
                sent[rank] = send(rank, parts)
            except RankDeathError:
                sent[rank] = send(rank, parts)
        for rank, parts in groups.items():
            try:
                ack(rank, parts, sent[rank])
            except RankDeathError:
                ack(rank, parts, send(rank, parts))

    # ------------------------------------------------------------------ helpers
    def _installed(self, reply: tuple, part: int) -> bool:
        """An install ack: False when the rank lacked the payload it was
        told to take from its cache."""
        if reply[0] == "ok":
            return bool(reply[1])
        raise RuntimeError(
            f"rank-side install of part {part} (token {self.token!r}) failed: "
            f"{reply[1] if len(reply) > 1 else reply!r}"
        )

    def _result(self, part: int, reply: tuple) -> Any:
        if reply[0] == "result":
            return reply[1]
        if reply[0] == "error":
            raise RuntimeError(
                f"rank-side phase of part {part} (token {self.token!r}) "
                f"failed: {reply[1]}"
            )
        raise RuntimeError(f"malformed rank reply {reply!r}")

    # --------------------------------------------------------------------- api
    def _submit(self, fn: Callable, tasks: Sequence[Tuple[int, Any]]) -> Callable[[], List]:
        self._seq += 1
        seq = self._seq
        deltas = dict(tasks)
        submitted: List[Tuple[int, List[int], List[int]]] = []
        try:
            for rank, parts in self._by_rank(deltas).items():
                messages = [("phase", seq, self._key, part, fn, deltas[part]) for part in parts]
                submitted.append((rank, parts, self._cluster.submit(rank, messages)))
        except BaseException:
            self._drain(submitted)
            raise

        def collect() -> List:
            replies: Dict[int, tuple] = {}
            for i, (rank, parts, rids) in enumerate(submitted):
                try:
                    replies.update(zip(parts, self._cluster.collect(rank, rids)))
                except BaseException:
                    self._drain(submitted[i + 1:])
                    raise
            return [self._result(part, replies[part]) for part, _ in tasks]

        return collect

    def _drain(self, submitted: Sequence[Tuple[int, List[int], List[int]]]) -> None:
        """Collect and drop the replies of a failed phase's other ranks.

        Best effort: an uncollected reply would otherwise be parked in its
        rank handle's ``arrived`` buffer by the next collect on that rank and
        stay there for the cluster's lifetime.
        """
        for rank, _, rids in submitted:
            try:
                self._cluster.collect(rank, rids)
            except (RankDeathError, RuntimeError):
                pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for rank, parts in self._by_rank(range(self.num_parts)).items():
            try:
                self._cluster.request(rank, [("forget", self._key, parts)])
            except (RankDeathError, RuntimeError):
                # Best effort: a dead/replaced rank has lost the states anyway.
                pass


# -------------------------------------------------------------------- backend
class DistributedBackend(ExecutionBackend):
    """Socket-distributed backend: resident sessions over rank processes.

    What this backend changes is *where partitioned kernel runs live*:
    ``map_partitions_resident`` pins part ``i`` to rank process ``i % ranks``
    and speaks the resident-session protocol over the
    :mod:`repro.parallel.transport` seam. Rank processes are localhost
    children here — the multi-host story is the same protocol with the
    transport pointed at remote addresses.

    Parameters
    ----------
    ranks:
        Rank-process count sessions fan over. ``None`` uses the default
        two-rank cluster; 1 executes in-process. A bool or non-integer raises
        ``ValueError``. Each process has its own clusters, so a session opened
        in a benchmark pool worker fans over that worker's ranks.
    """

    name = "distributed"

    def __init__(self, ranks: Optional[int] = None) -> None:
        self.ranks = _B._check_count("ranks", ranks)

    def _nranks(self) -> int:
        return self.ranks if self.ranks is not None else _DEFAULT_RANKS

    def cluster(self) -> RankCluster:
        """The (shared, lazily spawned) rank cluster this backend fans over."""
        return _get_cluster(self._nranks())

    def map_partitions_resident(
        self, token: str, payloads: Sequence, states: Sequence
    ) -> ResidentSession:
        """Open a rank-pinned session over the socket transport; it returns
        once every part is installed on its rank.

        Single-rank configurations and single-part layouts fall back to the
        in-process session.
        """
        if self._nranks() <= 1 or len(payloads) <= 1:
            return _B._LocalResidentSession(token, payloads, states)
        return _DistributedResidentSession(self.cluster(), token, payloads, states)

    def measured_stats(self) -> Dict[str, int]:
        """Measured on-the-wire totals of this backend's cluster (zeros when
        no session has spawned it yet) — the CI byte-correspondence gate reads
        deltas of this around kernel runs."""
        with _CLUSTER_LOCK:
            cluster = _CLUSTERS.get(self._nranks())
        if cluster is None:
            return {
                "bytes_sent": 0,
                "bytes_received": 0,
                "messages_sent": 0,
                "messages_received": 0,
            }
        return cluster.stats()


_B.register_backend(DistributedBackend())
