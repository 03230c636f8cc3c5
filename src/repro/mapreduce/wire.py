"""Wire protocol of the distributed execution backend.

The coordinator (:class:`repro.mapreduce.backend.DistributedBackend`)
and the worker daemons (:mod:`repro.mapreduce.worker`) speak a tiny
message protocol over TCP:

* **Framing** — every message is one length-prefixed pickle frame: an
  8-byte big-endian length header followed by that many payload bytes.
  Frames are self-delimiting, so a stream is just frames back to back
  and a torn connection is always detected as a short read, never as a
  silently truncated message.

* **Messages** — plain tuples whose first element is the kind:

  ==============================  =========================================
  ``("hello", info)``              connection handshake; ``info`` carries
                                   the wire-format number, Python version,
                                   and repro version.  Reply:
                                   ``("hello-ack", info)`` with the
                                   worker's own info.
  ``("register", t, slim, ds)``    install the task callable under token
                                   ``t`` for this connection: ``slim`` is
                                   the split closure (see below), ``ds``
                                   the digests of the payload blobs it
                                   references.  Reply ``("registered",
                                   t)``; ``("register-missing", t,
                                   missing)`` when blobs are absent from
                                   the worker's store (the coordinator
                                   re-puts them and retries once);
                                   ``("register-error", t, message)``
                                   when the closure cannot be rebuilt.
                                   The PR 5 three-tuple ``("register", t,
                                   blob)`` is still accepted (an unsplit
                                   cloudpickle blob, no digests).
  ``("blob-has", ds)``             which of digests ``ds`` the worker's
                                   blob store lacks.  Reply
                                   ``("blob-have", missing)``.
  ``("blob-put", d, payload)``     store ``payload`` under digest ``d``.
                                   Reply ``("blob-stored", d)`` or
                                   ``("blob-error", d, message)`` (digest
                                   mismatch, unwritable store).
  ``("blob-get", d)``              fetch one payload back.  Reply
                                   ``("blob", d, payload_or_None)``.
  ``("task", t, i)``               run registered callable ``t`` on index
                                   ``i``.  Reply ``("result", i, value)``,
                                   ``("task-error", i, exc)`` (the pickled
                                   exception when picklable, else a
                                   summary string re-raised as
                                   ``RuntimeError``).
  ``("unregister", t)``            drop token ``t``.  Reply
                                   ``("unregistered", t)``.
  ``("ping", n)``                  liveness probe.  Reply ``("pong", n)``.
  ``("shutdown",)``                daemon exits (tests/operators).
  ==============================  =========================================

  Registrations are **per connection**: tokens are generated by the
  coordinator and live in a bounded LRU owned by the connection handler,
  so two coordinators sharing one daemon can never collide, and a
  dropped connection frees its registrations with it — the remote mirror
  of the fork registry's process lifetime.  Blobs, by contrast, are
  **per worker**: content-addressed payloads outlive connections in the
  daemon's disk tier, which is what makes warm re-runs cheap.

* **Closure shipping** — task callables are build-time-compiled join
  closures that standard pickling rejects, exactly the problem the fork
  registry solved with copy-on-write memory.  Over TCP there is no
  shared memory, so the registered callable is serialized **by value**
  with :mod:`cloudpickle` (code objects, cells, and captured state ship
  inline; anything importable — repro modules, classes, top-level
  functions — ships by reference and is imported on the worker).
  cloudpickle is optional: when it is missing the distributed backend
  reports closure transport unavailable and degrades to the serial
  in-line loop, which is always correct.

* **Closure splitting** — :func:`split_task_fn` separates a closure into
  a *slim* executable part and content-fingerprinted *payload blobs*
  (captured record lists, shuffle buckets,
  :class:`~repro.mapreduce.hdfs.DistributedFile` inputs), replaced in
  the slim pickle stream by ``persistent_id`` references
  ``("repro-blob", sha256)``.  When the remaining executable body is
  itself heavy (compiled join closures drag their job spec and engine
  along), the body becomes one more content-addressed blob and the slim
  part collapses to a stub reference — a warm re-register then ships a
  few dozen bytes.  Workers rebuild with :func:`join_task_fn`, resolving
  each digest from their blob store (recursively: a body blob's own
  payload references resolve the same way) — so a payload already
  cached from a previous batch (or a previous *query*) is never
  re-shipped.  Digest stability follows from deterministic pickling of
  deterministic pipeline data; a digest that fails to match is only
  ever a **miss** (the bytes are re-sent), never a stale read, because
  the digest *is* the content address.
"""

from __future__ import annotations

import io
import pickle
import socket
import struct
import sys
from typing import Callable, Dict, Optional, Tuple

from repro.storage import blob_digest

try:  # optional dependency: ships compiled closures by value
    import cloudpickle
except ImportError:  # pragma: no cover - container without cloudpickle
    cloudpickle = None  # type: ignore[assignment]

#: Bump when the message shapes change; mismatching peers refuse to talk
#: during the hello handshake instead of failing mid-job.  2 = PR 8's
#: blob verbs + split registration.
WIRE_FORMAT = 2

#: 8-byte big-endian frame length header.
_HEADER = struct.Struct(">Q")

#: Upper bound on one frame; a corrupt header can then never trigger a
#: multi-terabyte allocation.
MAX_FRAME_BYTES = 1 << 31


class WireError(ConnectionError):
    """A peer vanished or sent something unframeable."""


def peer_info() -> dict:
    """This process's side of the hello handshake."""
    try:
        from repro import __version__ as repro_version
    except ImportError:  # pragma: no cover - partial install
        repro_version = "unknown"
    return {
        "format": WIRE_FORMAT,
        "python": tuple(sys.version_info[:2]),
        "repro": repro_version,
        "closures": closure_transport_available(),
    }


def compatible(remote: object) -> bool:
    """Whether a hello/hello-ack ``info`` can safely exchange work.

    Closure blobs embed marshalled code objects, so both ends must run
    the same ``major.minor`` interpreter and the same wire format — and
    the same ``repro`` version: cloudpickle ships importable repro
    symbols *by reference*, so a worker on a skewed checkout would run
    its own (different) join builders and silently break the
    bit-identity guarantee rather than erroring.

    A worker that cannot rebuild shipped closures (no cloudpickle) is
    refused here too: it would otherwise pass the handshake and then be
    misdiagnosed as a *lost host* on its first register.
    """
    local = peer_info()
    return (
        isinstance(remote, dict)
        and remote.get("format") == WIRE_FORMAT
        and remote.get("python") == local["python"]
        and remote.get("repro") == local["repro"]
        and bool(remote.get("closures"))
    )


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def send_frame(sock: socket.socket, message: object) -> None:
    """Send one length-prefixed pickle frame.

    Raises :class:`WireError` *before* any bytes leave when the encoded
    message exceeds :data:`MAX_FRAME_BYTES` — the receiver would refuse
    the frame anyway (and kill the connection doing it), so an oversized
    reply fails loudly sender-side while the connection is still usable
    for a structured error.
    """
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(cap {MAX_FRAME_BYTES}); page the payload instead"
        )
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def encoded_size(message: object) -> int:
    """Byte length ``message`` would occupy as one frame payload."""
    return len(pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL))


def page_bounds(
    total_rows: int, offset: object, limit: object
) -> Tuple[int, int, Optional[int]]:
    """Normalize a result-page request into ``(start, stop, next_offset)``.

    The wire page shape contract: a page covers ``rows[start:stop]`` of
    the full ordered result, ``next_offset`` is the offset of the page
    after it or ``None`` when this page exhausts the result.  Pages
    therefore concatenate bit-identically to the unpaginated rows —
    ``offset`` past the end yields an empty final page, negative or
    malformed values raise ``ValueError`` (the service maps that to a
    structured error, it never guesses).
    """
    start = 0 if offset is None else offset
    if not isinstance(start, int) or isinstance(start, bool) or start < 0:
        raise ValueError(f"'offset' must be a non-negative integer, got {offset!r}")
    if limit is None:
        stop = total_rows
    else:
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ValueError(f"'limit' must be a positive integer, got {limit!r}")
        stop = start + limit
    start = min(start, total_rows)
    stop = min(stop, total_rows)
    next_offset = stop if stop < total_rows else None
    return start, stop, next_offset


def recv_frame(sock: socket.socket) -> object:
    """Receive one frame; raises :class:`WireError` on EOF, reset, or
    corruption (every connection-level failure folds into one type)."""
    try:
        header = _recv_exact(sock, _HEADER.size)
    except WireError:
        raise
    except OSError as exc:  # reset/timeout/closed-by-peer
        raise WireError(f"connection lost reading frame header: {exc}") from exc
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise WireError(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES} cap")
    try:
        payload = _recv_exact(sock, length)
    except WireError:
        raise
    except OSError as exc:
        raise WireError(f"connection lost mid-frame: {exc}") from exc
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise WireError(f"undecodable frame: {exc}") from exc


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise WireError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# closure shipping
# ----------------------------------------------------------------------


def closure_transport_available() -> bool:
    """Whether compiled closures can be shipped by value (cloudpickle)."""
    return cloudpickle is not None


def dumps_task_fn(fn) -> bytes:
    """Serialize a task callable by value for remote execution."""
    if cloudpickle is None:  # pragma: no cover - container without cloudpickle
        raise WireError("cloudpickle unavailable; cannot ship closures")
    return cloudpickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)


def loads_task_fn(blob: bytes):
    """Worker side: rebuild a shipped callable (plain pickle suffices —
    cloudpickle payloads self-describe their reconstruction)."""
    return pickle.loads(blob)


# ----------------------------------------------------------------------
# closure splitting (register-by-digest)
# ----------------------------------------------------------------------

#: The persistent-id tag marking an externalized payload in a slim blob.
BLOB_TAG = "repro-blob"


class BlobMissing(KeyError):
    """A slim closure referenced a digest the resolver cannot supply."""

    def __init__(self, digest: str) -> None:
        super().__init__(digest)
        self.digest = digest


def split_task_fn(
    fn, min_items: int = 4, min_bytes: int = 4096
) -> Tuple[bytes, Dict[str, bytes]]:
    """Split a task closure into ``(slim, {digest: payload})``.

    The executable *body* is the cloudpickle of ``fn`` with every *heavy
    data capture* — :class:`~repro.mapreduce.hdfs.DistributedFile`
    inputs, record-chunk lists, shuffle-bucket dicts, large ndarrays —
    replaced by a ``(BLOB_TAG, digest)`` persistent reference; each
    replaced object is pickled standalone (plain pickle) as a payload
    blob addressed by the sha256 of its bytes.  A body that still
    reaches ``min_bytes`` after that (compiled join closures capture
    their job spec, cost model, and engine — executable weight no data
    gate can touch) becomes one more content-addressed payload, and the
    returned slim part is a stub: a pickle stream of a single persistent
    reference to the body blob.  Warm re-registration then ships only
    the stub plus a digest list.

    Externalization gates: containers need at least ``min_items``
    elements, and every candidate's pickled payload must reach
    ``min_bytes`` (otherwise it ships inline — a digest round-trip on a
    tiny capture costs more than it saves).  Anything plain pickle
    rejects (a list of compiled closures, say) stays in the body, where
    cloudpickle handles it as before.  Repeated references to the same
    object collapse to one digest, so object identity among externalized
    captures survives the round-trip (the worker resolves one digest to
    one object).

    Splitting never changes *what* runs — only how the bytes travel.
    Workers rebuild the identical closure via :func:`join_task_fn`; a
    worker missing any payload answers ``register-missing`` and the
    coordinator re-sends.  Payload content must be treated as read-only
    by task code (it already is: phases build fresh outputs), because
    workers cache decoded payloads across batches and queries.
    """
    if cloudpickle is None:  # pragma: no cover - container w/o cloudpickle
        raise WireError("cloudpickle unavailable; cannot ship closures")
    from repro.mapreduce.hdfs import DistributedFile

    import numpy

    payloads: Dict[str, bytes] = {}
    memo: Dict[int, Optional[str]] = {}
    keep = []  # candidates stay alive so id() keys stay unique

    def externalize(obj) -> Optional[str]:
        if isinstance(obj, DistributedFile):
            if not obj.records:
                return None
        elif isinstance(obj, (list, tuple, dict)):
            if len(obj) < min_items:
                return None
        elif isinstance(obj, numpy.ndarray):
            if obj.nbytes < min_bytes:
                return None
        else:
            return None
        key = id(obj)
        if key in memo:
            return memo[key]
        keep.append(obj)
        try:
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            payload = None  # closure-bearing capture: ship inline
        if payload is None or len(payload) < min_bytes:
            memo[key] = None
            return None
        digest = blob_digest(payload)
        payloads[digest] = payload
        memo[key] = digest
        return digest

    class _SplittingPickler(cloudpickle.CloudPickler):
        def persistent_id(self, obj):
            digest = externalize(obj)
            if digest is None:
                return None
            return (BLOB_TAG, digest)

    buffer = io.BytesIO()
    _SplittingPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(fn)
    body = buffer.getvalue()
    if len(body) >= min_bytes:
        digest = blob_digest(body)
        payloads[digest] = body
        return _stub_for(digest), payloads
    return body, payloads


def _stub_for(digest: str) -> bytes:
    """A pickle stream that is nothing but one persistent reference:
    joining it fetches (and thereby rebuilds) the body blob."""

    sentinel = object()

    class _RefPickler(pickle.Pickler):
        def persistent_id(self, obj):
            # Only the sentinel externalizes: the pid tuple itself is
            # pickled through save(), which consults persistent_id too.
            return (BLOB_TAG, digest) if obj is sentinel else None

    buffer = io.BytesIO()
    _RefPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(sentinel)
    return buffer.getvalue()


class _JoiningUnpickler(pickle.Unpickler):
    """Resolves ``(BLOB_TAG, digest)`` references through a fetcher."""

    def __init__(self, file, fetch: Callable[[str], object]) -> None:
        super().__init__(file)
        self._fetch = fetch

    def persistent_load(self, pid):
        if (
            isinstance(pid, tuple)
            and len(pid) == 2
            and pid[0] == BLOB_TAG
            and isinstance(pid[1], str)
        ):
            return self._fetch(pid[1])
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def join_task_fn(slim: bytes, fetch: Callable[[str], object]):
    """Worker side: rebuild a split callable, resolving each payload
    digest through ``fetch`` (which raises :class:`BlobMissing` when the
    blob store cannot supply it)."""
    return _JoiningUnpickler(io.BytesIO(slim), fetch).load()


def load_payload(payload: bytes, fetch: Callable[[str], object]):
    """Decode one payload blob, resolving any nested blob references
    through ``fetch`` — a plain data payload decodes exactly as
    ``pickle.loads`` would (no persistent ids to resolve), while a body
    blob's payload references recurse into the store."""
    return _JoiningUnpickler(io.BytesIO(payload), fetch).load()


# ----------------------------------------------------------------------
# addresses
# ----------------------------------------------------------------------


def parse_addr(entry: str) -> Optional[Tuple[str, int]]:
    """``"host:port"`` -> ``(host, port)``; ``None`` when malformed.

    Used by :class:`~repro.mapreduce.config.ExecutionSettings` to parse
    ``REPRO_WORKERS_ADDRS``: malformed entries are *skipped* (an env
    typo must never crash planning — with no valid workers the backend
    simply degrades to serial).
    """
    entry = entry.strip()
    if not entry or ":" not in entry:
        return None
    host, _, port_text = entry.rpartition(":")
    host = host.strip()
    try:
        port = int(port_text)
    except ValueError:
        return None
    if not host or not 1 <= port <= 65535:
        return None
    return host, port


def connect(addr: str, timeout: float) -> socket.socket:
    """TCP-connect to a ``"host:port"`` string with ``TCP_NODELAY`` set."""
    parsed = parse_addr(addr)
    if parsed is None:
        raise WireError(f"malformed worker address {addr!r}")
    sock = socket.create_connection(parsed, timeout=timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:  # pragma: no cover - exotic socket stack
        pass
    return sock
