"""Length-prefixed pickle frames: the one wire format of the net package.

Every message between coordinator, brokers, the asyncio serving front end
and its clients is a *frame*::

    b"RPRO" + uint32(big-endian payload length) + pickle(payload)

msgpack would be the conventional choice, but the runtime is stdlib plus
numpy by design (DESIGN.md §1) and the payloads are the library's own picklable
objects — queries, automata, fragments, equations, ``QueryResult``\\ s —
so :mod:`pickle` (highest protocol) is both the simplest and the fastest
encoding available.  All endpoints are processes of this same codebase on
links the operator controls (localhost first).

Decoding fails closed all the same: :class:`WireUnpickler` resolves only
classes and functions of the ``repro`` package plus the short named list
:data:`WIRE_GLOBALS` (numpy's array reconstructors and ``dtype``, the
``array`` reconstructor, ``copyreg``'s, the builtin containers and the
builtin exception classes a broker sends back).  Any other global — say
``os.system`` or ``builtins.eval`` — is refused before its module is
imported or anything is called.

Error contract: a frame that cannot be read — wrong magic, a length
beyond :data:`MAX_FRAME_BYTES`, a connection closing mid-frame, an
unpicklable payload — raises a clean :class:`~repro.errors.QueryError`
stating what was wrong.  A connection that closes cleanly *between*
frames raises :class:`EOFError` so servers can tell an orderly hangup
from a torn frame.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import io
import pickle
import socket
import struct
from types import FunctionType
from typing import Any, FrozenSet, NamedTuple, Tuple

from ..errors import QueryError

#: Frame magic: guards against a stray client speaking another protocol.
MAGIC = b"RPRO"

#: Hard ceiling on one frame's payload (a defensive bound, far above any
#: real fragment or batch; a corrupt length header fails fast instead of
#: attempting a multi-gigabyte allocation).
MAX_FRAME_BYTES = 1 << 30

_HEADER = struct.Struct(">I")
HEADER_BYTES = len(MAGIC) + _HEADER.size


class FragmentRef(NamedTuple):
    """A fragment addressed by key instead of by value (the handshake).

    The coordinator ships each fragment to a broker once; afterwards task
    arguments carry this reference and the broker resolves it against its
    local store.  ``key`` is ``("v", cluster_token, fid, version, stamp)``
    for fragments resolvable through a bound cluster — so repartitions and
    version bumps invalidate remote state exactly like the serving cache —
    or ``("o", object_token, stamp)`` for free-standing fragments.
    """

    key: Tuple[Any, ...]


def is_loopback_host(host: str) -> bool:
    """Whether ``host`` can only be reached from this machine."""
    return host == "localhost" or host.startswith("127.") or host == "::1"


def guard_bind_host(host: str, allow_remote: bool, prog: str) -> None:
    """Enforce the localhost-first posture on a listening endpoint.

    Frames carry unauthenticated pickle and brokers execute shipped task
    functions, so anyone who can reach a listening socket can run code as
    this process.  A non-loopback bind therefore requires an explicit
    ``--allow-remote`` opt-in, and even then gets a prominent warning so
    the exposure is deliberate, never accidental.
    """
    import sys

    if is_loopback_host(host):
        return
    if not allow_remote:
        raise QueryError(
            f"{prog}: refusing to bind {host!r}: frames are unauthenticated "
            "pickle (remote code execution for anyone who can reach the "
            "socket). Pass --allow-remote only on a trusted, isolated "
            "network."
        )
    print(
        f"WARNING: {prog} binding {host!r}: frames are unauthenticated "
        "pickle — anyone who can reach this socket can execute code as "
        "this process. Only expose it on a trusted, isolated network.",
        file=sys.stderr,
        flush=True,
    )


def encode_frame(payload: Any) -> bytes:
    """Serialize ``payload`` into one complete frame (header + pickle)."""
    try:
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:
        raise QueryError(f"unpicklable frame payload: {exc}") from exc
    if len(body) > MAX_FRAME_BYTES:
        raise QueryError(
            f"frame payload of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit"
        )
    return MAGIC + _HEADER.pack(len(body)) + body


def decode_header(header: bytes) -> int:
    """Validate a frame header, returning the payload length."""
    if header[: len(MAGIC)] != MAGIC:
        raise QueryError(
            f"malformed frame: bad magic {header[:len(MAGIC)]!r} "
            f"(expected {MAGIC!r})"
        )
    (length,) = _HEADER.unpack(header[len(MAGIC) :])
    if length > MAX_FRAME_BYTES:
        raise QueryError(
            f"malformed frame: declared payload of {length} bytes exceeds "
            f"the {MAX_FRAME_BYTES}-byte frame limit"
        )
    return length


#: ``(module, name)`` of every global a frame may name outside ``repro``.
WIRE_GLOBALS: FrozenSet[Tuple[str, str]] = frozenset(
    {
        ("numpy._core.multiarray", "_reconstruct"),
        ("numpy._core.multiarray", "scalar"),
        ("numpy._core.numeric", "_frombuffer"),
        ("numpy", "dtype"),
        ("numpy", "ndarray"),
        ("array", "array"),
        ("array", "_array_reconstructor"),
        ("copyreg", "_reconstructor"),
        ("copyreg", "__newobj__"),
        ("copyreg", "__newobj_ex__"),
        *(
            ("builtins", name)
            for name in (
                "bytearray", "bytes", "dict", "frozenset", "list", "object", "set", "tuple",
            )
        ),
        *(
            ("builtins", name)
            for name, value in vars(builtins).items()
            if isinstance(value, type) and issubclass(value, BaseException)
        ),
    }
)


@functools.lru_cache(maxsize=None)
def _wire_global(module: str, name: str) -> Any:
    """The object a frame may name as ``module.name``; raises for any other.

    Cached: only admitted globals are stored (a refusal raises), so the
    cache holds at most the finite set the wire admits.
    """
    refused = pickle.UnpicklingError(f"global {module}.{name} is not allowed on the wire")
    if (module, name) in WIRE_GLOBALS:
        return getattr(importlib.import_module(module), name)
    if not (module == "repro" or module.startswith("repro.")):
        raise refused
    try:
        found: Any = importlib.import_module(module)
        for part in name.split("."):
            found = getattr(found, part)
    except (ImportError, AttributeError):
        raise refused from None
    # Only what the package itself defines: never a module or a foreign
    # callable reached through one of its imports.
    if isinstance(found, (type, FunctionType)) and (
        getattr(found, "__module__", "") or ""
    ).startswith("repro."):
        return found
    raise refused


class WireUnpickler(pickle.Unpickler):
    """The frame decoder: ``repro`` classes and functions plus
    :data:`WIRE_GLOBALS`, nothing else."""

    def find_class(self, module: str, name: str) -> Any:
        return _wire_global(module, name)


def decode_payload(body: bytes) -> Any:
    """Deserialize one frame's payload bytes (:class:`WireUnpickler`)."""
    try:
        return WireUnpickler(io.BytesIO(body)).load()
    except Exception as exc:
        raise QueryError(f"malformed frame payload: {exc}") from exc


# ---------------------------------------------------------------------------
# blocking sockets (coordinator <-> broker, ServeClient)
# ---------------------------------------------------------------------------
def _recv_exactly(sock: socket.socket, count: int, what: str) -> bytes:
    """Read exactly ``count`` bytes or raise (EOFError / QueryError)."""
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count and not chunks:
                raise EOFError("connection closed")
            raise QueryError(
                f"truncated frame: connection closed with {remaining} of "
                f"{count} {what} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, payload: Any) -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(payload))


def recv_body(sock: socket.socket) -> bytes:
    """Read one whole frame from a blocking socket; its undecoded payload.

    Raises :class:`EOFError` on a clean close before any header byte and
    :class:`~repro.errors.QueryError` on a malformed or truncated frame.
    """
    length = decode_header(_recv_exactly(sock, HEADER_BYTES, "header"))
    return _recv_exactly(sock, length, "payload")


def recv_frame(sock: socket.socket) -> Any:
    """Read and decode one frame (:func:`recv_body`'s errors, and a
    :class:`~repro.errors.QueryError` for a payload the decoder refuses)."""
    return decode_payload(recv_body(sock))


# ---------------------------------------------------------------------------
# asyncio streams (serving front end)
# ---------------------------------------------------------------------------
async def write_frame(writer: Any, payload: Any) -> None:
    """Write one frame to an asyncio ``StreamWriter`` and drain."""
    writer.write(encode_frame(payload))
    await writer.drain()


async def read_frame(reader: Any) -> Any:
    """Read one frame from an asyncio ``StreamReader``.

    Same error contract as :func:`recv_frame`: clean close between frames
    raises :class:`EOFError`, anything torn raises
    :class:`~repro.errors.QueryError`.
    """
    import asyncio

    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise EOFError("connection closed") from None
        raise QueryError(
            f"truncated frame: connection closed after {len(exc.partial)} "
            f"of {HEADER_BYTES} header bytes"
        ) from None
    length = decode_header(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise QueryError(
            f"truncated frame: connection closed after {len(exc.partial)} "
            f"of {length} payload bytes"
        ) from None
    return decode_payload(body)
