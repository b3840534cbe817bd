"""Networked serving: length-prefixed TCP framing, brokers, asyncio server.

The simulated cluster executes site-local work through pluggable executor
backends (:mod:`repro.distributed.executors`); this package adds the
``socket`` backend and the serving front end that together give the system
its production shape (DESIGN.md §10):

* :mod:`repro.net.framing` — the wire format: length-prefixed pickle
  frames with a magic header, shared by every sync socket and asyncio
  stream in the package.  Malformed or truncated frames raise clean
  :class:`~repro.errors.QueryError`\\ s.
* :mod:`repro.net.broker` — the worker process (``python -m
  repro.net.broker``): hosts one or more sites' fragments, executes the
  existing picklable task functions, and answers ``run`` frames.
* :mod:`repro.net.coordinator` — the coordinator side of the ``socket``
  executor backend: broker pools, the fragment-shipping handshake
  (fragments cross the wire once, then travel as ``(fid, version)``
  references), timeout → retry → inline-degrade failure handling.
* :mod:`repro.net.server` — the asyncio front end (``repro-serve``):
  concurrent client query streams feed a
  :class:`~repro.serving.engine.BatchQueryEngine`, which runs whatever
  is queued as one batch, with bounded in-flight backpressure and
  per-query latency stats.
* :mod:`repro.net.client` — the blocking TCP client
  (:class:`~repro.net.client.ServeClient`) that
  :func:`repro.connect` wraps when given a ``host:port`` address.
"""

from .framing import FragmentRef, read_frame, recv_frame, send_frame, write_frame

__all__ = [
    "FragmentRef",
    "read_frame",
    "recv_frame",
    "send_frame",
    "write_frame",
]
