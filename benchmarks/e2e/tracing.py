"""In-memory span recorder wrapped around public callables of the system.

The benchmark owns the spans: a :class:`Tracer` swaps a public function or
method for a wrapper that records ``(name, start, end, parent, op_id)`` and
calls through, in the defining module *and* in every module that rebound the
name with ``from ... import``.  Nothing inside ``src/`` knows it is traced,
and an untraced run never imports this module.

Spans are kept per thread (no lock on the hot path) and written out once, at
the end of the run.  A call nested inside a span of its own name is not
recorded again, so recursive functions and wrappers that delegate to another
wrapped callable of the same layer count once.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

#: Index of each field in a span record (records are lists: they are
#: appended open and closed in place).
NAME, START, END, PARENT, OP, VALUE, THREAD = range(7)

Probe = Callable[[tuple, dict, Any], Any]


class _ThreadLog:
    """Spans of one thread, with the stack of the ones still open."""

    __slots__ = ("spans", "stack", "active", "op_id", "thread")

    def __init__(self, thread: int) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.active: set = set()
        self.op_id = -1
        self.thread = thread


class Tracer:
    """Declared wrappers, installed and removed as a set, and their spans."""

    def __init__(self) -> None:
        """Start with nothing declared and nothing recorded."""
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._lock = threading.Lock()
        #: (holder, attribute, original, replacement) of every patch site.
        self._patches: List[Tuple[Any, str, Any, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def set_op(self, op_id: int) -> None:
        """Tag the spans this thread opens from now on with ``op_id``."""
        self._log().op_id = op_id

    def _traced(self, fn: Callable, name: str, probe: Optional[Probe]) -> Callable:
        get_log = self._log
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            log = get_log()
            if name in log.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, log.stack[-1] if log.stack else -1, log.op_id, None]
            log.stack.append(len(log.spans))
            log.spans.append(span)
            log.active.add(name)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                log.stack.pop()
                log.active.discard(name)
            if probe is not None:
                span[VALUE] = probe(args, kwargs, result)
            return result

        return traced

    def wrap_callable(self, fn: Callable, name: str) -> Callable:
        """``fn`` recorded as span ``name`` on every call (nothing is patched)."""
        return self._traced(fn, name, None)

    # ------------------------------------------------------------------
    # declaring what to wrap
    # ------------------------------------------------------------------
    def wrap_function(
        self,
        module: Any,
        attr: str,
        name: str,
        probe: Optional[Probe] = None,
        only: Optional[Iterable[str]] = None,
    ) -> None:
        """Wrap ``module.attr`` as span ``name`` wherever ``repro`` holds it.

        By default the defining module and every ``repro`` module that
        imported the function by name are patched.  ``only`` restricts the
        patch to the named modules — for a hot recursive function whose
        outside callers are wanted and whose inner calls are not.
        """
        fn = getattr(module, attr)
        replacement = self._traced(fn, name, probe)
        if only is not None:
            holders = [sys.modules[holder] for holder in only]
        else:
            holders = [
                holder
                for holder_name, holder in list(sys.modules.items())
                if holder_name.split(".")[0] == "repro" and holder is not None
            ]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is fn:
                    self._patches.append((holder, key, fn, replacement))

    def wrap_method(
        self, cls: type, attr: str, name: str, probe: Optional[Probe] = None
    ) -> None:
        """Wrap ``cls.attr`` (plain, class or static method) as span ``name``.

        The patch goes on the class of ``cls``'s MRO that defines ``attr``.
        """
        cls = next(base for base in cls.__mro__ if attr in base.__dict__)
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: Any = type(raw)(self._traced(raw.__func__, name, probe))
        else:
            replacement = self._traced(raw, name, probe)
        self._patches.append((cls, attr, raw, replacement))

    def install(self) -> None:
        """Put every declared wrapper in place."""
        for holder, attr, _original, replacement in self._patches:
            setattr(holder, attr, replacement)

    def uninstall(self) -> None:
        """Restore every original."""
        for holder, attr, original, _replacement in self._patches:
            setattr(holder, attr, original)

    # ------------------------------------------------------------------
    # reading spans back
    # ------------------------------------------------------------------
    def spans(self) -> List[list]:
        """Every closed span as ``[name, start, end, parent, op, value, thread]``.

        ``parent`` is an index into the returned list (-1 for a root).
        """
        merged: List[list] = []
        for log in self._logs:
            base = len(merged)
            for span in log.spans:
                parent = span[PARENT]
                parent = parent + base if parent >= 0 else -1
                merged.append(span[:PARENT] + [parent] + span[OP:] + [log.thread])
        return merged

    def dump(self, path: Any) -> None:
        """Write the spans as JSON lines (values that are not numbers are dropped)."""
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans()):
                value = span[VALUE]
                record = {
                    "id": index,
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": span[PARENT],
                    "op_id": span[OP],
                    "thread": span[THREAD],
                }
                if isinstance(value, (int, float)):
                    record["value"] = value
                handle.write(json.dumps(record) + "\n")


def self_times(spans: Sequence[list]) -> List[float]:
    """Per span: its duration minus the part its direct children cover."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own
