"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch one base class.  Subclasses communicate *which* subsystem rejected
the input, mirroring the package layout.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Invalid graph operation (unknown node, duplicate node, bad edge)."""


class NodeNotFound(GraphError):
    """A referenced node does not exist in the graph."""

    def __init__(self, node: object) -> None:
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class RegexSyntaxError(ReproError):
    """The textual regular expression could not be parsed."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class FragmentationError(ReproError):
    """A fragmentation violates the paper's definition (Section 2.1)."""


class QueryError(ReproError):
    """A query references nodes absent from the graph or has bad parameters."""


class DistributedError(ReproError):
    """The simulated cluster was asked to do something inconsistent."""


class KernelError(ReproError):
    """An unknown or unavailable local-evaluation kernel was requested."""


class ShortcutError(ReproError):
    """An unknown shortcut mode was requested, or a shortcut set was built
    for mode ``none``."""


class MapReduceError(ReproError):
    """The simulated MapReduce runtime was misconfigured."""
