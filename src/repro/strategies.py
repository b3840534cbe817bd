"""The one named-strategy registry (DESIGN.md §14).

Kernels, shortcut modes and executor backends are the same kind of thing:
a *named implementation* that changes seconds and never answers, visits or
traffic.  Each family is one :class:`StrategyRegistry` instance, created in
the module that owns the implementations (:mod:`repro.core.kernels`,
:mod:`repro.graph.shortcuts`, :mod:`repro.distributed.executors`); the
``resolve_*``/``set_default_*`` names those modules export are plain
bindings to the methods below.

Selection precedence, identical for every family: an explicit name, else
the process-wide default (:meth:`StrategyRegistry.set_default` — what the
CLI flag sets), else the family's environment variable where it has one,
else its fallback.  A name from any of those layers is checked against the
registered names and rejected with the family's own error class.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Optional, Tuple, Type

from .errors import ReproError


class StrategyRegistry:
    """One family of interchangeable named strategies."""

    def __init__(
        self,
        name: str,
        names: Iterable[str],
        fallback: str,
        error: Type[ReproError],
        summary: str,
        env_var: Optional[str] = None,
        missing: Optional[Callable[[str], Optional[str]]] = None,
        kind: Optional[str] = None,
    ) -> None:
        """Declare the family.

        ``name`` is the family's keyword/flag (``kernel`` -> ``kernel=``,
        ``--kernel``); ``names`` is kept by reference and iterated in its
        own order (a tuple, or the name -> implementation dict of the
        owning module); ``missing(name)`` names the uninstalled dependency
        of a registered but unavailable strategy (``None`` = runnable);
        ``kind`` (default: ``name``) is how error messages name the
        family; ``summary`` is the one-line description CLI help and the
        README table are built from.
        """
        self.name = name
        self.kind = kind or name
        self.names = names
        self.fallback = fallback
        self.error = error
        self.summary = summary
        self.env_var = env_var
        self._missing = missing
        self._default: Optional[str] = None

    def check(self, name: str) -> None:
        """Raise the family's error unless ``name`` is registered."""
        if name not in self.names:
            known = ", ".join(self.names)
            raise self.error(f"unknown {self.kind} {name!r}; known: {known}")

    def set_default(self, name: Optional[str]) -> None:
        """Set the process-wide default (what ``None`` resolves to).

        How one CLI flag reaches every plan/cluster an entry point builds
        without threading a parameter through each call site.  ``None``
        resets to the environment/fallback layers.
        """
        if name is not None:
            self.check(name)
        self._default = name

    def default(self) -> str:
        """The effective default: ``set_default`` > env var > fallback."""
        if self._default is not None:
            return self._default
        if self.env_var is not None:
            env = os.environ.get(self.env_var, "").strip()
            if env:
                self.check(env)
                return env
        return self.fallback

    def resolve(self, name: Optional[str] = None) -> str:
        """Coerce ``name`` (or ``None`` = the default) to a runnable name."""
        if name is None:
            name = self.default()
        self.check(name)
        if self._missing is not None:
            dependency = self._missing(name)
            if dependency is not None:
                advice = (
                    f" (the {self.fallback!r} {self.kind} is always available)"
                    if self.is_available(self.fallback)
                    else ""
                )
                raise self.error(
                    f"{self.kind} {name!r} is unavailable: {dependency} is not "
                    f"installed in this environment{advice}"
                )
        return name

    def is_available(self, name: str) -> bool:
        """Whether ``name`` is registered and its dependencies importable."""
        return name in self.names and (
            self._missing is None or self._missing(name) is None
        )

    def available(self) -> Tuple[str, ...]:
        """The strategies runnable right now, in registry order."""
        return tuple(name for name in self.names if self.is_available(name))

    def add_argument(self, parser) -> None:
        """Add the family's flag to an :mod:`argparse` parser.

        The default is ``None`` — "not given" — so the registry chain
        decides; :meth:`set_default` takes the parsed value as is.
        """
        layers = f"{self.env_var} env var, else " if self.env_var else ""
        parser.add_argument(
            f"--{self.name}",
            choices=sorted(self.names),
            default=None,
            help=f"{self.summary} (default: {layers}{self.fallback})",
        )
