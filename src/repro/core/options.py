"""One carrier for per-evaluation strategy choices, one table (DESIGN.md §14).

:class:`EvalOptions` is what travels beneath the public entry points:
``evaluate``/``dis_*``/``repro.connect``/``Client``/``BatchQueryEngine``
and the session constructors keep their ``kernel=``/``shortcuts=``
keywords and convert once; plans, the serving engine, the
serve protocol and the CLIs carry or read the one object.  :data:`OPTIONS`
declares, per option, which registry owns its names, which algorithms of
:data:`repro.core.engine.REGISTRY` take it, how a refusal reads, whether
the resolved name joins serving-cache keys, and whether the serving
surface carries it.

One rule everywhere.  An *explicit* option is **hard**: an unknown name
raises its registry's error, an algorithm that does not take it raises
:class:`~repro.errors.QueryError`.  A *default* is **soft**: connect-level
defaults (:meth:`EvalOptions.over`) and then the registry chain
(``set_default`` > env var > fallback) fill only what the algorithm takes.
Names are resolved once, at plan construction (:meth:`EvalOptions.resolved`);
what ships to workers inside ``local_eval_args`` stays plain strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from ..distributed.executors import EXECUTOR_REGISTRY
from ..errors import QueryError
from ..graph.shortcuts import SHORTCUT_REGISTRY
from ..strategies import StrategyRegistry
from .kernels import KERNEL_REGISTRY


@dataclass(frozen=True)
class OptionSpec:
    """One row of the option table."""

    #: The strategy family that owns the option's names and default chain.
    registry: StrategyRegistry
    #: The algorithms (``core.engine.REGISTRY`` names) that take the option.
    takers: FrozenSet[str]
    #: How "algorithm X does not take ..." ends.
    refusal: str
    #: Whether the serving surface (``Client``, ``BatchQueryEngine``, the
    #: ``repro-serve`` request keys) carries the option.
    served: bool


OPTIONS: Dict[str, OptionSpec] = {
    "kernel": OptionSpec(
        KERNEL_REGISTRY,
        frozenset({"disReach", "disDist", "disRPQ"}),
        "a kernel (only the partial-evaluation algorithms do)",
        served=True,
    ),
    "shortcuts": OptionSpec(
        SHORTCUT_REGISTRY,
        frozenset({"disReachm"}),
        "shortcuts (only disReachm does)",
        served=False,
    ),
}

#: The options the serving surface carries, in table order.
SERVED: Tuple[str, ...] = tuple(name for name, spec in OPTIONS.items() if spec.served)

#: Every strategy family by flag name: the per-cluster executor plus the
#: per-evaluation options (what the CLIs offer).
STRATEGIES: Dict[str, StrategyRegistry] = {
    "executor": EXECUTOR_REGISTRY,
    **{name: spec.registry for name, spec in OPTIONS.items()},
}


@dataclass(frozen=True)
class EvalOptions:
    """Strategy names of one evaluation; ``None`` means "not given".

    Frozen, hashable and picklable: instances key admission groups, ride
    in plans, and cross the socket executor's wire.
    """

    kernel: Optional[str] = None
    shortcuts: Optional[str] = None

    def given(self) -> Dict[str, str]:
        """The options that are set, as keyword arguments."""
        return {
            name: value
            for name in OPTIONS
            if (value := getattr(self, name)) is not None
        }

    def check_names(self) -> None:
        """Raise the owning registry's error for an unregistered name."""
        for name, value in self.given().items():
            OPTIONS[name].registry.check(value)

    def over(self, defaults: "EvalOptions", algorithms: Iterable[str]) -> "EvalOptions":
        """These explicit options on top of soft ``defaults``.

        A default fills an unset option only where every one of
        ``algorithms`` takes it — a batch carries one set of options, so a
        mixed batch inherits only what all its queries can use.
        """
        algorithms = frozenset(algorithms)
        values: Dict[str, Optional[str]] = dict(self.given())
        for name, spec in OPTIONS.items():
            if name not in values and algorithms <= spec.takers:
                values[name] = getattr(defaults, name)
        return EvalOptions(**values)

    def resolved(self, algorithm: str) -> "EvalOptions":
        """The runnable names ``algorithm`` evaluates under.

        The hard rule for what is set (the algorithm must take it, the name
        must be registered and available), the registry chain for what is
        not; options the algorithm does not take come back ``None``.
        """
        names: Dict[str, Optional[str]] = {}
        for name, spec in OPTIONS.items():
            value = getattr(self, name)
            if algorithm in spec.takers:
                names[name] = spec.registry.resolve(value)
            elif value is not None:
                raise QueryError(f"algorithm {algorithm!r} does not take {spec.refusal}")
        return EvalOptions(**names)

    def wire(self) -> Dict[str, Optional[str]]:
        """The request keys of the serve protocol (``served`` rows, set or not)."""
        return {name: getattr(self, name) for name in SERVED}

    @classmethod
    def from_wire(cls, request: Mapping[str, Any]) -> "EvalOptions":
        """The options a serve-protocol request carries."""
        return cls(**{name: request.get(name) for name in SERVED})


# ---------------------------------------------------------------------------
# the CLIs and the docs read the same table
# ---------------------------------------------------------------------------
def add_strategy_arguments(parser, names: Iterable[str] = tuple(STRATEGIES)) -> None:
    """Add ``--executor``/``--kernel``/``--shortcuts`` to ``parser``."""
    for name in names:
        STRATEGIES[name].add_argument(parser)


def set_strategy_defaults(args, names: Iterable[str]) -> None:
    """Make the parsed flags the process-wide defaults of their families."""
    for name in names:
        value = getattr(args, name)
        if value is not None:
            STRATEGIES[name].set_default(value)


def strategy_table_markdown() -> str:
    """The strategy/option table of README.md and DESIGN.md §14."""
    lines = [
        "| flag / keyword | env var | default | names | taken by |",
        "|---|---|---|---|---|",
    ]
    for name, registry in STRATEGIES.items():
        spec = OPTIONS.get(name)
        takers = ", ".join(f"`{a}`" for a in sorted(spec.takers)) if spec else "every algorithm"
        lines.append(
            f"| `--{name}` / `{name}=` "
            f"| {f'`{registry.env_var}`' if registry.env_var else '–'} "
            f"| `{registry.fallback}` "
            f"| {', '.join(f'`{n}`' for n in registry.names)} "
            f"| {takers} |"
        )
    return "\n".join(lines)
