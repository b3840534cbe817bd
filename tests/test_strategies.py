"""The one strategy registry, checked once for all three families.

Kernels, shortcut modes and executors share one
:class:`~repro.strategies.StrategyRegistry` implementation (DESIGN.md §14):
explicit > ``set_default`` > environment variable (where the family has
one) > fallback, unknown names rejected from every layer with the family's
own error class and message text, and an availability probe.  The family
test modules keep checking the module-level bindings (``resolve_kernel`` &
co.) that tests, CI and the benchmark import.
"""

from __future__ import annotations

import argparse
import importlib
import pkgutil

import pytest

import repro
from repro.core import kernels
from repro.distributed import executors
from repro.errors import DistributedError, KernelError, ShortcutError
from repro.graph import shortcuts
from repro.strategies import StrategyRegistry

#: family -> (registry, error class, how an unknown name reads, a registered
#: and runnable name other than the fallback; ``None``: register a made-up one)
FAMILIES = {
    "kernel": (
        kernels.KERNEL_REGISTRY,
        KernelError,
        "unknown kernel 'warp'; known: numpy, turbo",
        None,
    ),
    "shortcuts": (
        shortcuts.SHORTCUT_REGISTRY,
        ShortcutError,
        "unknown shortcut mode 'warp'; known: none, reach",
        "reach",
    ),
    "executor": (
        executors.EXECUTOR_REGISTRY,
        DistributedError,
        "unknown executor 'warp'; known: sequential, ",
        "socket",
    ),
}


@pytest.fixture(params=sorted(FAMILIES))
def family(request, monkeypatch):
    """One family with a clean selection state, restored afterwards."""
    registry, error, message, other = FAMILIES[request.param]
    if other is None:  # kernels: numpy is the one registered kernel
        other = "turbo"
        monkeypatch.setattr(registry, "names", (*registry.names, other))
    for name in ("REPRO_KERNEL", "REPRO_SHORTCUTS", "REPRO_EXECUTOR"):
        monkeypatch.delenv(name, raising=False)
    registry.set_default(None)
    yield registry, error, message, other
    registry.set_default(None)


class TestPrecedence:
    def test_fallback_when_nothing_is_set(self, family):
        registry, _error, _message, _other = family
        assert registry.default() == registry.fallback
        assert registry.resolve() == registry.resolve(None) == registry.fallback

    def test_env_var_beats_fallback_where_the_family_has_one(self, family, monkeypatch):
        registry, _error, _message, other = family
        monkeypatch.setenv(registry.env_var or "REPRO_EXECUTOR", f" {other} ")
        expected = other if registry.env_var else registry.fallback
        assert registry.default() == registry.resolve() == expected

    def test_set_default_beats_env_and_none_restores_it(self, family, monkeypatch):
        registry, _error, _message, other = family
        if registry.env_var:
            monkeypatch.setenv(registry.env_var, other)
        registry.set_default(registry.fallback)
        assert registry.resolve() == registry.fallback
        registry.set_default(other)
        assert registry.resolve() == other
        registry.set_default(None)
        assert registry.resolve() == (other if registry.env_var else registry.fallback)

    def test_explicit_name_beats_the_default(self, family):
        registry, _error, _message, other = family
        registry.set_default(other)
        assert registry.resolve(registry.fallback) == registry.fallback
        assert registry.default() == other

    def test_unknown_name_rejected_from_every_layer(self, family, monkeypatch):
        registry, error, message, _other = family
        with pytest.raises(error) as explicit:
            registry.resolve("warp")
        assert message in str(explicit.value)
        with pytest.raises(error, match="unknown"):
            registry.check("warp")
        with pytest.raises(error, match="unknown"):
            registry.set_default("warp")
        assert registry.default() == registry.fallback  # the bad default never landed
        if registry.env_var:
            monkeypatch.setenv(registry.env_var, "warp")
            with pytest.raises(error, match="unknown"):
                registry.default()
            with pytest.raises(error, match="unknown"):
                registry.resolve()
            assert registry.resolve(registry.fallback) == registry.fallback

    def test_every_registered_name_is_known_and_listed_in_order(self, family):
        registry, _error, _message, _other = family
        names = tuple(registry.names)
        assert registry.fallback in names
        assert registry.available() == tuple(n for n in names if registry.is_available(n))
        assert not registry.is_available("warp")

    def test_flag_and_help_come_from_the_registry(self, family):
        registry, _error, _message, other = family
        parser = argparse.ArgumentParser()
        registry.add_argument(parser)
        assert getattr(parser.parse_args([]), registry.name) is None
        assert getattr(parser.parse_args([f"--{registry.name}", other]), registry.name) == other
        text = parser.format_help()
        assert registry.fallback in text
        assert (registry.env_var or "default") in text
        with pytest.raises(SystemExit):
            parser.parse_args([f"--{registry.name}", "warp"])


class TestAvailabilityProbe:
    def test_unavailable_strategy_is_rejected_with_install_advice(self):
        registry = StrategyRegistry(
            "engine",
            ("plain", "turbo"),
            fallback="plain",
            error=KernelError,
            summary="test family",
            missing=lambda name: "libturbo" if name == "turbo" else None,
        )
        assert registry.available() == ("plain",)
        assert registry.is_available("plain") and not registry.is_available("turbo")
        with pytest.raises(KernelError) as raised:
            registry.resolve("turbo")
        assert str(raised.value) == (
            "engine 'turbo' is unavailable: libturbo is not installed in this "
            "environment (the 'plain' engine is always available)"
        )
        registry.set_default("turbo")  # registered: accepted, refused when resolved
        with pytest.raises(KernelError, match="unavailable"):
            registry.resolve()

    def test_kernel_probe_names_the_missing_dependency(self, monkeypatch):
        import importlib.util

        real = importlib.util.find_spec
        monkeypatch.setattr(
            importlib.util,
            "find_spec",
            lambda name, *a: None if name == "numpy" else real(name, *a),
        )
        assert kernels.available_kernels() == ()
        with pytest.raises(KernelError) as raised:
            kernels.resolve_kernel("numpy")
        # no "always available" advice: the fallback is the missing kernel
        assert str(raised.value) == (
            "kernel 'numpy' is unavailable: numpy is not installed in this environment"
        )

    def test_families_without_a_probe_run_every_registered_name(self):
        for name in ("shortcuts", "executor"):
            registry = FAMILIES[name][0]
            assert registry.available() == tuple(registry.names)


def test_module_level_names_are_bindings_to_the_one_implementation():
    pairs = [
        (kernels.resolve_kernel, kernels.KERNEL_REGISTRY.resolve),
        (kernels.set_default_kernel, kernels.KERNEL_REGISTRY.set_default),
        (kernels.default_kernel, kernels.KERNEL_REGISTRY.default),
        (kernels.kernel_available, kernels.KERNEL_REGISTRY.is_available),
        (kernels.available_kernels, kernels.KERNEL_REGISTRY.available),
        (shortcuts.resolve_shortcuts, shortcuts.SHORTCUT_REGISTRY.resolve),
        (shortcuts.set_default_shortcuts, shortcuts.SHORTCUT_REGISTRY.set_default),
        (shortcuts.default_shortcuts, shortcuts.SHORTCUT_REGISTRY.default),
        (executors.set_default_executor, executors.EXECUTOR_REGISTRY.set_default),
        (executors.default_executor_name, executors.EXECUTOR_REGISTRY.default),
    ]
    for binding, method in pairs:
        assert binding == method and binding.__func__ is method.__func__
        assert type(binding.__self__) is StrategyRegistry
    assert kernels.KERNEL_REGISTRY.names is kernels.KERNELS
    assert shortcuts.SHORTCUT_REGISTRY.names is shortcuts.SHORTCUT_MODES
    assert executors.EXECUTOR_REGISTRY.names is executors.EXECUTORS
    assert executors.EXECUTOR_REGISTRY.env_var is None
    assert (kernels.KERNEL_ENV_VAR, shortcuts.SHORTCUTS_ENV_VAR) == (
        "REPRO_KERNEL", "REPRO_SHORTCUTS"
    )


def test_precedence_suite_covers_every_family():
    """Every module-level :class:`StrategyRegistry` in ``repro`` is a FAMILIES row."""
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        module = importlib.import_module(info.name)
        for attr, value in vars(module).items():
            if isinstance(value, StrategyRegistry):
                found.setdefault(id(value), f"{info.name}.{attr}")
    covered = {id(row[0]) for row in FAMILIES.values()}
    assert set(found) == covered, sorted(found[key] for key in set(found) - covered)
