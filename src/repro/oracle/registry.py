"""The oracle registry: every checking strategy, selectable by name.

Backends ship oracle *names* (plain strings) to worker processes and
across artifacts, and resolve them here.  Built-ins:

=============================  ==============================================
name                           oracle
=============================  ==============================================
``posix / linux / osx /        :class:`~repro.oracle.vectored.ModelOracle`
freebsd``                      over that platform variant
``all``                        :class:`~repro.oracle.vectored.VectoredOracle`
                               over every variant (one pass, shared states)
``vectored:A+B[+...]``         vectored oracle over the named variants, in
                               order (first = primary) — parsed, not listed
=============================  ==============================================

``get`` memoizes instances (so a long-lived backend, or each pool
worker, keeps one warm oracle, with its stored path and memos, per
name); ``create`` always builds a fresh one.  ``cache=False`` builds oracles without prefix memoization —
the coverage-collection path needs every transition actually evaluated.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.platform import SPECS
from repro.oracle.base import Oracle
from repro.oracle.vectored import ModelOracle, VectoredOracle


#: A factory takes ``cache`` (bool) and returns a fresh oracle.
OracleFactory = Callable[[bool], Oracle]


class OracleRegistry:
    """Name -> oracle factory mapping, with instance memoization."""

    def __init__(self) -> None:
        self._factories: Dict[str, OracleFactory] = {}
        self._instances: Dict[Tuple[str, bool], Oracle] = {}

    def register(self, name: str, factory: OracleFactory,
                 replace: bool = False) -> None:
        """Add a named oracle factory; refuses silent clobbering."""
        if name in self._factories and not replace:
            raise ValueError(
                f"oracle {name!r} is already registered (pass "
                "replace=True to override)")
        self._factories[name] = factory
        self._instances = {k: v for k, v in self._instances.items()
                           if k[0] != name}

    def create(self, name: str, *, cache: bool = True) -> Oracle:
        """A fresh oracle for ``name`` (registered or parsed)."""
        factory = self._factories.get(name)
        if factory is not None:
            return factory(cache)
        if name.startswith("vectored:"):
            platforms = [p for p in name[len("vectored:"):].split("+")
                         if p]
            return VectoredOracle(platforms, cache=cache)
        raise ValueError(
            f"unknown oracle {name!r}; registered: "
            f"{', '.join(self.names())} (or 'vectored:A+B[+...]')")

    def get(self, name: str, *, cache: bool = True) -> Oracle:
        """The memoized instance for ``name`` (one warm oracle per name
        and ``cache`` flag per process)."""
        key = (name, cache)
        oracle = self._instances.get(key)
        if oracle is None:
            oracle = self.create(name, cache=cache)
            self._instances[key] = oracle
        return oracle

    def names(self) -> List[str]:
        return list(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def describe(self) -> List[Tuple[str, Tuple[str, ...], str]]:
        """(name, platforms, summary) rows for the CLI listing."""
        rows = []
        for name in self.names():
            oracle = self.create(name, cache=False)
            doc = (type(oracle).__doc__ or "").strip().splitlines()
            rows.append((name, tuple(oracle.platforms),
                         doc[0] if doc else ""))
        return rows


#: The process-wide default registry (import-time populated below).
REGISTRY = OracleRegistry()

for _platform in SPECS:
    REGISTRY.register(
        _platform,
        lambda cache, p=_platform: ModelOracle(p, cache=cache))
REGISTRY.register(
    "all", lambda cache: VectoredOracle(tuple(SPECS), cache=cache))


def register_oracle(name: str, factory: OracleFactory,
                    replace: bool = False) -> None:
    """Register a factory with the default registry.

    Process-pool caveat: backends ship oracle *names* to workers, and
    each worker resolves them against its own registry.  Under the
    ``fork`` start method (Linux default) workers inherit custom
    registrations; under ``spawn`` (macOS/Windows default) they rebuild
    the registry at import time with only the built-ins, so a custom
    name must be registered from an imported module (e.g. via an
    import-time ``register_oracle`` call in your package) to be
    resolvable pool-side.
    """
    REGISTRY.register(name, factory, replace=replace)


def create_oracle(name: str, *, cache: bool = True) -> Oracle:
    """A fresh oracle from the default registry."""
    return REGISTRY.create(name, cache=cache)


def get_oracle(name: str, *, cache: bool = True) -> Oracle:
    """The default registry's memoized instance for ``name``."""
    return REGISTRY.get(name, cache=cache)


def oracle_names() -> List[str]:
    return REGISTRY.names()


def oracle_name_for(platforms: Sequence[str]) -> str:
    """The canonical oracle name checking ``platforms`` in order.

    One platform resolves to its model oracle; several to a vectored
    oracle with the first platform primary.  The full catalogue in
    :data:`~repro.core.platform.SPECS` order is the registered
    ``"all"`` oracle.
    """
    platforms = list(platforms)
    if not platforms:
        raise ValueError("no platforms given")
    if len(platforms) == 1:
        return platforms[0]
    if platforms == list(SPECS):
        return "all"
    return "vectored:" + "+".join(platforms)
