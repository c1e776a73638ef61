"""The persistent checking service: the oracle as a standing facility.

This package is the subsystem behind ``repro serve``.  Layering, bottom
up:

* :mod:`repro.service.pool` — :class:`ShardPool`, shard worker
  processes that outlive individual calls, each checking on its own
  warm oracle, with one future per item and one verdict memo in the
  parent that answers exact repeats without a round trip;
  :class:`repro.harness.backends.ShardedBackend` is built on it, so
  batch runs keep the workers warm across calls too.
* :mod:`repro.service.service` — :class:`CheckingService`, the
  long-lived pool session with an explicit
  ``start/submit/drain/stats/shutdown`` lifecycle.
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  stdlib-``asyncio`` line-JSON front door and its blocking client
  (``repro serve`` / ``repro check --server``).

Submodules load lazily (PEP 562) so the pool layer — which
:mod:`repro.harness.backends` sits on — can be imported without
touching the front-door modules above it.
"""

import importlib

_EXPORTS = {
    "ShardCall": "repro.service.pool",
    "ShardPool": "repro.service.pool",
    "ShardWorkerState": "repro.service.pool",
    "CheckResult": "repro.service.service",
    "CheckingService": "repro.service.service",
    "ServiceServer": "repro.service.server",
    "run_server": "repro.service.server",
    "ServiceClient": "repro.service.client",
    "parse_address": "repro.service.client",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.service' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
