"""Unified oracle API: one pluggable front door for trace checking.

Everything that decides whether an observed trace conforms to the model
goes through an :class:`Oracle` — ``check(trace) -> Verdict`` — looked
up by name in a registry::

    from repro.oracle import get_oracle

    verdict = get_oracle("all").check(trace)     # one vectored pass
    print(verdict.render())                       # per-platform profiles
    verdict.profile_for("osx").accepted

Two oracle families ship built in, both running the one state-set
loop of paper section 5 (:func:`repro.checker.checker.explore`):

* per-platform **model oracles** (``"linux"``, ``"posix"``, ...) — the
  state-set checker behind the common protocol;
* the **vectored multi-platform oracle** (``"all"``,
  ``"vectored:A+B"``) — one state-set exploration carrying
  platform-membership masks, sharing tau-closure and label-application
  work across every :class:`~repro.core.platform.PlatformSpec` and
  emitting a per-platform :class:`ConformanceProfile` in a single pass.

Both resume each check from one stored path, the clean prefix of the
last trace that extended it (a :class:`PrefixCache`), so suites whose
scripts share generated setup prefixes skip re-exploring them.  The
pipeline backends (:mod:`repro.harness.backends`), the portability /
merge / differential analyses and :class:`repro.api.Session`
(``check_on=[...]``) are all built on these verdicts;
``TraceChecker(intern=False)`` remains as the reference checker their
parity is tested against.
"""

from repro.oracle.base import Oracle
from repro.oracle.cache import PrefixCache
from repro.oracle.registry import (REGISTRY, OracleRegistry,
                                   create_oracle, get_oracle,
                                   oracle_name_for, oracle_names,
                                   register_oracle)
from repro.oracle.vectored import ModelOracle, VectoredOracle
from repro.oracle.verdict import (ConformanceProfile, Verdict,
                                  deviation_from_dict,
                                  deviation_to_dict)

__all__ = [
    "ConformanceProfile", "ModelOracle", "Oracle", "OracleRegistry",
    "PrefixCache", "REGISTRY", "VectoredOracle",
    "Verdict", "create_oracle", "deviation_from_dict",
    "deviation_to_dict", "get_oracle", "oracle_name_for",
    "oracle_names", "register_oracle",
]
