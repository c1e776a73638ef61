"""Unified oracle API: one pluggable front door for trace checking.

Everything that decides whether an observed trace conforms to the model
goes through an :class:`Oracle` — ``check(trace) -> Verdict`` — looked
up by name in a registry::

    from repro.oracle import get_oracle

    verdict = get_oracle("all").check(trace)     # one vectored pass
    print(verdict.render())                       # per-platform profiles
    verdict.profile_for("osx").accepted

Three oracle families ship built in:

* per-platform **model oracles** (``"linux"``, ``"posix"``, ...) — the
  state-set checker of paper section 5 behind the common protocol;
* the **vectored multi-platform oracle** (``"all"``,
  ``"vectored:A+B"``) — one state-set exploration carrying
  platform-membership masks, sharing tau-closure and label-application
  work across every :class:`~repro.core.platform.PlatformSpec` and
  emitting a per-platform :class:`ConformanceProfile` in a single pass;
* the **determinized reference oracle** (``"reference:<p>"``,
  ``"triaged:<p>"``) — fsimpl-backed fast accept/reject triage (paper
  section 8), optionally escalating mismatches to the full model check.

Model and vectored oracles resume each check from one stored path, the
clean prefix of the last trace that extended it (a
:class:`PrefixCache`), so suites whose scripts share generated setup
prefixes skip re-exploring them.  The pipeline backends
(:mod:`repro.harness.backends`), the portability / merge / differential
analyses and :class:`repro.api.Session` (``check_on=[...]``) are all
built on these verdicts; ``TraceChecker`` remains as the
single-platform reference checker their parity is tested against.
"""

from repro.oracle.base import Oracle
from repro.oracle.cache import PrefixCache
from repro.oracle.reference import ReferenceOracle
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
    "PrefixCache", "REGISTRY", "ReferenceOracle", "VectoredOracle",
    "Verdict", "create_oracle", "deviation_from_dict",
    "deviation_to_dict", "get_oracle", "oracle_name_for",
    "oracle_names", "register_oracle",
]
