"""SibylFS reproduction: an executable POSIX file-system specification
and oracle-based testing toolkit.

This package reproduces the system of *SibylFS: formal specification and
oracle-based testing for POSIX and real-world file systems* (Ridge et
al., SOSP 2015) in Python:

* :mod:`repro.state`, :mod:`repro.pathres`, :mod:`repro.fsops`,
  :mod:`repro.osapi` -- the four-module model (paper Fig. 5), a labelled
  transition system over immutable states, parameterised by platform
  (POSIX / Linux / OS X / FreeBSD) and traits (permissions, timestamps);
* :mod:`repro.checker` -- state-set trace checking with diagnostics;
* :mod:`repro.oracle` -- the unified oracle API: every way of deciding
  trace conformance (per-platform model oracles, the one-pass vectored
  multi-platform oracle) behind one ``check(trace) -> Verdict``
  protocol with a registry and prefix-resumed checking;
* :mod:`repro.testgen` -- equivalence-partitioning test generation;
* :mod:`repro.gen` -- the composable TestPlan API: every generator
  family as a named, tagged strategy, with lazy plan combinators
  (union / filter / sample / scale / shuffle) streaming scripts
  straight into the pipeline;
* :mod:`repro.executor` and :mod:`repro.fsimpl` -- the test executor and
  the simulated implementations-under-test (~40 configurations
  reproducing the paper's survey, including its documented defects);
* :mod:`repro.harness` -- the pipeline engine (pluggable serial /
  process-pool / sharded backends), merging, reports and trace
  analyses;
* :mod:`repro.api` -- the :class:`Session` facade, the single front
  door to the pipeline: every suite runs as its one streaming pass;
* :mod:`repro.service` -- the persistent checking service: a shard
  pool whose workers outlive individual calls
  (:class:`~repro.service.ShardPool`), the long-lived
  :class:`CheckingService` session, and the ``repro serve`` asyncio
  line-JSON front door with its blocking :class:`ServiceClient`;
* :mod:`repro.store` -- the columnar campaign store: append-only,
  content-addressed trace/verdict storage with incremental folded
  views (merge / survey / portability / coverage), the durable
  substrate for campaigns bigger than one in-memory artifact.

Quick start — select a plan, stream it through a :class:`Session` (one
pipeline pass; every report renders from the same
:class:`RunArtifact`)::

    from repro import Session, default_plan

    plan = default_plan().filter(include=["rename*"]).sample(100,
                                                             seed=7)
    with Session("linux_sshfs_tmpfs", model="posix", plan=plan) as s:
        artifact = s.run()
    print(artifact.render_summary())
    html = artifact.render_html()       # same pass, no re-run
    blob = artifact.to_json()           # CI-diffable; records the plan

Scale it with a persistent worker pool — generation streams into the
pool, which starts checking while the plan is still producing::

    from repro import ProcessPoolBackend, Session, default_plan

    with Session("linux_ext4", plan=default_plan(),
                 backend=ProcessPoolBackend(4)) as s:
        for checked in s.iter_checked():
            ...                         # yields as workers finish

Check a single observed trace — against one model variant, or against
all four in a single vectored pass::

    from repro import get_oracle, parse_trace

    trace = parse_trace(open("some.trace").read())
    print(get_oracle("linux").check(trace).accepted)
    verdict = get_oracle("all").check(trace)       # one pass
    print(verdict.accepted_on)                     # ('posix', 'linux')

Ask a whole Session to answer the multi-platform question in the same
run — the artifact then carries a per-platform conformance profile for
every trace::

    with Session("linux_ext4",
                 check_on=["posix", "linux", "osx", "freebsd"]) as s:
        artifact = s.run()
    print(artifact.conformance_counts())

Coverage comes from the same pass
(``Session(..., collect_coverage=True).run().coverage_report()``), and
a trace's portability from one verdict
(``portability_report(get_oracle("all").check(trace))``).
``TraceChecker(intern=False)`` is the reference checker the oracles'
parity is measured against.
"""

from repro.core import (Errno, OpenFlag, PlatformSpec, SeekWhence, Stat,
                        spec_by_name)
from repro.checker import TraceChecker, check_trace, render_checked_trace
from repro.oracle import (ConformanceProfile, ModelOracle, Oracle,
                          VectoredOracle, Verdict, get_oracle,
                          oracle_names)
from repro.script import (parse_script, parse_trace, print_script,
                          print_trace)
from repro.executor import execute_script
from repro.fsimpl import (ALL_CONFIGS, KernelFS, Quirks, ReferenceFS,
                          config_by_name)
from repro.testgen import SuiteSummary, summarize
from repro.gen import (REGISTRY, RandomizedStrategy, Strategy, TestPlan,
                       build_plan, default_plan, union)
from repro.harness import (merge_results, render_merge,
                           render_suite_result, render_summary_table)
from repro.api import (Backend, ProcessPoolBackend, RunArtifact,
                       SerialBackend, Session, ShardedBackend,
                       survey)
from repro.service import CheckingService, ServiceClient
from repro.store import CampaignStore, StoreCorruption, TraceRecord

__version__ = "0.5.0"

__all__ = [
    "Errno", "OpenFlag", "PlatformSpec", "SeekWhence", "Stat",
    "spec_by_name",
    "TraceChecker", "check_trace", "render_checked_trace",
    "ConformanceProfile", "ModelOracle", "Oracle", "VectoredOracle",
    "Verdict", "get_oracle", "oracle_names",
    "parse_script", "parse_trace", "print_script", "print_trace",
    "execute_script",
    "ALL_CONFIGS", "KernelFS", "Quirks", "ReferenceFS", "config_by_name",
    "SuiteSummary", "summarize",
    "REGISTRY", "RandomizedStrategy", "Strategy", "TestPlan",
    "build_plan", "default_plan", "union",
    "merge_results", "render_merge", "render_suite_result",
    "render_summary_table",
    "Backend", "ProcessPoolBackend", "RunArtifact", "SerialBackend",
    "Session", "ShardedBackend", "survey",
    "CheckingService", "ServiceClient",
    "CampaignStore", "StoreCorruption", "TraceRecord",
    "__version__",
]
