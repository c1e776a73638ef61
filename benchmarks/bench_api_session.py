"""Session API throughput: traces-checked/sec per backend.

The paper (section 7.1) reports checking 21 070 traces in ~79 s with 4
worker processes — 266 traces/s.  This bench measures the same metric
through the ``repro.api.Session`` front door for the serial and the
sharded backends (4 shards, the paper's 4 checking workers), and
asserts the two backends produce identical artifacts modulo timings.
"""

import dataclasses

import pytest
from conftest import record_table

from repro.api import SerialBackend, Session, ShardedBackend

CONFIG = "linux_tmpfs"
SHARDS = 4


@pytest.fixture(scope="module")
def backends():
    made = {
        "serial": SerialBackend(),
        f"sharded[{SHARDS}]": ShardedBackend(SHARDS),
    }
    yield made
    for backend in made.values():
        backend.close()


def test_api_session_backend_throughput(benchmark, bench_suite,
                                        backends):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    artifacts = {}
    rows = ["backend       exec s   check s   traces/s    "
            "paper: 266/s with 4 procs"]
    for name, backend in backends.items():
        with Session(CONFIG, suite=bench_suite,
                     backend=backend) as session:
            artifact = session.run()
        artifacts[name] = artifact
        rows.append(f"{name:<12}  {artifact.exec_seconds:6.2f}   "
                    f"{artifact.check_seconds:7.2f}   "
                    f"{artifact.check_rate:8.0f}")
    record_table("api_session_backends", "\n".join(rows))

    # Backend parity: identical artifacts modulo timings, the backend
    # descriptor and its counters.
    stripped = [
        dataclasses.replace(a, backend="-", exec_seconds=0.0,
                            check_seconds=0.0, engine_stats=())
        for a in artifacts.values()
    ]
    assert stripped[0] == stripped[1]
    assert all(a.total == len(bench_suite) for a in artifacts.values())


def test_api_session_one_pass_vs_legacy_double(benchmark, bench_suite,
                                               backends):
    """The old ``repro run --html`` executed and checked twice; the
    Session artifact renders both outputs from one pass.  Assert the
    HTML and summary come from the cached artifact at negligible cost
    relative to the pipeline itself."""
    import time

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    with Session(CONFIG, suite=bench_suite,
                 backend=backends["serial"]) as session:
        t0 = time.perf_counter()
        artifact = session.run()
        pipeline_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        artifact.render_summary()
        artifact.render_html()
        render_s = time.perf_counter() - t0
    record_table(
        "api_session_one_pass",
        f"pipeline {pipeline_s:.2f}s; summary+html rendering "
        f"{render_s:.2f}s (was a full second pipeline pass)")
    assert render_s < max(0.5, pipeline_s)
