"""Section 7.1: performance of execution and trace checking.

The paper reports: the full 21 070-trace suite checks in ~79 s with 4
processes (266 traces/s mean), while *executing* the suite on tmpfs
takes 152 s — i.e. checking a trace set is faster than executing it.
This bench reproduces the two phases on a suite slice and asserts the
shape: (a) checking keeps pace with execution, (b) multi-process
checking scales, (c) the throughput is reported per-trace.
"""

import time

import pytest
from conftest import record_table

from repro.executor import ScriptExecutor
from repro.fsimpl import config_by_name
from repro.oracle import get_oracle
from repro.service import CheckingService

MODEL = "linux"


def execute_all(quirks, suite):
    executor = ScriptExecutor()
    return [executor.execute(quirks, script) for script in suite]


def check_all(traces, shards=None):
    """Check ``traces`` in process, or on a pool of ``shards``."""
    if shards is None:
        oracle = get_oracle(MODEL)
        return [oracle.check(trace) for trace in traces]
    with CheckingService(MODEL, shards=shards) as service:
        return [future.result() for future in service.submit(traces)]


@pytest.fixture(scope="module")
def traces(bench_suite):
    return execute_all(config_by_name("linux_tmpfs"), bench_suite)


def test_sec71_execution_throughput(benchmark, bench_suite):
    quirks = config_by_name("linux_tmpfs")
    result = benchmark.pedantic(
        lambda: execute_all(quirks, bench_suite),
        rounds=1, iterations=1)
    assert len(result) == len(bench_suite)


def test_sec71_checking_throughput(benchmark, traces):
    checked = benchmark.pedantic(
        lambda: check_all(traces),
        rounds=1, iterations=1)
    assert len(checked) == len(traces)


def test_sec71_check_faster_than_execute(benchmark, bench_suite):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    quirks = config_by_name("linux_tmpfs")
    t0 = time.perf_counter()
    traces = execute_all(quirks, bench_suite)
    t1 = time.perf_counter()
    check_all(traces)
    t2 = time.perf_counter()
    exec_s, check_s = t1 - t0, t2 - t1
    rate = len(traces) / check_s
    rows = [
        "phase        seconds   traces/s      paper (21 070 traces)",
        f"execute      {exec_s:7.2f}   {len(traces) / exec_s:8.0f}"
        f"      152 s",
        f"check (1p)   {check_s:7.2f}   {rate:8.0f}      79 s with 4"
        f" procs (266/s)",
    ]
    record_table("sec71_performance", "\n".join(rows))
    # Paper shape: "it takes less time to check a trace set than it
    # does to execute the test suite" (generous 2x slack for the
    # single-process Python checker).
    assert check_s < 2.0 * exec_s


def test_sec71_parallel_checking_scales(benchmark, traces):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    subset = traces[: max(40, min(200, len(traces)))]
    t0 = time.perf_counter()
    check_all(subset)
    serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    check_all(subset, shards=4)  # the paper's 4 checking workers
    par = time.perf_counter() - t0
    record_table(
        "sec71_parallelism",
        f"checking {len(subset)} traces: serial {serial:.2f}s, "
        f"4 shards {par:.2f}s (speedup {serial / par:.2f}x)")
    # Trace independence gives parallel speedup; with pool startup
    # overhead included we only assert it is not pathological.  The
    # interned engine checks small subsets in tens of milliseconds, so
    # a fixed fork/startup allowance keeps the bound about *scaling*
    # rather than pool creation cost.
    assert par < serial * 1.5 + 0.5
