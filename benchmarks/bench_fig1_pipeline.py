"""Figure 1: the test-and-check pipeline, end to end.

Scripts (generated + hand-written) -> test executor -> traces ->
SibylFS trace checking -> checked traces.  The bench runs the whole
pipeline on a suite slice and reports each stage, as in the paper's
dataflow figure.
"""

from conftest import record_table

from repro.api import Session
from repro.harness import render_artifact_summary


def run_suite(suite):
    with Session("linux_ext4", suite=suite) as session:
        return session.run()


def test_fig1_pipeline(benchmark, bench_suite):
    result = benchmark.pedantic(lambda: run_suite(bench_suite),
                                rounds=1, iterations=1)
    record_table(
        "fig1_pipeline",
        f"scripts in      : {result.total}\n"
        f"traces executed : {result.total} "
        f"({result.exec_seconds:.2f}s)\n"
        f"traces checked  : {result.total} "
        f"({result.check_seconds:.2f}s)\n"
        f"accepted        : {result.accepted}\n"
        f"failing         : {len(result.failing)}\n\n"
        + render_artifact_summary(result))
    assert result.total == len(bench_suite)
    # The pipeline is discriminating but near-clean on the standard
    # configuration (only jail artefacts may fail).
    assert len(result.failing) <= 0.02 * result.total
