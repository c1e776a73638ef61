"""Section 7.2: test coverage of the model.

The paper reports 98 % statement coverage of the model, after excluding
annotated-unreachable documentation clauses and other-platform clauses.
Here every specification clause is a declared coverage point; the bench
measures the fraction exercised by checking the generated suite's
traces and prints the uncovered remainder.
"""

from conftest import record_table

from repro.api import Session


def coverage_of(suite):
    with Session("linux_ext4", suite=suite,
                 collect_coverage=True) as session:
        return session.run().coverage_report()


def test_sec72_model_coverage(benchmark, full_suite):
    report = benchmark.pedantic(lambda: coverage_of(full_suite),
                                rounds=1, iterations=1)
    record_table(
        "sec72_coverage",
        report.render()
        + "\n\npaper: 98% of the model covered (unreachable and "
        "other-platform clauses excluded)")
    # Shape: high coverage, a small uncovered tail.
    assert report.fraction > 0.90, report.render()
