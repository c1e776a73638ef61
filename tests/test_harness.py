"""Tests for the harness: run/check, coverage, merging and reports."""

from repro.api import Session
from repro.core.coverage import REGISTRY, CoverageRegistry
from repro.harness import (DeviationRecord, merge_results,
                           render_artifact_summary, render_merge,
                           render_summary_table)
from repro.script import parse_script

SMALL_SUITE = [parse_script(text) for text in (
    '@type script\n# Test mkdir_ok\nmkdir "a" 0o755\nstat "a"\n',
    '@type script\n# Test rmdir_missing\nrmdir "missing"\n',
    '@type script\n# Test fig4\nmkdir "emptydir" 0o777\n'
    'mkdir "nonemptydir" 0o777\n'
    'open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666\n'
    'rename "emptydir" "nonemptydir"\n',
)]


def run_artifact(config, suite, model=None, **kwargs):
    """One configuration's artifact, from a single Session pass."""
    with Session(config, model, suite=suite, **kwargs) as session:
        return session.run()


class TestRunAndCheck:
    def test_clean_config_accepts(self):
        result = run_artifact("linux_ext4", SMALL_SUITE)
        assert result.total == 3
        assert result.accepted == 3
        assert result.check_rate > 0

    def test_sshfs_fig4_detected(self):
        result = run_artifact("linux_sshfs_tmpfs", SMALL_SUITE)
        failing = {f.trace_name for f in result.failing}
        assert "fig4" in failing

    def test_cross_model_check(self):
        # A Linux config checked against the OS X model: the Linux
        # unlink/rmdir conventions surface as deviations elsewhere, but
        # this small suite stays within common behaviour.
        result = run_artifact("linux_ext4", SMALL_SUITE, model="posix")
        assert result.model == "posix"
        assert result.accepted == 3

    def test_parallel_checking_agrees_with_serial(self):
        serial = run_artifact("linux_sshfs_tmpfs", SMALL_SUITE).checked
        parallel = run_artifact("linux_sshfs_tmpfs", SMALL_SUITE,
                                backend="sharded", shards=2).checked
        assert [c.accepted for c in serial] == \
            [c.accepted for c in parallel]
        assert [c.deviations for c in serial] == \
            [c.deviations for c in parallel]


class TestCoverageRegistry:
    def test_declare_and_hit(self):
        reg = CoverageRegistry()
        reg.declare("clause.a")
        reg.declare("clause.b")
        reg.hit("clause.a")
        report = reg.report()
        assert report.total == 2
        assert report.covered == ["clause.a"]
        assert abs(report.fraction - 0.5) < 1e-9

    def test_unreachable_excluded(self):
        reg = CoverageRegistry()
        reg.declare("clause.doc", reachable=False)
        reg.declare("clause.real")
        assert reg.report().total == 1

    def test_platform_filtered(self):
        reg = CoverageRegistry()
        reg.declare("clause.linux_only", platforms=("linux",))
        reg.declare("clause.common")
        assert reg.report(platform="osx").total == 1
        assert reg.report(platform="linux").total == 2

    def test_reset_hits(self):
        reg = CoverageRegistry()
        reg.declare("c")
        reg.hit("c")
        reg.reset_hits()
        assert reg.report().covered == []

    def test_global_registry_populated_by_import(self):
        # Importing the spec modules declares their clauses.
        assert REGISTRY.declared > 100

    def test_measure_coverage_small_suite(self):
        with Session("linux_ext4", suite=SMALL_SUITE,
                     collect_coverage=True) as session:
            report = session.run().coverage_report()
        assert 0 < report.fraction < 1  # a 3-script suite is partial
        assert report.total > 100


class TestMergeAndReport:
    def _results(self):
        return [run_artifact(name, SMALL_SUITE)
                for name in ("linux_ext4", "linux_sshfs_tmpfs",
                             "linux_btrfs")]

    def test_merge_groups_by_deviation(self):
        records = merge_results(self._results())
        assert all(isinstance(r, DeviationRecord) for r in records)
        sshfs_only = [r for r in records
                      if r.configs == ("linux_sshfs_tmpfs",)]
        assert any(r.trace_name == "fig4" for r in sshfs_only)

    def test_render_artifact_summary(self):
        text = render_artifact_summary(run_artifact("linux_sshfs_tmpfs",
                                                     SMALL_SUITE))
        assert "linux_sshfs_tmpfs" in text
        assert "failing" in text

    def test_render_summary_table(self):
        text = render_summary_table(self._results())
        assert "linux_ext4" in text and "linux_btrfs" in text

    def test_render_merge(self):
        text = render_merge(merge_results(self._results()))
        assert "configurations" in text
