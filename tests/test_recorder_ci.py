"""Tests for trace recording (apps -> traces) and CI baselines."""

import pytest

from repro.api import Session
from repro.checker import check_trace
from repro.core.errors import Errno
from repro.core.flags import OpenFlag
from repro.core.platform import LINUX_SPEC
from repro.executor.recorder import RecordingFS
from repro.fsimpl import config_by_name
from repro.fsimpl.kernel import SpinHang
from repro.fsimpl.modelfs import FsError
from repro.harness.ci import (compare_to_baseline, save_baseline)
from repro.harness.portability import portability_report
from repro.oracle import get_oracle
from repro.script import parse_script

O = OpenFlag


class TestRecordingFS:
    def test_records_calls_and_returns(self):
        fs = RecordingFS(config_by_name("linux_ext4"), name="app")
        fs.mkdir("/a")
        fd = fs.open("/a/f", O.O_CREAT | O.O_WRONLY)
        fs.write(fd, b"data")
        fs.close(fd)
        trace = fs.trace()
        assert trace.name == "app"
        # create + 4 calls * 2 labels each
        assert len(trace.events) == 1 + 4 * 2

    def test_recorded_trace_checks_clean(self):
        fs = RecordingFS(config_by_name("linux_ext4"))
        fs.mkdir("/a")
        fs.symlink("/a", "/s")
        assert fs.stat("/s").kind.value == "S_IFDIR"
        checked = check_trace(LINUX_SPEC, fs.trace())
        assert checked.accepted

    def test_errors_recorded_and_raised(self):
        fs = RecordingFS(config_by_name("linux_ext4"))
        with pytest.raises(FsError) as exc:
            fs.rmdir("/missing")
        assert exc.value.fs_errno is Errno.ENOENT
        # The error is in the trace (and conformant).
        assert "ENOENT" in [e.label.render().strip("p1: ")
                            for e in fs.trace().events][-1]
        assert check_trace(LINUX_SPEC, fs.trace()).accepted

    def test_defective_backend_recorded(self):
        fs = RecordingFS(config_by_name("osx_openzfs"))
        fs.mkdir("/deserted", 0o700)
        fs.chdir("/deserted")
        fs.rmdir("/deserted")
        with pytest.raises(SpinHang):
            fs.open("party", O.O_CREAT | O.O_RDONLY, 0o600)
        from repro.core.platform import OSX_SPEC
        checked = check_trace(OSX_SPEC, fs.trace())
        assert any(d.kind == "spin" for d in checked.deviations)

    def test_feeds_portability_analysis(self):
        fs = RecordingFS(config_by_name("linux_ext4"), name="loggy")
        fs.mkdir("/d")
        try:
            fs.unlink("/d")
        except FsError:
            pass
        report = portability_report(get_oracle("all").check(fs.trace()))
        assert "linux" in report.accepted_on
        assert "osx" in report.rejected_on


SMALL_SUITE = [parse_script(text) for text in (
    '@type script\n# Test nlink_probe\nmkdir "a" 0o755\n'
    'mkdir "a/s" 0o755\nstat "a"\n',
    '@type script\n# Test fig4\nmkdir "e" 0o777\nmkdir "n" 0o777\n'
    'open "n/f" [O_CREAT;O_WRONLY] 0o666\nrename "e" "n"\n',
)]


def run_artifact(config, suite):
    """One configuration's artifact, from a single Session pass."""
    with Session(config, suite=suite) as session:
        return session.run()


class TestCiBaselines:
    def test_baseline_roundtrip_clean(self, tmp_path):
        result = run_artifact("linux_sshfs_tmpfs", SMALL_SUITE)
        assert result.failing  # sshfs has known deviations
        path = tmp_path / "baseline.json"
        save_baseline(result, path)
        again = run_artifact("linux_sshfs_tmpfs", SMALL_SUITE)
        report = compare_to_baseline(again, path)
        assert not report.regressed
        assert report.fixed == ()

    def test_new_failure_detected(self, tmp_path):
        import dataclasses
        base_cfg = config_by_name("linux_sshfs_tmpfs")
        result = run_artifact(base_cfg, SMALL_SUITE)
        path = tmp_path / "baseline.json"
        save_baseline(result, path)
        # A "new kernel release" introduces an extra defect.
        worse = dataclasses.replace(base_cfg,
                                    chmod_errno=Errno.EOPNOTSUPP)
        probe = parse_script('@type script\n# Test chmod_probe\n'
                             'open "f" [O_CREAT;O_WRONLY] 0o644\n'
                             'close 3\nchmod "f" 0o600\n')
        again = run_artifact(worse, SMALL_SUITE + [probe])
        report = compare_to_baseline(again, path)
        assert report.regressed
        assert "chmod_probe" in report.new_failures

    def test_fix_reported_not_regressed(self, tmp_path):
        import dataclasses
        base_cfg = config_by_name("linux_sshfs_tmpfs")
        result = run_artifact(base_cfg, SMALL_SUITE)
        path = tmp_path / "baseline.json"
        save_baseline(result, path)
        fixed_cfg = dataclasses.replace(base_cfg,
                                        rename_nonempty_eperm=False)
        again = run_artifact(fixed_cfg, SMALL_SUITE)
        report = compare_to_baseline(again, path)
        assert not report.regressed
        assert "fig4" in report.fixed

    def test_mismatched_config_treated_as_new(self, tmp_path):
        result = run_artifact("linux_sshfs_tmpfs", SMALL_SUITE)
        path = tmp_path / "baseline.json"
        save_baseline(result, path)
        other = run_artifact("linux_btrfs", SMALL_SUITE)
        report = compare_to_baseline(other, path)
        assert report.regressed

    def test_render(self, tmp_path):
        result = run_artifact("linux_sshfs_tmpfs", SMALL_SUITE)
        path = tmp_path / "baseline.json"
        save_baseline(result, path)
        report = compare_to_baseline(
            run_artifact("linux_sshfs_tmpfs", SMALL_SUITE), path)
        assert "clean" in report.render()
