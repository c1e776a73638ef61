"""Tests for the unified pipeline API: Session, RunArtifact, backends."""

import dataclasses

import pytest

from repro.api import (RunArtifact, SerialBackend, Session,
                       ShardedBackend, survey)
from repro.cli import main
from repro.harness import merge_results
from repro.script import parse_script

SMALL_SUITE = [parse_script(text) for text in (
    '@type script\n# Test mkdir_ok\nmkdir "a" 0o755\nstat "a"\n',
    '@type script\n# Test rmdir_missing\nrmdir "missing"\n',
    '@type script\n# Test fig4\nmkdir "emptydir" 0o777\n'
    'mkdir "nonemptydir" 0o777\n'
    'open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666\n'
    'rename "emptydir" "nonemptydir"\n',
)]

#: Two scripts with the SAME name but different behaviour: the old
#: parallel check keyed results by trace name and silently collided.
DUP_NAME_SUITE = [parse_script(text) for text in (
    '@type script\n# Test dup\nmkdir "emptydir" 0o777\n'
    'mkdir "nonemptydir" 0o777\n'
    'open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666\n'
    'rename "emptydir" "nonemptydir"\n',
    '@type script\n# Test dup\nrmdir "missing"\n',
)]


def _strip_volatile(artifact: RunArtifact) -> RunArtifact:
    """Identical-modulo-timings comparison helper (the backend's name
    and counters describe the run, not its verdicts)."""
    return dataclasses.replace(artifact, backend="-",
                               exec_seconds=0.0, check_seconds=0.0,
                               engine_stats=())


class TestSessionOnePass:
    def test_run_executes_each_script_exactly_once(self, monkeypatch):
        from repro.executor import ScriptExecutor

        calls = []
        real = ScriptExecutor.execute

        def counting(self, quirks, script, *args):
            calls.append(script.name)
            return real(self, quirks, script, *args)

        monkeypatch.setattr(ScriptExecutor, "execute", counting)
        with Session("linux_sshfs_tmpfs", suite=SMALL_SUITE) as session:
            first = session.run()
            second = session.run()
            # HTML, JSON and summary all render from the same pass.
            assert "fig4" in first.render_html()
            assert first.to_json()
        assert first is second
        assert len(calls) == len(SMALL_SUITE)

    def test_traces_are_a_view_of_the_single_run(self, tmp_path):
        from repro.gen import StrategyPlan

        produced = []

        class Probe:
            name = "probe"
            tags = frozenset()

            def estimate(self):
                return len(SMALL_SUITE)

            def scripts(self):
                for script in SMALL_SUITE:
                    produced.append(script.name)
                    yield script

        with Session("linux_sshfs_tmpfs", plan=StrategyPlan(Probe()),
                     store=tmp_path / "campaign") as session:
            traces = session.traces  # runs the pipeline
            artifact = session.run()
            assert session.run() is artifact
            assert session.traces == traces
            stats = session.store.stats()
        assert produced == [s.name for s in SMALL_SUITE]
        assert traces == tuple(c.trace for c in artifact.checked)
        assert artifact.total == len(SMALL_SUITE)
        assert (stats["rows"], stats["dedup_hits"]) == \
            (len(SMALL_SUITE), 0)

    def test_sharded_store_prints_each_trace_once(self, tmp_path,
                                                  monkeypatch):
        """With a store, a sharded Session prints each trace once in the
        parent: the store row reuses the text the backend printed for
        its shard, and the rows equal a serial run's."""
        from repro.api import session as session_mod
        from repro.harness import backends
        from repro.script import print_trace
        from repro.store import CampaignStore

        printed = []

        def counting(trace):
            printed.append(trace.name)
            return print_trace(trace)

        def rows(path):
            with CampaignStore(path, create=False) as store:
                return sorted((r.name, r.trace_text, r.profiles)
                              for _c, r in store.records())

        with Session("linux_sshfs_tmpfs", suite=SMALL_SUITE,
                     store=tmp_path / "serial") as session:
            session.run()
        monkeypatch.setattr(backends, "print_trace", counting)
        monkeypatch.setattr(session_mod, "print_trace", counting)
        with Session("linux_sshfs_tmpfs", suite=SMALL_SUITE,
                     backend="sharded", shards=2,
                     store=tmp_path / "sharded") as session:
            session.run()
        assert sorted(printed) == sorted(s.name for s in SMALL_SUITE)
        assert rows(tmp_path / "sharded") == rows(tmp_path / "serial")

    def test_iter_checked_streams_with_progress(self):
        seen = []
        with Session("linux_sshfs_tmpfs", suite=SMALL_SUITE) as session:
            checked = list(session.iter_checked(
                progress=lambda done, total, c:
                    seen.append((done, total, c.trace.name))))
            artifact = session.run()
        assert [s[0] for s in seen] == [1, 2, 3]
        assert all(s[1] == 3 for s in seen)
        assert tuple(checked) == artifact.checked

    def test_exact_length_consumption_caches_artifact(self, monkeypatch):
        from repro.oracle import VectoredOracle

        calls = []
        real = VectoredOracle.check

        def counting(self, trace):
            calls.append(trace.name)
            return real(self, trace)

        monkeypatch.setattr(VectoredOracle, "check", counting)
        with Session("linux_ext4", suite=SMALL_SUITE) as session:
            it = session.iter_checked()
            for _ in range(len(SMALL_SUITE)):  # never hits StopIteration
                next(it)
            artifact = session.run()
        assert artifact.total == len(SMALL_SUITE)
        assert len(calls) == len(SMALL_SUITE)  # run() did not re-check

    def test_failing_and_exit_semantics(self):
        with Session("linux_sshfs_tmpfs", suite=SMALL_SUITE) as session:
            artifact = session.run()
        assert artifact.total == 3
        assert "fig4" in {f.trace_name for f in artifact.failing}
        assert artifact.accepted == \
            artifact.total - len(artifact.failing)

    def test_session_generates_suite_with_limit(self):
        with Session("linux_ext4", limit=5) as session:
            artifact = session.run()
        assert artifact.total == 5


class TestRunArtifactJson:
    def test_round_trip_equality_with_deviations(self):
        with Session("linux_sshfs_tmpfs", model="posix",
                     suite=SMALL_SUITE) as session:
            artifact = session.run()
        assert artifact.failing  # the round trip must cover deviations
        assert RunArtifact.from_json(artifact.to_json()) == artifact

    def test_round_trip_equality_with_coverage(self):
        with Session("linux_ext4", suite=SMALL_SUITE,
                     collect_coverage=True) as session:
            artifact = session.run()
        assert artifact.covered_clauses
        assert RunArtifact.from_json(artifact.to_json()) == artifact

    def test_save_load(self, tmp_path):
        with Session("linux_ext4", suite=SMALL_SUITE) as session:
            artifact = session.run()
        path = tmp_path / "artifact.json"
        artifact.save(path)
        assert RunArtifact.load(path) == artifact

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            RunArtifact.from_json('{"format": 999}')

    def test_coverage_report_requires_collection(self):
        with Session("linux_ext4", suite=SMALL_SUITE) as session:
            artifact = session.run()
        with pytest.raises(ValueError):
            artifact.coverage_report()

    def test_coverage_report_from_artifact(self):
        with Session("linux_ext4", suite=SMALL_SUITE,
                     collect_coverage=True) as session:
            report = session.run().coverage_report()
        assert 0 < report.fraction < 1
        assert report.total > 100


class TestBackendParity:
    def test_serial_and_process_artifacts_identical(self):
        with Session("linux_sshfs_tmpfs", suite=SMALL_SUITE) as s:
            serial = s.run()
        with Session("linux_sshfs_tmpfs", suite=SMALL_SUITE,
                     backend=ShardedBackend(2)) as s:
            parallel = s.run()
        assert _strip_volatile(serial) == _strip_volatile(parallel)

    def test_parity_includes_coverage(self):
        with Session("linux_ext4", suite=SMALL_SUITE,
                     collect_coverage=True) as s:
            serial = s.run()
        with Session("linux_ext4", suite=SMALL_SUITE,
                     backend=ShardedBackend(2),
                     collect_coverage=True) as s:
            parallel = s.run()
        assert serial.covered_clauses == parallel.covered_clauses

    def test_duplicate_trace_names_do_not_collide(self):
        with Session("linux_sshfs_tmpfs", suite=DUP_NAME_SUITE) as s:
            serial = s.run().checked
        with Session("linux_sshfs_tmpfs", suite=DUP_NAME_SUITE,
                     backend="sharded", shards=2) as s:
            parallel = s.run().checked
        assert [c.accepted for c in serial] == \
            [c.accepted for c in parallel]
        assert [c.labels_checked for c in serial] == \
            [c.labels_checked for c in parallel]
        # The two same-named traces genuinely differ in outcome.
        assert serial[0].accepted != serial[1].accepted

    def test_nul_byte_traces_parity_and_round_trip(self):
        # Reads of sparse/truncate-extended files return NUL-padded
        # data; the printer escapes it and the parser must invert the
        # escapes, or the text-exchanging sharded backend (and the
        # JSON artifact) silently disagree with the serial backend.
        from repro import default_plan

        scripts = [s for s in default_plan().scripts()
                   if s.name in ("fdseq___truncate_extend_zero_fill",
                                 "fdseq___pwrite_past_eof")]
        assert len(scripts) == 2
        with Session("linux_ext4", suite=scripts) as s:
            serial = s.run()
        with Session("linux_ext4", suite=scripts,
                     backend=ShardedBackend(2)) as s:
            parallel = s.run()
        assert all(c.accepted for c in serial.checked)
        assert _strip_volatile(serial) == _strip_volatile(parallel)
        assert RunArtifact.from_json(serial.to_json()) == serial


class TestSessionClose:
    """Deterministic resource release: ``Session.close`` (and the
    context manager) must join shard workers *now*, not leave them to
    interpreter-exit finalizers."""

    def test_close_releases_owned_sharded_backend(self):
        suite = [parse_script(
            '@type script\n# Test c%d\nmkdir "c%d" 0o755\n' % (i, i))
            for i in range(20)]
        session = Session("linux_ext4", suite=suite,
                          backend="sharded", shards=2)
        artifact = session.run()
        backend = session.backend
        pool = backend._pool
        assert pool.alive
        procs = list(pool._procs)
        session.close()
        assert not pool.alive
        assert all(not p.is_alive() for p in procs)
        session.close()  # idempotent
        assert artifact.total == 20

    def test_close_leaves_caller_owned_backend_running(self):
        with ShardedBackend(2) as backend:
            with Session("linux_ext4", suite=SMALL_SUITE,
                         backend=backend) as s:
                s.run()
            # Session exit must not tear down a shared backend: the
            # same warm pool serves the next session.
            assert backend._pool.alive
            with Session("linux_ext4", suite=SMALL_SUITE,
                         backend=backend) as s:
                assert s.run().total == len(SMALL_SUITE)
            assert backend._pool.cold_starts == 1
        assert not backend._pool.alive

    def test_backend_instance_with_sizing_kwargs_rejected(self):
        with pytest.raises(ValueError, match="backend instance"):
            Session("linux_ext4", suite=SMALL_SUITE,
                    backend=SerialBackend(), shards=2)


class TestSurveyAndIntegration:
    def test_survey_shares_suite(self):
        artifacts = survey(["linux_ext4", "linux_sshfs_tmpfs"],
                           suite=SMALL_SUITE)
        assert [a.config for a in artifacts] == \
            ["linux_ext4", "linux_sshfs_tmpfs"]
        assert all(a.total == 3 for a in artifacts)
        records = merge_results(artifacts)  # artifacts merge directly
        assert any(r.trace_name == "fig4" for r in records)


class TestCliExitCodes:
    def test_run_clean_config_exit_zero(self, capsys):
        assert main(["run", "--config", "linux_ext4",
                     "--limit", "10"]) == 0
        assert "accepted: 10" in capsys.readouterr().out

    def test_run_deviating_config_exit_one_single_pass(self, tmp_path,
                                                       capsys):
        html = tmp_path / "r.html"
        blob = tmp_path / "r.json"
        code = main(["run", "--config", "linux_sshfs_tmpfs",
                     "--limit", "40", "--html", str(html),
                     "--artifact", str(blob)])
        assert code == 1
        assert "<!DOCTYPE html>" in html.read_text()
        loaded = RunArtifact.load(blob)
        assert loaded.config == "linux_sshfs_tmpfs"
        assert loaded.failing

    def test_run_with_process_backend(self, capsys):
        assert main(["run", "--config", "linux_ext4", "--limit", "12",
                     "--shards", "2"]) == 0
        assert "accepted: 12" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["run", "--config", "linux_ext4", "--backend", "serial",
          "--shards", "2"], "--backend serial takes no --shards"),
        (["run", "--config", "linux_ext4", "--shards", "-3"],
         "must be at least 1, got -3"),
        (["serve", "--shards", "-2"], "must be at least 1, got -2"),
        (["serve", "--backend", "serial", "--shards", "4"],
         "--backend serial takes no --shards"),
    ], ids=["run-serial-shards", "run-negative-shards",
            "serve-negative-shards", "serve-serial-shards"])
    def test_bad_backend_flags_are_usage_errors(self, argv, message,
                                                capsys):
        # Exit 1 means "a trace failed" to CI; a bad flag must not look
        # like one, nor run with a count it did not ask for.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and message in err

    def test_survey_exit_zero(self, capsys):
        assert main(["survey", "--configs",
                     "linux_ext4,linux_sshfs_tmpfs",
                     "--limit", "20"]) == 0
        assert "linux_sshfs_tmpfs" in capsys.readouterr().out

    def test_exec_check_exit_codes(self, tmp_path, capsys):
        script = tmp_path / "t.script"
        script.write_text(
            '@type script\n# Test fig4\nmkdir "emptydir" 0o777\n'
            'mkdir "nonemptydir" 0o777\n'
            'open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666\n'
            'rename "emptydir" "nonemptydir"\n')
        assert main(["exec", str(script), "--config", "linux_ext4",
                     "--check"]) == 0
        capsys.readouterr()
        assert main(["exec", str(script), "--config",
                     "linux_sshfs_tmpfs", "--check"]) == 1
