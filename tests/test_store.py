"""The campaign store: segment format, crash safety, incremental
views, dedup, artifact interchange, and the CLI verbs.

The load-bearing suites here are the crash-safety property test (every
byte-offset truncation of the tail segment yields a clean open or a
loud :class:`StoreCorruption` — never silent loss or a wrong fold) and
the view-parity suite (the store's incremental folds must be
bit-for-bit what the in-memory implementations compute over the same
run).
"""

import json
import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.api import (RunArtifact, Session, artifact_partition,
                       export_artifact, import_artifact,
                       import_artifact_file, iter_results, read_header)
from repro.cli import main
from repro.gen import build_plan
from repro.harness.merge import merge_verdicts
from repro.harness.portability import portability_report
from repro.oracle import ConformanceProfile, Verdict
from repro.script.printer import print_trace
from repro.store import (CampaignStore, Cursor, MetaRecord,
                         StoreCorruption, TraceRecord)
from repro.store.segment import encode_record, scan
from repro.store.views import portability_summary

from helpers_parity import handwritten_traces

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
PLATFORMS = ("posix", "linux", "osx", "freebsd")


def _record(i: int, partition: str = "cfg:linux") -> TraceRecord:
    """A small synthetic trace row (store-level tests never parse the
    trace text, so it only has to be distinct)."""
    return TraceRecord(
        partition=partition,
        name=f"t{i:03d}",
        target_function="open",
        trace_text=f"# synthetic {i}\ncall open [] ret {i}\n",
        profiles=(ConformanceProfile(
            platform="linux", deviations=(), max_state_set=1 + i,
            labels_checked=2 * i, pruned=False),),
        covered=("open/ok",) if i % 2 else ())


# -- segment format -----------------------------------------------------------


class TestSegmentFormat:
    def test_round_trip_and_contiguity(self):
        payloads = [_record(i).to_payload() for i in range(5)]
        data = b"".join(encode_record(p) for p in payloads)
        records, valid_end = scan(data, last=True)
        assert valid_end == len(data)
        assert [p for _o, _e, p in records] == payloads
        # Self-delimiting: each record starts where the previous ended.
        pos = 0
        for offset, end, _payload in records:
            assert offset == pos
            pos = end

    def test_identical_payload_identical_bytes(self):
        payload = _record(3).to_payload()
        assert encode_record(payload) == encode_record(dict(
            reversed(list(payload.items()))))

    def test_torn_tail_returns_valid_prefix(self):
        data = b"".join(encode_record(_record(i).to_payload())
                        for i in range(3))
        records, _end = scan(data, last=True)
        boundary = records[1][1]
        for cut in (boundary + 1, boundary + 10, len(data) - 1):
            got, valid_end = scan(data[:cut], last=True)
            assert len(got) == 2
            assert valid_end == boundary

    def test_interior_damage_is_loud(self):
        data = bytearray(
            b"".join(encode_record(_record(i).to_payload())
                     for i in range(3)))
        data[30] ^= 0xFF  # inside record 0's body; records follow
        with pytest.raises(StoreCorruption):
            scan(bytes(data), last=True)

    def test_malformed_header_is_never_a_torn_tail(self):
        record = encode_record(_record(0).to_payload())
        garbage = record + b"Z" * 18  # complete but unparseable header
        with pytest.raises(StoreCorruption):
            scan(garbage, last=True)


# -- store basics -------------------------------------------------------------


class TestStoreBasics:
    def test_append_dedup_and_typed_read_back(self, tmp_path):
        with CampaignStore(tmp_path / "c") as store:
            originals = [_record(i) for i in range(4)]
            for record in originals:
                assert store.append(record) is True
            assert store.append(originals[0]) is False
            assert store.rows == 4
            assert store.dedup_hits == 1
            assert originals[2].key in store
            got = [record for _cursor, record in store.records()]
            assert got == originals

    def test_meta_records_and_partitions(self, tmp_path):
        with CampaignStore(tmp_path / "c") as store:
            store.append(_record(0, partition="a:linux"))
            store.append(_record(1, partition="b:posix"))
            meta = MetaRecord(partition="a:linux", config="a",
                              model="linux", backend="serial",
                              exec_seconds=1.0, check_seconds=2.0)
            assert store.append(meta) is True
            assert store.append(meta) is False  # same content address
            assert store.partitions() == ("a:linux", "b:posix")

    def test_segments_roll_and_reopen_recovers(self, tmp_path):
        path = tmp_path / "c"
        with CampaignStore(path, segment_bytes=400) as store:
            for i in range(8):
                store.append(_record(i))
            assert store.stats()["segments"] > 1
            rows = store.rows
        reopened = CampaignStore(path, create=False)
        assert reopened.rows == rows
        assert [r.name for _c, r in reopened.records()] == \
            [f"t{i:03d}" for i in range(8)]
        reopened.close()

    def test_reopen_without_index_scans_segments(self, tmp_path):
        path = tmp_path / "c"
        with CampaignStore(path, segment_bytes=400) as store:
            for i in range(8):
                store.append(_record(i))
        (path / "index.bin").unlink()
        with CampaignStore(path, create=False) as store:
            assert store.rows == 8
            assert store.append(_record(3)) is False  # keys recovered

    def test_appends_write_no_index_until_flush(self, tmp_path):
        """The index is a cache: appends leave it unwritten (reopening
        scans the rows it misses) until a flush writes it once."""
        path = tmp_path / "c"
        with CampaignStore(path) as store:
            for i in range(300):
                store.append(_record(i))
            assert not (path / "index.bin").exists()
            store.flush()
            assert (path / "index.bin").exists()
        with CampaignStore(path, create=False) as store:
            assert store.rows == 300

    def test_flush_with_nothing_new_leaves_the_index_untouched(
            self, tmp_path):
        path = tmp_path / "c"
        index = path / "index.bin"

        def identity():
            stat = index.stat()
            return stat.st_ino, stat.st_mtime_ns

        with CampaignStore(path) as store:
            for i in range(3):
                store.append(_record(i))
            store.flush()
            written = identity()
            store.flush()
            assert identity() == written
            store.append(_record(1))  # a duplicate adds no row
            store.flush()
            assert identity() == written
        assert identity() == written  # close had nothing new either
        with CampaignStore(path, create=False) as store:
            assert store.rows == 3
        assert identity() == written  # nor had a reopen of a current index

    def test_create_false_requires_existing_store(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CampaignStore(tmp_path / "missing", create=False)

    def test_gc_drops_duplicates_and_old_meta(self, tmp_path):
        path = tmp_path / "c"
        with CampaignStore(path, segment_bytes=300) as store:
            for i in range(6):
                store.append(_record(i))
            for seconds in (1.0, 2.0, 3.0):
                store.append(MetaRecord(
                    partition="cfg:linux", config="cfg", model="linux",
                    backend="serial", exec_seconds=seconds,
                    check_seconds=0.0))
            before = store.view("survey")
            result = store.gc()
            assert result["rows_before"] == 9
            assert result["rows_after"] == 7  # 6 traces + newest meta
            metas = [r for _c, r in store.records()
                     if isinstance(r, MetaRecord)]
            assert [m.exec_seconds for m in metas] == [3.0]
            # Views were reset; the refold matches the pre-gc answer.
            assert store.view("survey") == before
        with CampaignStore(path, create=False) as store:
            assert store.rows == 7


# -- crash safety: the truncation property ------------------------------------


def _materialise(target: pathlib.Path, segment: bytes,
                 index: bytes = None, view: str = None) -> None:
    """A minimal single-segment store directory built from raw bytes —
    what a crashed campaign process leaves behind."""
    (target / "segments").mkdir(parents=True)
    (target / "views").mkdir()
    (target / "manifest.json").write_text(
        json.dumps({"format": 1, "meta": {}}))
    (target / "segments" / "segment-000001.seg").write_bytes(segment)
    if index is not None:
        (target / "index.bin").write_bytes(index)
    if view is not None:
        (target / "views" / "survey.json").write_text(view)


class TestTruncationProperty:
    """Truncating the tail segment at *every* byte offset must yield a
    clean open — tail dropped, views intact or refolded, never a wrong
    fold — and the surviving fold must match an in-memory fold over
    exactly the surviving records."""

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trunc") / "base"
        with CampaignStore(path) as store:
            for i in range(4):
                store.append(_record(i))
            store.refresh_view("survey")  # leave a checkpoint behind
        segment = (path / "segments" / "segment-000001.seg")\
            .read_bytes()
        index = (path / "index.bin").read_bytes()
        view = (path / "views" / "survey.json").read_text()
        records, _end = scan(segment, last=True)
        return segment, index, view, records

    @pytest.mark.parametrize("with_index", [False, True])
    def test_every_byte_offset(self, base, tmp_path, with_index):
        segment, index, view, records = base
        for offset in range(len(segment)):
            survivors = [p for _o, end, p in records if end <= offset]
            expected_end = max([end for _o, end, _p in records
                                if end <= offset], default=0)
            target = tmp_path / f"i{int(with_index)}-o{offset}"
            _materialise(target, segment[:offset],
                         index=index if with_index else None,
                         view=view)
            with CampaignStore(target, create=False) as store:
                assert store.rows == len(survivors), offset
                # The torn tail was truncated away durably.
                seg_path = target / "segments" / "segment-000001.seg"
                assert seg_path.stat().st_size == expected_end, offset
                # The fold over what survived — never over what
                # vanished: the stale checkpoint must not leak.
                state = store.refresh_view("survey")
                totals = sum(row["total"] for row in
                             state["partitions"].values())
                assert totals == len(survivors), offset

    def test_boundary_truncation_keeps_checkpoint(self, base,
                                                  tmp_path):
        """A truncation that removes no record (the full segment) is a
        clean open whose existing view checkpoint survives as-is."""
        segment, index, view, records = base
        target = tmp_path / "full"
        _materialise(target, segment, index=index, view=view)
        with CampaignStore(target, create=False) as store:
            assert store.view_checkpoint("survey") is not None
            assert store.rows == len(records)


class TestInteriorCorruption:
    """Damage that cannot be an interrupted append is loud."""

    @pytest.fixture()
    def multi(self, tmp_path):
        path = tmp_path / "multi"
        with CampaignStore(path, segment_bytes=300) as store:
            for i in range(6):
                store.append(_record(i))
            assert store.stats()["segments"] >= 3
        return path

    @staticmethod
    def _flip(path: pathlib.Path, offset: int = 30) -> None:
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))

    def test_interior_damage_without_index_fails_open(self, multi):
        (multi / "index.bin").unlink()
        self._flip(multi / "segments" / "segment-000001.seg")
        with pytest.raises(StoreCorruption):
            CampaignStore(multi, create=False)

    def test_indexed_damage_is_caught_on_read(self, multi):
        # The index covers the damaged row, so open succeeds without
        # re-reading the completed segment — but streaming it is loud.
        self._flip(multi / "segments" / "segment-000001.seg")
        with CampaignStore(multi, create=False) as store:
            with pytest.raises(StoreCorruption):
                list(store.records())

    def test_truncated_interior_segment_fails_open(self, multi):
        seg = multi / "segments" / "segment-000001.seg"
        seg.write_bytes(seg.read_bytes()[:-5])
        with pytest.raises(StoreCorruption):
            CampaignStore(multi, create=False)

    def test_vanished_interior_segment_fails_open(self, multi):
        (multi / "segments" / "segment-000001.seg").unlink()
        with pytest.raises(StoreCorruption):
            CampaignStore(multi, create=False)


# -- incremental views --------------------------------------------------------


class TestIncrementalViews:
    def test_cursor_resume_folds_only_new_records(self, tmp_path):
        with CampaignStore(tmp_path / "c") as store:
            for i in range(3):
                store.append(_record(i))
            store.refresh_view("survey")
            assert store.view_checkpoint("survey")["folded"] == 3
            for i in range(3, 5):
                store.append(_record(i))
            store.refresh_view("survey")
            checkpoint = store.view_checkpoint("survey")
            assert checkpoint["folded"] == 5
            assert Cursor.from_json(checkpoint["cursor"]) == \
                store.end_cursor()

    def test_reopen_resumes_from_checkpoint(self, tmp_path):
        path = tmp_path / "c"
        with CampaignStore(path) as store:
            for i in range(4):
                store.append(_record(i))
            store.refresh_view("survey")
        with CampaignStore(path, create=False) as store:
            store.append(_record(9))
            store.refresh_view("survey")
            assert store.view_checkpoint("survey")["folded"] == 5

    def test_resume_never_rereads_completed_segments(self, tmp_path):
        """The proof that refolds resume from the cursor: corrupt an
        already-folded interior segment (detectable only by re-reading
        it), and the next refresh still succeeds."""
        path = tmp_path / "c"
        with CampaignStore(path, segment_bytes=300) as store:
            for i in range(6):
                store.append(_record(i))
            assert store.stats()["segments"] >= 3
            store.refresh_view("survey")
        TestInteriorCorruption._flip(
            path / "segments" / "segment-000001.seg")
        with CampaignStore(path, create=False) as store:
            store.append(_record(42))
            state = store.refresh_view("survey")
            assert store.view_checkpoint("survey")["folded"] == 7
            assert state["partitions"]["cfg:linux"]["total"] == 7
            # A from-scratch read would have noticed the damage:
            with pytest.raises(StoreCorruption):
                list(store.records())

    def test_unknown_view_is_an_error(self, tmp_path):
        with CampaignStore(tmp_path / "c") as store:
            with pytest.raises(KeyError):
                store.refresh_view("nonsense")

    def test_views_skip_meta_records(self, tmp_path):
        with CampaignStore(tmp_path / "c") as store:
            store.append(_record(0))
            store.append(MetaRecord(
                partition="cfg:linux", config="cfg", model="linux",
                backend="serial", exec_seconds=0.0, check_seconds=0.0))
            state = store.refresh_view("survey")
            assert state["partitions"]["cfg:linux"]["total"] == 1
            assert store.view_checkpoint("survey")["folded"] == 1


# -- a real campaign through the Session: parity and dedup --------------------


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """One handwritten-suite pass on a quirky configuration, checked
    on all four platforms with coverage, streamed into a store."""
    root = tmp_path_factory.mktemp("campaign")
    store = CampaignStore(root / "store")
    with Session("linux_sshfs_tmpfs", check_on=list(PLATFORMS),
                 plan=build_plan(names=["handwritten"]),
                 collect_coverage=True, store=store) as session:
        artifact = session.run()
        partition = session.store_partition
    artifact_path = root / "run.json"
    artifact.save(artifact_path)
    yield store, artifact, partition, artifact_path
    store.close()


class TestViewParity:
    """The store's folded views are bit-for-bit the in-memory answers."""

    @staticmethod
    def _verdicts(artifact):
        return [Verdict(trace=checked.trace, profiles=tuple(profiles))
                for checked, profiles in zip(artifact.checked,
                                             artifact.profiles)]

    def test_partition_convention_matches_artifact(self, campaign):
        _store, artifact, partition, _path = campaign
        assert partition == artifact_partition(
            artifact.config, artifact.model, artifact.check_on)

    def test_survey_matches_conformance_counts(self, campaign):
        store, artifact, partition, _path = campaign
        state = store.refresh_view("survey")
        row = state["partitions"][partition]
        assert row["total"] == artifact.total
        assert row["accepted"] == artifact.conformance_counts()

    def test_merge_matches_merge_verdicts(self, campaign):
        store, artifact, _partition, _path = campaign
        expected = merge_verdicts(self._verdicts(artifact))
        assert expected, "quirky config must produce deviations"
        assert store.view("merge") == expected

    def test_portability_matches_in_memory_fold(self, campaign):
        store, artifact, _partition, _path = campaign
        expected = portability_summary(
            portability_report(v) for v in self._verdicts(artifact))
        assert store.refresh_view("portability") == expected

    def test_coverage_matches_artifact_clauses(self, campaign):
        store, artifact, _partition, _path = campaign
        assert artifact.coverage_collected
        assert artifact.covered_clauses
        assert store.view("coverage") == artifact.covered_clauses


class TestCampaignDedup:
    def test_rerun_appends_zero_rows_and_survey_is_stable(
            self, campaign):
        store, artifact, _partition, _path = campaign
        survey_before = store.view_json("survey")
        rows_before = store.rows
        hits_before = store.dedup_hits
        with Session("linux_sshfs_tmpfs", check_on=list(PLATFORMS),
                     plan=build_plan(names=["handwritten"]),
                     collect_coverage=True, store=store) as session:
            session.run()
        assert store.rows == rows_before
        assert store.dedup_hits == hits_before + artifact.total
        assert store.view_json("survey") == survey_before

    def test_reimport_of_artifact_dedups(self, campaign, tmp_path):
        _store, artifact, _partition, path = campaign
        with CampaignStore(tmp_path / "fresh") as store:
            first = import_artifact_file(store, path)
            assert first["appended"] == artifact.total
            again = import_artifact_file(store, path)
            assert again["appended"] == 0
            assert again["deduped"] == artifact.total
            # Same artifact -> same meta content address too.
            assert store.rows == artifact.total + 1


# -- artifact interchange -----------------------------------------------------


class TestArtifactInterchange:
    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_streaming_reader_matches_loader(self, version):
        path = FIXTURES / f"artifact_v{version}.json"
        artifact = RunArtifact.load(path)
        header = read_header(path)
        assert header["format"] == version
        assert header["config"] == artifact.config
        assert header["model"] == artifact.model
        rows = list(iter_results(path))
        assert len(rows) == artifact.total
        for row, checked, target in zip(rows, artifact.checked,
                                        artifact.target_functions):
            assert row.checked == checked
            assert row.target_function == target

    def test_streaming_reader_on_fresh_artifact(self, campaign):
        _store, artifact, _partition, path = campaign
        rows = list(iter_results(path))
        assert [r.checked for r in rows] == list(artifact.checked)
        assert [tuple(r.profiles) for r in rows] == \
            list(artifact.profiles)

    def test_import_export_round_trip(self, campaign, tmp_path):
        _store, artifact, partition, _path = campaign
        with CampaignStore(tmp_path / "rt") as store:
            result = import_artifact(store, artifact)
            assert result["partition"] == partition
            exported = export_artifact(store, partition)
        assert exported.to_json() == artifact.to_json()

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_fixture_round_trips_through_store(self, version,
                                               tmp_path):
        path = FIXTURES / f"artifact_v{version}.json"
        artifact = RunArtifact.load(path)
        with CampaignStore(tmp_path / "rt") as store:
            result = import_artifact_file(store, path)
            assert result["appended"] == artifact.total
            exported = export_artifact(store, result["partition"])
        assert exported.total == artifact.total
        assert [c.trace.name for c in exported.checked] == \
            [c.trace.name for c in artifact.checked]
        assert [c.accepted for c in exported.checked] == \
            [c.accepted for c in artifact.checked]

    def test_export_unknown_partition_is_an_error(self, tmp_path):
        with CampaignStore(tmp_path / "c") as store:
            with pytest.raises(KeyError):
                export_artifact(store, "nope:linux")


# -- the checking service appends as verdicts arrive --------------------------


class TestServiceStore:
    def test_served_verdicts_land_in_store_and_dedup(self, tmp_path):
        from repro.service import CheckingService

        text = print_trace(handwritten_traces("linux_ext4")[0])
        path = tmp_path / "served"
        service = CheckingService("linux", shards=0, store=str(path))
        service.start()
        try:
            first = service.check(text)
            again = service.check(text)
            assert first.to_payload() == again.to_payload()
            stats = service.stats()
            assert stats["store_rows"] == 1
            assert stats["store_dedup_hits"] >= 1
        finally:
            service.shutdown()
        with CampaignStore(path, create=False) as store:
            records = [r for _c, r in store.records()]
            assert len(records) == 1
            assert records[0].partition == "serve:linux"


# -- CLI ----------------------------------------------------------------------


class TestCampaignCLI:
    def test_init_append_survey_merge_report_gc(self, campaign,
                                                tmp_path, capsys):
        _store, artifact, partition, artifact_path = campaign
        store_dir = tmp_path / "cli-store"
        assert main(["campaign", "init", str(store_dir)]) == 0
        assert main(["campaign", "append", str(store_dir),
                     str(artifact_path)]) == 0
        out = capsys.readouterr().out
        assert f"{artifact.total} rows appended" in out
        assert partition in out

        survey_json = tmp_path / "survey.json"
        assert main(["campaign", "survey", str(store_dir),
                     "--json", str(survey_json)]) == 0
        out = capsys.readouterr().out
        assert partition in out
        payload = json.loads(survey_json.read_text())
        assert payload["partitions"][partition]["total"] == \
            artifact.total

        assert main(["campaign", "merge", str(store_dir)]) == 0
        assert main(["campaign", "gc", str(store_dir)]) == 0

        html = tmp_path / "dash.html"
        assert main(["campaign", "report", str(store_dir),
                     "--html", str(html)]) == 0
        page = html.read_text()
        assert partition in page
        assert "<html" in page

    def test_export_matches_original(self, campaign, tmp_path,
                                     capsys):
        _store, artifact, partition, artifact_path = campaign
        store_dir = tmp_path / "exp-store"
        assert main(["campaign", "init", str(store_dir)]) == 0
        assert main(["campaign", "append", str(store_dir),
                     str(artifact_path)]) == 0
        out_path = tmp_path / "exported.json"
        assert main(["campaign", "export", str(store_dir),
                     partition, "--out", str(out_path)]) == 0
        capsys.readouterr()
        assert RunArtifact.load(out_path).to_json() == \
            artifact.to_json()

    def test_check_artifact_streams_summary(self, campaign, capsys):
        _store, artifact, _partition, artifact_path = campaign
        code = main(["check", "--artifact", str(artifact_path)])
        out = capsys.readouterr().out
        assert f"{artifact.accepted}/{artifact.total} traces" in out
        assert code == (0 if artifact.accepted == artifact.total
                        else 1)
        for platform in PLATFORMS:
            assert platform in out

    def test_check_requires_trace_or_artifact(self, capsys):
        assert main(["check"]) == 2

    def test_run_with_store_then_append_dedups(self, tmp_path,
                                               capsys):
        store_dir = tmp_path / "run-store"
        artifact_path = tmp_path / "run.json"
        assert main(["run", "--config", "linux_ext4",
                     "--plan", "handwritten",
                     "--store", str(store_dir),
                     "--artifact", str(artifact_path)]) == 0
        out = capsys.readouterr().out
        assert "campaign store" in out
        assert main(["campaign", "append", str(store_dir),
                     str(artifact_path)]) == 0
        out = capsys.readouterr().out
        assert "0 rows appended" in out


class TestServeStore:
    def test_sigterm_flushes_stats_and_store(self, tmp_path):
        """`repro serve --stats-json --store`: the flusher writes stats
        while running, and SIGTERM still produces a final snapshot and
        a cleanly closed store."""
        stats_path = tmp_path / "stats.json"
        store_dir = tmp_path / "serve-store"
        src = pathlib.Path(repro.__file__).parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--backend", "serial", "--port", "0",
             "--stats-json", str(stats_path),
             "--stats-interval", "0.2", "--store", str(store_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        try:
            deadline = time.monotonic() + 60
            while not stats_path.exists():
                assert proc.poll() is None, proc.stdout.read()
                assert time.monotonic() < deadline, \
                    "server never wrote its stats snapshot"
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "repro serve: stopped" in out
        stats = json.loads(stats_path.read_text())
        assert stats["store_rows"] == 0
        assert (store_dir / "manifest.json").exists()
        with CampaignStore(store_dir, create=False) as store:
            assert store.rows == 0
