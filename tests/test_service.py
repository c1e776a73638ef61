"""Tests for the persistent checking service (``repro.service``).

The service stack has four layers, tested here bottom-up:

* :class:`ShardPool` — workers that outlive calls: futures, restart
  after close, epoch replay to late-spawned workers, stats.
* :class:`CheckingService` — lifecycle (start/submit/drain/stats/
  shutdown), the warmup-then-publish epoch policy, parent-only mode.
* The asyncio front door + blocking client — protocol round trips,
  error replies, shutdown, the request line limit, and bit-for-bit
  verdict parity with :class:`~repro.api.SerialBackend` through the
  wire format.
* The CLI wiring — ``repro check --server`` against a live server.

Cross-engine checking parity is enforced separately by
``tests/test_engine_parity.py`` (the ``service`` registry entry).
"""

import itertools
import json
import socket
import threading

import pytest

from repro.api import SerialBackend
from repro.executor import execute_script
from repro.fsimpl import config_by_name
from repro.oracle import ConformanceProfile
from repro.script import parse_script, print_trace
from repro.service import (ArenaEpochs, CheckingService, CheckResult,
                           ServiceClient, ShardPool, run_server)
from repro.service.client import LINE_TOO_LONG, MAX_LINE_BYTES

CONFIG = "linux_sshfs_tmpfs"


def _traces(n=6, prefix="t"):
    quirks = config_by_name(CONFIG)
    scripts = [parse_script(
        '@type script\n# Test %s%d\nmkdir "d%d" 0o755\nrmdir "d%d"\n'
        % (prefix, i, i, i)) for i in range(n)]
    return [execute_script(quirks, s) for s in scripts]


def _serial_rows(traces, model="all"):
    """Per-trace profile tuples via the serial backend baseline."""
    return [outcome.profiles
            for outcome in SerialBackend().check_iter(model, traces)]


class _Server:
    """A live server on a background thread, for client tests."""

    def __init__(self, service):
        self.service = service
        self._bound = threading.Event()
        self.address = None

        def ready(server):
            self.address = server.address()
            self._bound.set()

        self.thread = threading.Thread(
            target=run_server, args=(service,),
            kwargs={"ready": ready}, daemon=True)

    def __enter__(self):
        self.thread.start()
        assert self._bound.wait(timeout=30), "server never bound"
        return self

    def __exit__(self, *exc_info):
        try:
            if self.thread.is_alive():
                with ServiceClient(self.address) as client:
                    client.shutdown()
            self.thread.join(timeout=30)
        except ConnectionError:
            pass
        finally:
            self.service.shutdown()


class TestShardPool:
    def test_submit_resolves_futures_in_order(self):
        traces = _traces(8)
        with ShardPool(2) as pool:
            epochs = ArenaEpochs(pool)
            oracle = epochs.warm_oracle("all")
            oracle.check(traces[0])
            epochs.publish("all")
            items = [("check", t.name, print_trace(t)) for t in traces]
            futures = pool.submit(items, model="all", partition="all")
            got = [f.result(timeout=60)[0] for f in futures]
            epochs.close()
        assert got == _serial_rows(traces)

    def test_pool_restarts_after_close(self):
        traces = _traces(3)
        items = [("check", t.name, print_trace(t)) for t in traces]
        pool = ShardPool(2)
        try:
            first = pool.submit(items, model="all", partition="all")
            [f.result(timeout=60) for f in first]
            pool.close()
            assert not pool.alive
            # A later submit restarts the workers (visible cold start).
            second = pool.submit(items, model="all", partition="all")
            got = [f.result(timeout=60)[0] for f in second]
            assert got == _serial_rows(traces)
            assert pool.run_stats()["pool_cold_starts"] == 2
            assert pool.run_stats()["pool_calls"] == 2
        finally:
            pool.close()

    def test_epoch_replayed_to_restarted_workers(self):
        """``publish`` before ``start`` (or after a close) is not lost:
        the standing epoch is replayed to freshly spawned workers."""
        traces = _traces(6)
        pool = ShardPool(2)
        epochs = ArenaEpochs(pool)
        try:
            oracle = epochs.warm_oracle("all")
            for trace in traces:
                oracle.check(trace)
            epochs.publish("all")  # pool not started: stored only
            assert not pool.alive
            items = [("check", t.name, print_trace(t)) for t in traces]
            call = pool.submit_stream(items, model="all",
                                      partition="all")
            got = [payload[0] for _i, payload in call.results()]
            assert got == _serial_rows(traces)
            # results() only returns after every shard's call barrier,
            # so the cumulative worker stats are in.
            stats = pool.run_stats()
            assert stats["epochs_adopted"] == 2  # both workers attached
            assert stats["arena_hits"] > 0       # ...and used the rows
        finally:
            epochs.close()
            pool.close()

    def test_repeat_submission_hits_worker_verdict_memo(self):
        traces = _traces(4)
        items = [("check", t.name, print_trace(t)) for t in traces]
        with ShardPool(2) as pool:
            first = pool.submit_stream(items, model="all",
                                       partition="all")
            list(first.results())
            second = pool.submit_stream(items, model="all",
                                        partition="all")
            got = [payload[0] for _i, payload in second.results()]
            assert got == _serial_rows(traces)
            # Per-call delta: every repeat was served from the memo.
            assert second.stats["verdict_hits"] == len(traces)
            assert pool.run_stats()["verdict_hits"] == len(traces)


class TestCheckingService:
    def test_lifecycle_and_verdict_parity(self):
        traces = _traces(8)
        want = _serial_rows(traces)
        with CheckingService("all", shards=2, warmup=2) as service:
            futures = service.submit(traces)
            assert service.drain(timeout=120)
            results = [f.result(timeout=1) for f in futures]
        assert [r.profiles for r in results] == want
        assert [r.name for r in results] == [t.name for t in traces]
        for result, profiles in zip(results, want):
            assert result.accepted == profiles[0].accepted
            assert result.accepted_on == tuple(
                p.platform for p in profiles if p.accepted)

    def test_warmup_resolves_in_parent_then_pool_serves(self):
        traces = _traces(10)
        with CheckingService("all", shards=2, warmup=4) as service:
            [f.result(timeout=120) for f in service.submit(traces)]
            stats = service.stats()
            assert stats["resolved_in_parent"] == 4
            assert stats["traces_submitted"] == 10
            assert stats["epochs_published"] == 1
            assert stats["arena_rows"] > 0
            # Later batches skip the warmup: the epoch is standing.
            [f.result(timeout=120)
             for f in service.submit(_traces(4, prefix="u"))]
            assert service.stats()["resolved_in_parent"] == 4

    def test_parent_only_mode_checks_synchronously(self):
        traces = _traces(5)
        with CheckingService("all", shards=0) as service:
            futures = service.submit(traces)
            # Parent-only: every future is already resolved.
            assert all(f.done() for f in futures)
            assert [f.result() for f in futures] and service.drain(0)
            stats = service.stats()
            assert stats["shards"] == 0
            assert stats["resolved_in_parent"] == len(traces)
        assert [f.result().profiles for f in futures] == \
            _serial_rows(traces)

    def test_submit_accepts_trace_text(self):
        trace = _traces(1)[0]
        with CheckingService("all", shards=0) as service:
            result = service.check(print_trace(trace))
        assert result.profiles == _serial_rows([trace])[0]

    def test_shutdown_is_idempotent_and_final(self):
        service = CheckingService("all", shards=0)
        service.start()
        service.shutdown()
        service.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            service.submit(_traces(1))
        with pytest.raises(RuntimeError, match="shut down"):
            service.start()

    def test_check_result_payload_round_trip(self):
        trace = _traces(1)[0]
        with CheckingService("all", shards=0) as service:
            result = service.check(trace)
        assert CheckResult.from_payload(
            json.loads(json.dumps(result.to_payload()))) == result


class TestServerProtocol:
    def test_check_and_batch_round_trip(self):
        traces = _traces(6)
        want = _serial_rows(traces)
        texts = [print_trace(t) for t in traces]
        with _Server(CheckingService("all", shards=0)) as server:
            with ServiceClient(server.address) as client:
                verdict = client.check(texts[0], request_id="one")
                assert verdict["op"] == "verdict"
                assert verdict["id"] == "one"
                assert verdict["name"] == traces[0].name
                got = tuple(ConformanceProfile.from_dict(row)
                            for row in verdict["profiles"])
                assert got == want[0]
                verdicts, done = client.check_batch(texts,
                                                    request_id=7)
                assert [v["name"] for v in verdicts] == \
                    [t.name for t in traces]
                assert all(v["id"] == 7 for v in verdicts)
                assert done["op"] == "batch_done"
                assert done["count"] == len(traces)
                assert done["engine_stats"]["traces_submitted"] == 7
                for v, profiles in zip(verdicts, want):
                    assert tuple(ConformanceProfile.from_dict(row)
                                 for row in v["profiles"]) == profiles
                    assert v["accepted"] == profiles[0].accepted

    def test_status_error_replies_and_shutdown(self):
        with _Server(CheckingService("all", shards=0)) as server:
            with ServiceClient(server.address) as client:
                stats = client.status()
                assert stats["op"] == "stats"
                assert stats["engine_stats"]["shards"] == 0
                # Errors keep the connection up...
                with pytest.raises(RuntimeError, match="unknown op"):
                    client.request({"op": "nonsense"})
                with pytest.raises(RuntimeError, match="unknown op"):
                    client.request({})  # no op at all
                client._sock.sendall(b"not json\n")
                with pytest.raises(RuntimeError, match="bad request"):
                    client._read()
                with pytest.raises(RuntimeError):
                    client.check("@type trace\nmangled")
                # ...and the same connection still serves verdicts.
                trace = _traces(1)[0]
                verdict = client.check(print_trace(trace))
                assert verdict["accepted"] == \
                    _serial_rows([trace])[0][0].accepted
                assert client.shutdown()["op"] == "bye"
            server.thread.join(timeout=30)
            assert not server.thread.is_alive()

    def test_served_verdicts_match_serial_backend_with_pool(self):
        """End to end through processes *and* the wire: a sharded
        service serves bit-for-bit what the serial backend computes."""
        traces = _traces(12)
        want = _serial_rows(traces)
        service = CheckingService("all", shards=2, warmup=3)
        with _Server(service) as server:
            with ServiceClient(server.address) as client:
                verdicts, done = client.check_batch(
                    [print_trace(t) for t in traces])
                got = [tuple(ConformanceProfile.from_dict(row)
                             for row in v["profiles"])
                       for v in verdicts]
                assert got == want
                assert done["engine_stats"]["epochs_published"] == 1
                assert done["engine_stats"]["resolved_in_parent"] == 3


class TestLineLimit:
    """Request lines up to ``MAX_LINE_BYTES`` are served; a longer one
    gets an error naming the limit, never a bare connection reset."""

    def test_default_plan_batch_over_64kib_gets_every_verdict(self):
        from repro.executor import ScriptExecutor
        from repro.gen import default_plan

        quirks = config_by_name("linux_ext4")
        executor = ScriptExecutor()
        traces = [executor.execute(quirks, script) for script in
                  itertools.islice(default_plan().scripts(), 200)]
        texts = [print_trace(t) for t in traces]
        # Over asyncio's default 64 KiB stream limit.
        assert len(json.dumps({"op": "batch", "traces": texts})) > 1 << 16
        with _Server(CheckingService("linux", shards=0)) as server:
            with ServiceClient(server.address) as client:
                verdicts, done = client.check_batch(texts)
        assert done["count"] == 200
        assert [v["name"] for v in verdicts] == [t.name for t in traces]
        assert [tuple(ConformanceProfile.from_dict(row)
                      for row in v["profiles"]) for v in verdicts] == \
            _serial_rows(traces, model="linux")

    def test_over_limit_line_gets_error_then_close(self):
        trace = _traces(1)[0]
        line = json.dumps({"op": "check",
                           "trace": "x" * (2 * MAX_LINE_BYTES)}).encode()
        with _Server(CheckingService("linux", shards=0)) as server:
            host, port = server.address.rsplit(":", 1)
            with socket.create_connection((host, int(port)),
                                          timeout=60) as sock:
                sock.sendall(line + b"\n")
                reader = sock.makefile("rb")
                reply = json.loads(reader.readline())
                assert reply == {"op": "error", "id": None,
                                 "error": LINE_TOO_LONG}
                assert str(MAX_LINE_BYTES) in reply["error"]
                assert reader.readline() == b""  # closed, not reset
                reader.close()
            # The server itself is unharmed: a new connection is served.
            with ServiceClient(server.address) as client:
                verdict = client.check(print_trace(trace))
        assert verdict["op"] == "verdict"
        assert verdict["name"] == trace.name

    def test_client_refuses_over_limit_line_before_sending(self):
        trace = _traces(1)[0]
        with _Server(CheckingService("linux", shards=0)) as server:
            with ServiceClient(server.address) as client:
                with pytest.raises(ValueError) as excinfo:
                    client.check("x" * (MAX_LINE_BYTES + 1))
                assert str(excinfo.value) == LINE_TOO_LONG
                # Nothing was sent, so the connection still serves.
                verdict = client.check(print_trace(trace))
        assert verdict["name"] == trace.name


class TestCliServer:
    def test_check_against_live_server(self, tmp_path, capsys):
        from repro.cli import main

        clean, deviating = _traces(1)[0], None
        quirks = config_by_name(CONFIG)
        deviating = execute_script(quirks, parse_script(
            '@type script\n# Test dev\nmkdir "d" 0o755\n'
            'mkdir "d" 0o755\nrmdir "d"\nrmdir "d"\n'))
        clean_path = tmp_path / "clean.trace"
        clean_path.write_text(print_trace(clean))
        dev_path = tmp_path / "dev.trace"
        dev_path.write_text(print_trace(deviating))
        with _Server(CheckingService("linux", shards=0)) as server:
            assert main(["check", str(clean_path),
                         "--server", server.address]) == 0
            out = capsys.readouterr().out
            assert "accepted" in out.lower() or "Test" in out
            code = main(["check", str(dev_path),
                         "--server", server.address])
        serial = _serial_rows([deviating], model="linux")[0]
        assert code == (0 if serial[0].accepted else 1)
