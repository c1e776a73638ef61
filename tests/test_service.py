"""Tests for the persistent checking service (``repro.service``).

The service stack has four layers, tested here bottom-up:

* :class:`ShardPool` — workers that outlive calls: futures, restart
  after close, a raising check or an unpicklable exception failing only
  its own item, a dead shard failing the items it held and being
  replaced (also through ``ShardedBackend.check_iter``), the pool's
  bounded verdict memo, stats.
* :class:`CheckingService` — lifecycle (start/submit/drain/stats/
  shutdown), every trace served by the pool, parent-only mode.
* The asyncio front door + blocking client — protocol round trips,
  error replies (a raising check, a dead shard), shutdown, the request
  line limit, and bit-for-bit verdict parity with
  :class:`~repro.api.SerialBackend` through the wire format.
* The CLI wiring — ``repro check --server`` against a live server.

Cross-engine checking parity is enforced separately by
``tests/test_engine_parity.py`` (the ``service`` registry entry).
"""

import itertools
import json
import os
import socket
import threading

import pytest

from repro.api import SerialBackend, ShardedBackend
from repro.executor import execute_script
from repro.fsimpl import config_by_name
from repro.oracle import ConformanceProfile, create_oracle
from repro.script import (ParseError, parse_script, parse_trace,
                          print_trace)
from repro.service import (CheckingService, CheckResult, ServiceClient,
                           ShardPool, ShardWorkerState, run_server)
from repro.service.client import LINE_TOO_LONG, MAX_LINE_BYTES
from repro.service.pool import VERDICT_MEMO_MAX

CONFIG = "linux_sshfs_tmpfs"

#: A trace that parses but whose check raises: the model stores file
#: content densely, so a truncate past index size overflows.
OVERFLOWING = ('@type trace\n# Test overflowing\n'
               'open "f" [O_CREAT;O_RDWR] 0o644\nRV_num(3)\n'
               'truncate "f" 999999999999999999999999\nRV_none\n')


def _traces(n=6, prefix="t"):
    quirks = config_by_name(CONFIG)
    scripts = [parse_script(
        '@type script\n# Test %s%d\nmkdir "d%d" 0o755\nrmdir "d%d"\n'
        % (prefix, i, i, i)) for i in range(n)]
    return [execute_script(quirks, s) for s in scripts]


def _profiles(verdict):
    """The profile tuple of a served ``verdict`` message."""
    return tuple(ConformanceProfile.from_dict(row)
                 for row in verdict["profiles"])


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


def _named(name):
    """A short trace named ``name``."""
    return execute_script(config_by_name(CONFIG), parse_script(
        f'@type script\n# Test {name}\nmkdir "x" 0o755\nrmdir "x"\n'))


def _on_trace(monkeypatch, name, action):
    """Run ``action()`` in place of checking trace ``name``, in every
    shard forked from now on (a fork inherits the patch)."""
    real = ShardWorkerState.check

    def check(self, model, coverage, text):
        if f"# Test {name}\n" in text:
            action()
        return real(self, model, coverage, text)

    monkeypatch.setattr(ShardWorkerState, "check", check)


def _die():
    os._exit(3)  # no reply, no 'fatal' message: as an OOM kill


def _raise_unpicklable():
    raise ValueError("carries a lambda", lambda: None)


def _after(pool, shard):
    """A trace sharing :data:`OVERFLOWING`'s first call, named to land
    on ``shard``."""
    name = next(f"after{i}" for i in itertools.count()
                if pool.shard_of("all", f"after{i}") == shard)
    return execute_script(config_by_name(CONFIG), parse_script(
        f'@type script\n# Test {name}\n'
        'open "f" [O_CREAT;O_RDWR] 0o644\nclose 3\n'))


class TestShardPool:
    def test_submit_resolves_futures_in_order(self):
        traces = _traces(8)
        with ShardPool(2) as pool:
            items = [(t.name, print_trace(t)) for t in traces]
            futures = pool.submit(items, model="all", partition="all")
            got = [f.result(timeout=60)[0] for f in futures]
        assert got == _serial_rows(traces)

    def test_pool_restarts_after_close(self):
        traces = _traces(3)
        items = [(t.name, print_trace(t)) for t in traces]
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

    @pytest.mark.parametrize("text, raised", [
        (OVERFLOWING, OverflowError),
        ("@type trace\nmangled", ParseError),
    ], ids=["raising-check", "unparseable"])
    def test_raising_item_fails_only_its_future(self, text, raised):
        """A check that raises (or text that does not parse) fails its
        own future with that exception, named after the trace; the other
        items, and the next call on the same shard, get the serial
        verdict, and the workers are never restarted."""
        traces = _traces(4)
        with ShardPool(2) as pool:
            items = [(t.name, print_trace(t)) for t in traces]
            items.insert(2, ("bad", text))
            futures = pool.submit(items, model="all", partition="all")
            error = futures[2].exception(timeout=60)
            assert type(error) is raised
            assert any("'bad'" in note for note in error.__notes__)
            got = [f.result(timeout=60)[0]
                   for i, f in enumerate(futures) if i != 2]
            assert got == _serial_rows(traces)
            after = _after(pool, pool.shard_of("all", "bad"))
            again = pool.submit([(after.name, print_trace(after))],
                                model="all", partition="all")
            assert again[0].result(timeout=60)[0] == \
                _serial_rows([after])[0]
            assert pool.run_stats()["pool_cold_starts"] == 1

    def test_abandoned_call_pulls_no_further_items(self):
        """Pulling an item can be costly (the sharded backend executes a
        script to make one): once the consumer abandons a call, its
        feeder finishes the pull in progress and stops, even while the
        in-flight window has room."""
        chunk = 8
        text = print_trace(_traces(1)[0])
        gate, done = threading.Event(), threading.Event()
        pulled = []
        with ShardPool(2, chunk=chunk) as pool:
            # Every item routes to one shard, so the first chunk is
            # flushed and checked before the stream blocks on the gate.
            names = [name for name in (f"t{i}" for i in range(1000))
                     if pool.shard_of("all", name) == 0]

            def items():
                try:
                    for i in range(100):
                        if i >= chunk:
                            gate.wait(timeout=60)
                        pulled.append(i)
                        yield (names[i], text)
                finally:
                    done.set()  # the feeder let go of the stream

            results = pool.submit_stream(items(), model="all",
                                         partition="all").results()
            next(results)
            results.close()
            gate.set()
            assert done.wait(timeout=60)
        assert len(pulled) == chunk + 1

    def test_repeat_submission_is_answered_from_the_pool_memo(self):
        """An exact repeat, through either submission path, is answered
        in the parent from the memo, and counted where it hits."""
        traces = _traces(4)
        want = _serial_rows(traces)
        items = [(t.name, print_trace(t)) for t in traces]
        with ShardPool(2) as pool:
            first = pool.submit_stream(items, model="all",
                                       partition="all")
            assert [payload[0] for _i, payload in first.results()] == want
            assert pool.run_stats()["verdict_hits"] == 0
            second = pool.submit_stream(items, model="all",
                                        partition="all")
            assert [payload[0] for _i, payload in second.results()] == want
            third = pool.submit(items, model="all", partition="all")
            assert all(f.done() for f in third)  # no round trip
            assert [f.result()[0] for f in third] == want
            stats = pool.run_stats()
        assert stats["verdict_hits"] == 2 * len(traces)
        assert stats["pool_cold_starts"] == 1

    def test_dead_shard_fails_its_items_and_is_replaced(self,
                                                        monkeypatch):
        """A shard that dies without a word fails the items it held,
        each with an error naming the shard and its trace; items on the
        other shard get their verdicts, and the next submission runs on
        a fresh worker."""
        _on_trace(monkeypatch, "doomed", _die)
        traces = _traces(6)
        with ShardPool(2) as pool:
            dead = pool.shard_of("all", "doomed")
            batch = [*traces[:3], _named("doomed"), *traces[3:]]
            futures = pool.submit([(t.name, print_trace(t))
                                   for t in batch],
                                  model="all", partition="all")
            error = futures[3].exception(timeout=60)
            assert type(error) is RuntimeError
            assert f"shard {dead} died" in str(error)
            assert "'doomed'" in str(error)
            for trace, future in zip(batch, futures):
                if trace.name == "doomed":
                    continue
                if pool.shard_of("all", trace.name) != dead:
                    assert future.result(timeout=60)[0] == \
                        _serial_rows([trace])[0]
                elif future.exception(timeout=60) is not None:
                    assert repr(trace.name) in str(future.exception())
            later = [_after(pool, dead), *_traces(3, prefix="u")]
            again = pool.submit([(t.name, print_trace(t)) for t in later],
                                model="all", partition="all")
            assert [f.result(timeout=60)[0] for f in again] == \
                _serial_rows(later)
            assert pool.run_stats()["pool_cold_starts"] == 2

    def test_unpicklable_exception_fails_only_its_item(self,
                                                       monkeypatch):
        """A check whose exception cannot cross the pipe fails its own
        item loudly, with the original traceback, instead of a result
        lost while its future waits; the shard goes on serving."""
        _on_trace(monkeypatch, "unpicklable", _raise_unpicklable)
        traces = _traces(4)
        with ShardPool(2) as pool:
            batch = [*traces[:2], _named("unpicklable"), *traces[2:]]
            futures = pool.submit([(t.name, print_trace(t))
                                   for t in batch],
                                  model="all", partition="all")
            error = futures[2].exception(timeout=60)
            assert type(error) is RuntimeError
            assert "'unpicklable'" in str(error)
            assert "carries a lambda" in str(error)
            assert [f.result(timeout=60)[0]
                    for i, f in enumerate(futures) if i != 2] == \
                _serial_rows(traces)
            after = _after(pool, pool.shard_of("all", "unpicklable"))
            again = pool.submit([(after.name, print_trace(after))],
                                model="all", partition="all")
            assert again[0].result(timeout=60)[0] == \
                _serial_rows([after])[0]
            assert pool.run_stats()["pool_cold_starts"] == 1


class TestShardedBackendErrors:
    def test_raising_check_fails_check_iter_at_that_item(self):
        """``check_iter`` yields the verdicts before a raising check,
        raises the shard's exception at it, and the same backend then
        checks like the serial backend on the same workers."""
        traces = _traces(4)
        want = _serial_rows(traces)
        got = []
        with ShardedBackend(2) as backend:
            stream = backend.check_iter(
                "all", traces[:2] + [parse_trace(OVERFLOWING)]
                + traces[2:])
            with pytest.raises(OverflowError) as excinfo:
                for outcome in stream:
                    got.append(outcome.profiles)
            assert any("'overflowing'" in note
                       for note in excinfo.value.__notes__)
            assert got == want[:2]
            after = _after(backend._pool, backend._pool.shard_of(
                "all", "overflowing"))
            assert [o.profiles for o in backend.check_iter(
                "all", [after, *traces])] == \
                _serial_rows([after, *traces])
            assert backend.run_stats()["pool_cold_starts"] == 1

    def test_dead_shard_fails_check_iter_at_that_item(self, monkeypatch):
        """``check_iter`` raises at the item a dead shard held, naming
        it; the same backend then checks like the serial backend, on a
        fresh worker."""
        _on_trace(monkeypatch, "doomed", _die)
        traces = _traces(4)
        with ShardedBackend(2) as backend:
            with pytest.raises(RuntimeError, match="died") as excinfo:
                list(backend.check_iter("all",
                                        [_named("doomed"), *traces]))
            assert "'doomed'" in str(excinfo.value)
            pool = backend._pool
            later = [_after(pool, pool.shard_of("all", "doomed")),
                     *_traces(3, prefix="u")]
            assert [o.profiles for o in backend.check_iter(
                "all", later)] == _serial_rows(later)
            assert backend.run_stats()["pool_cold_starts"] == 2


#: Adversarial streams for the bounded verdict memos, each longer than
#: the bound: every text new, a few texts repeated, and one text
#: repeated between new ones (so it is evicted and checked again).
#: Three bodies, one of them deviating, so a memo that answered with
#: the wrong entry would show.
_MEMO_BODIES = ('mkdir "d" 0o755\nRV_none\nrmdir "d"\nRV_none\n',
                'mkdir "d" 0o755\nRV_none\nmkdir "d" 0o755\nRV_none\n',
                'rmdir "e"\nENOENT\n')
_MEMO_STREAM_LEN = VERDICT_MEMO_MAX + 512
_MEMO_STREAMS = {
    "all-novel": range(_MEMO_STREAM_LEN),
    "all-repeat": [i % 3 for i in range(_MEMO_STREAM_LEN)],
    "alternating": [0 if i % 2 else i for i in range(
        1, 2 * _MEMO_STREAM_LEN)],
}


def _memo_text(i):
    return f"@type trace\n# Test m{i}\n" + _MEMO_BODIES[i % 3]


class TestVerdictMemoBound:
    """``VERDICT_MEMO_MAX`` bounds the pool's verdict memo on every
    stream shape, through both submission paths and the sharded
    backend's ``check_iter``; a memoized verdict is always what a fresh
    oracle computes, and no coverage call is answered from the memo."""

    @staticmethod
    def _check_stream(pool, path, texts, fresh):
        for start in range(0, len(texts), 512):
            calls = texts[start:start + 512]
            items = [(parse_trace(text).name, text) for text in calls]
            if path == "submit":
                got = [f.result(timeout=120) for f in pool.submit(
                    items, model="all", partition="all")]
            else:
                got = [payload for _i, payload in pool.submit_stream(
                    items, model="all", partition="all").results()]
            for text, (profiles, _covered, _seconds) in zip(calls, got):
                assert profiles == fresh.check(parse_trace(text)).profiles
            assert len(pool._verdicts) <= VERDICT_MEMO_MAX

    @pytest.mark.parametrize("stream", sorted(_MEMO_STREAMS))
    def test_pool_memo(self, stream):
        texts = [_memo_text(i) for i in _MEMO_STREAMS[stream]]
        fresh = create_oracle("all", cache=True)
        for path in ("submit", "submit_stream"):
            with ShardPool(2) as pool:
                self._check_stream(pool, path, texts, fresh)
                hits = pool.run_stats()["verdict_hits"]
                # Coverage never reads the memo: a memoized text is
                # checked again, and its clause hits come back.
                text = next(iter(pool._verdicts))[1]
                [coverage] = pool.submit([("coverage", text)],
                                         model="all",
                                         collect_coverage=True,
                                         partition="all")
                profiles, covered, _seconds = coverage.result(timeout=60)
                assert covered
                assert profiles == fresh.check(parse_trace(text)).profiles
                assert pool.run_stats()["verdict_hits"] == hits
            if stream == "all-novel":
                assert hits == 0
            elif stream == "all-repeat":  # only the 3 first sights miss
                assert hits == len(texts) - 3
            else:
                assert hits > 0

    @pytest.mark.parametrize("stream", sorted(_MEMO_STREAMS))
    def test_parent_memo(self, stream):
        traces = [parse_trace(_memo_text(i))
                  for i in _MEMO_STREAMS[stream]]
        fresh = create_oracle("all", cache=True)
        with ShardedBackend(2) as backend:
            for start in range(0, len(traces), 512):
                calls = traces[start:start + 512]
                for trace, outcome in zip(
                        calls, backend.check_iter("all", calls)):
                    assert outcome.profiles == fresh.check(
                        trace).profiles
                assert len(backend._pool._verdicts) <= VERDICT_MEMO_MAX


class TestCheckingService:
    def test_lifecycle_and_verdict_parity(self):
        traces = _traces(8)
        want = _serial_rows(traces)
        with CheckingService("all", shards=2) as service:
            futures = service.submit(traces)
            assert service.drain(timeout=120)
            results = [f.result(timeout=1) for f in futures]
        assert [r.profiles for r in results] == want
        assert [r.name for r in results] == [t.name for t in traces]
        for result, profiles in zip(results, want):
            assert result.accepted == profiles[0].accepted
            assert result.accepted_on == tuple(
                p.platform for p in profiles if p.accepted)

    def test_every_trace_is_served_by_the_pool(self):
        """No trace is checked in the parent: the first batch goes to
        the pool like every later one, on workers spawned once."""
        traces, later = _traces(10), _traces(4, prefix="u")
        with CheckingService("all", shards=2) as service:
            got = [f.result(timeout=120).profiles
                   for f in service.submit(traces)]
            got += [f.result(timeout=120).profiles
                    for f in service.submit(later)]
            stats = service.stats()
        assert got == _serial_rows(traces + later)
        assert stats["traces_submitted"] == 14
        assert stats["pool_calls"] == 2
        assert stats["pool_cold_starts"] == 1

    def test_pool_path_prints_each_trace_once_with_a_store(
            self, tmp_path, monkeypatch):
        from repro.service import service as service_mod
        from repro.store import CampaignStore

        printed = []

        def counting_print(trace):
            printed.append(trace.name)
            return print_trace(trace)

        monkeypatch.setattr(service_mod, "print_trace", counting_print)
        traces = _traces(6)
        path = tmp_path / "served"
        with CheckingService("linux", shards=2,
                             store=str(path)) as service:
            [f.result(timeout=120) for f in service.submit(traces)]
        # One print per served trace: the shard's text is the row's.
        assert sorted(printed) == sorted(t.name for t in traces)
        with CampaignStore(path, create=False) as store:
            rows = {r.name: r.trace_text for _c, r in store.records()}
        assert rows == {t.name: print_trace(t) for t in traces}

    def test_parent_only_mode_checks_synchronously(self):
        traces = _traces(5)
        with CheckingService("all", shards=0) as service:
            futures = service.submit(traces)
            # Parent-only: every future is already resolved.
            assert all(f.done() for f in futures)
            assert [f.result() for f in futures] and service.drain(0)
            stats = service.stats()
            assert stats["shards"] == 0
            assert stats["traces_submitted"] == len(traces)
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
        service = CheckingService("all", shards=2)
        with _Server(service) as server:
            with ServiceClient(server.address) as client:
                verdicts, done = client.check_batch(
                    [print_trace(t) for t in traces])
                got = [_profiles(v) for v in verdicts]
                assert got == want
                assert done["engine_stats"]["traces_submitted"] == 12
                assert done["engine_stats"]["pool_cold_starts"] == 1

    def test_served_raising_check_gets_one_error_reply(self):
        """A trace whose check raises gets one error reply naming the
        exception; the connection stays up, the next trace on the same
        shard gets the serial verdict, and the pool is not restarted."""
        traces = _traces(3)
        service = CheckingService("all", shards=2)
        with _Server(service) as server:
            with ServiceClient(server.address) as client:
                first = client.check(print_trace(traces[0]))
                with pytest.raises(RuntimeError,
                                   match="server error: OverflowError"):
                    client.check(OVERFLOWING)
                after = _after(service._pool,
                               service._pool.shard_of("all",
                                                      "overflowing"))
                rest = [client.check(print_trace(t))
                        for t in [after, *traces[1:]]]
                stats = client.status()["engine_stats"]
        assert [_profiles(v) for v in [first, *rest]] == \
            _serial_rows([traces[0], after, *traces[1:]])
        assert stats["pool_cold_starts"] == 1

    def test_served_dead_shard_gets_one_error_reply(self, monkeypatch):
        """A trace whose shard dies gets one error reply naming the
        shard and the trace; the connection stays up and the next trace
        routed there gets the serial verdict from a fresh worker."""
        _on_trace(monkeypatch, "doomed", _die)
        traces = _traces(3)
        service = CheckingService("all", shards=2)
        with _Server(service) as server:
            with ServiceClient(server.address) as client:
                first = client.check(print_trace(traces[0]))
                with pytest.raises(RuntimeError, match="server error: "
                                   "RuntimeError: shard .* died") as exc:
                    client.check(print_trace(_named("doomed")))
                assert "'doomed'" in str(exc.value)
                after = _after(service._pool,
                               service._pool.shard_of("all", "doomed"))
                rest = [client.check(print_trace(t))
                        for t in [after, *traces[1:]]]
                stats = client.status()["engine_stats"]
        assert [_profiles(v) for v in [first, *rest]] == \
            _serial_rows([traces[0], after, *traces[1:]])
        assert stats["pool_cold_starts"] == 2


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
