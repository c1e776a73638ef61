"""Tests for the persistent checking service (``repro.service``).

The service stack has four layers, tested here bottom-up:

* :class:`ShardPool` — workers that outlive calls (but not a killed
  parent): futures, restart after close, a raising check or an
  unpicklable exception failing only its own item, a dead shard failing
  the items it held and being replaced (also through
  ``ShardedBackend.run_iter``), the pool's bounded verdict memo,
  stats.
* :class:`CheckingService` — lifecycle (start/submit/drain/stats/
  shutdown), every trace served by the pool, text routed as sent (no
  parse or print in the parent, store rows byte for byte),
  parent-only mode.
* The asyncio front door + blocking client — protocol round trips,
  error replies (a raising check, a dead shard, a malformed trace, also
  inside a ``batch``), shutdown, the request line limit, and
  bit-for-bit verdict parity with the in-process oracle through the
  wire format.
* The CLI wiring — ``repro check --server`` against a live server.

Cross-engine checking parity is enforced separately by
``tests/test_engine_parity.py`` (the ``service`` registry entry).
"""

import itertools
import json
import os
import pathlib
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import pytest

from repro.api import ShardedBackend
from repro.executor import execute_script
from repro.fsimpl import config_by_name
from repro.oracle import ConformanceProfile, create_oracle, get_oracle
from repro.script import (ParseError, parse_script, parse_trace,
                          print_trace)
from repro.service import (CheckingService, CheckResult, ServiceClient,
                           ShardPool, ShardWorkerState, run_server)
from repro.service.client import LINE_TOO_LONG, MAX_LINE_BYTES
from repro.service.pool import CHUNK, VERDICT_MEMO_MAX, WINDOW
from repro.service.server import ServiceServer

CONFIG = "linux_sshfs_tmpfs"

#: A trace that parses but whose check raises: the model stores file
#: content densely, so a truncate past index size overflows.
OVERFLOWING = ('@type trace\n# Test overflowing\n'
               'open "f" [O_CREAT;O_RDWR] 0o644\nRV_num(3)\n'
               'truncate "f" 999999999999999999999999\nRV_none\n')

#: A trace that does not parse (its one line is no call or return).
MANGLED = "@type trace\nmangled"


def _scripts(n=6, prefix="t"):
    return [parse_script(
        '@type script\n# Test %s%d\nmkdir "d%d" 0o755\nrmdir "d%d"\n'
        % (prefix, i, i, i)) for i in range(n)]


def _executed(scripts):
    quirks = config_by_name(CONFIG)
    return [execute_script(quirks, s) for s in scripts]


def _traces(n=6, prefix="t"):
    return _executed(_scripts(n, prefix))


def _profiles(verdict):
    """The profile tuple of a served ``verdict`` message."""
    return tuple(ConformanceProfile.from_dict(row)
                 for row in verdict["profiles"])


def _serial_rows(traces, model="all"):
    """Per-trace profile tuples from the in-process oracle."""
    oracle = get_oracle(model)
    return [oracle.check(trace).profiles for trace in traces]


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


def _named_script(name):
    """A short script named ``name``."""
    return parse_script(
        f'@type script\n# Test {name}\nmkdir "x" 0o755\nrmdir "x"\n')


def _named(name):
    """A short trace named ``name``."""
    return execute_script(config_by_name(CONFIG), _named_script(name))


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


def _raise_overflow():
    raise OverflowError("the check overflowed")


def _after_script(pool, shard, partition="all"):
    """A script sharing :data:`OVERFLOWING`'s first call, named to land
    on ``shard`` under ``partition``."""
    name = next(f"after{i}" for i in itertools.count()
                if pool.shard_of(partition, f"after{i}") == shard)
    return parse_script(
        f'@type script\n# Test {name}\n'
        'open "f" [O_CREAT;O_RDWR] 0o644\nclose 3\n')


def _after(pool, shard):
    """The trace of :func:`_after_script`, routed as ``"all"``."""
    return execute_script(config_by_name(CONFIG),
                          _after_script(pool, shard))


def _alive(pid):
    """Whether process ``pid`` still runs (a zombie does not: whoever
    adopted it may reap it late)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        stat = pathlib.Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


#: Run by a child interpreter: start a pool, check one trace, write the
#: workers' pids to the file named by argv[1], then die without close().
_KILLED_PARENT = """
import os, signal, sys
from repro.service import ShardPool
pool = ShardPool(2)
[future] = pool.submit([("t", sys.argv[2])], model="linux",
                       partition="linux")
future.result(timeout=60)
with open(sys.argv[1], "w") as fh:
    fh.write(" ".join(str(proc.pid) for proc in pool._procs))
os.kill(os.getpid(), signal.SIGKILL)
"""


class TestShardPool:
    def test_workers_exit_when_their_parent_is_killed(self, tmp_path):
        """A parent killed without ``close()`` leaves no worker behind:
        each worker closed the parent's pipe ends it inherited, so the
        parent's death reads as EOF in every shard.  The pids travel in
        a file, not a pipe the workers could hold open."""
        pid_file = tmp_path / "pids"
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        pids = []
        try:
            child = subprocess.run(
                [sys.executable, "-c", _KILLED_PARENT, str(pid_file),
                 print_trace(_traces(1)[0])], env=env, timeout=120,
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            pids = [int(pid) for pid in pid_file.read_text().split()]
            assert child.returncode == -signal.SIGKILL
            assert len(pids) == 2
            deadline = time.monotonic() + 10
            while any(map(_alive, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in pids if _alive(pid)] == []
        finally:
            for pid in pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)

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
        script to make one): the call pulls only its window ahead of the
        first result, and once the consumer closes ``results()``, the
        pull count stays where it was, although the window has room."""
        text = print_trace(_named("t"))
        pulled = []
        with ShardPool(2) as pool:
            window = WINDOW * CHUNK * pool.shards

            def items():
                for i in range(3 * window):
                    pulled.append(i)
                    yield (f"t{i}", text.replace("# Test t\n",
                                                 f"# Test t{i}\n"))

            results = pool.submit_stream(items(), model="all",
                                         partition="all").results()
            index, payload = next(results)
            assert (index, payload[0]) == (0, _serial_rows([_named("t0")])[0])
            assert len(pulled) == window
            results.close()
            assert len(pulled) == window
            # Items already sent finish in the background, and the pool
            # stays usable.
            after = _named("after")
            again = pool.submit([("after", print_trace(after))],
                                model="all", partition="all")
            assert again[0].result(timeout=60)[0] == \
                _serial_rows([after])[0]

    @pytest.mark.parametrize("shards", [0, -2])
    def test_shard_count_below_one_is_rejected(self, shards):
        """A count below one is an error, not one shard under another
        name (``shards=0`` is only the service's parent-only mode)."""
        with pytest.raises(ValueError, match="at least 1"):
            ShardPool(shards)
        if shards < 0:
            with pytest.raises(ValueError, match="at least 1"):
                CheckingService("all", shards=shards)

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
    """``ShardedBackend.run_iter`` fails its call at the item whose
    check raised, or whose shard died, and the same backend then runs
    like the in-process oracle."""

    #: The pool partition ``run_iter`` routes :data:`CONFIG` under.
    PARTITION = f"{CONFIG}:all"

    @staticmethod
    def _rows(backend, scripts):
        return [record.outcome.profiles for record in backend.run_iter(
            config_by_name(CONFIG), "all", scripts)]

    def test_raising_check_fails_run_iter_at_that_item(self,
                                                       monkeypatch):
        """``run_iter`` yields the records before a raising check,
        raises the shard's exception at it, and the same backend then
        runs like the in-process oracle on the same workers."""
        _on_trace(monkeypatch, "overflowing", _raise_overflow)
        scripts = _scripts(4)
        want = _serial_rows(_executed(scripts))
        got = []
        with ShardedBackend(2) as backend:
            stream = backend.run_iter(
                config_by_name(CONFIG), "all",
                scripts[:2] + [_named_script("overflowing")]
                + scripts[2:])
            with pytest.raises(OverflowError) as excinfo:
                for record in stream:
                    got.append(record.outcome.profiles)
            assert any("'overflowing'" in note
                       for note in excinfo.value.__notes__)
            assert got == want[:2]
            after = _after_script(backend._pool, backend._pool.shard_of(
                self.PARTITION, "overflowing"), self.PARTITION)
            assert self._rows(backend, [after, *scripts]) == \
                _serial_rows(_executed([after, *scripts]))
            assert backend.run_stats()["pool_cold_starts"] == 1

    def test_dead_shard_fails_run_iter_at_that_item(self, monkeypatch):
        """``run_iter`` raises at the item a dead shard held, naming
        it; the same backend then runs like the in-process oracle, on a
        fresh worker."""
        _on_trace(monkeypatch, "doomed", _die)
        with ShardedBackend(2) as backend:
            with pytest.raises(RuntimeError, match="died") as excinfo:
                self._rows(backend, [_named_script("doomed"),
                                     *_scripts(4)])
            assert "'doomed'" in str(excinfo.value)
            pool = backend._pool
            later = [_after_script(pool, pool.shard_of(
                self.PARTITION, "doomed"), self.PARTITION),
                *_scripts(3, prefix="u")]
            assert self._rows(backend, later) == \
                _serial_rows(_executed(later))
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
    stream shape, through both submission paths and the checking
    service; a memoized verdict is always what a fresh oracle computes,
    and no coverage call is answered from the memo."""

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
        with CheckingService("all", shards=2) as service:
            for start in range(0, len(traces), 512):
                calls = traces[start:start + 512]
                for trace, future in zip(calls, service.submit(calls)):
                    assert future.result(timeout=120).profiles == \
                        fresh.check(trace).profiles
                assert len(service._pool._verdicts) <= VERDICT_MEMO_MAX


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

    def test_pool_path_routes_text_as_sent(self, tmp_path, monkeypatch):
        """Text inputs go to the shards as sent: the parent neither
        parses nor prints them, the names are the parsed names, the
        store rows hold the texts byte for byte, and sending them again
        adds no row."""
        from repro.service import service as service_mod
        from repro.store import CampaignStore

        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        traces = _traces(4)
        # Not the printer's form: a blank first line, an indented name
        # line and a trailing comment must all survive into the row.
        texts = ["\n" + print_trace(t).replace("# Test", "  # Test")
                 + "# sent as is\n" for t in traces]
        monkeypatch.setattr(service_mod, "parse_trace",
                            counting("parse", service_mod.parse_trace))
        monkeypatch.setattr(service_mod, "print_trace",
                            counting("print", service_mod.print_trace))
        path = tmp_path / "served"
        with CheckingService("all", shards=2,
                             store=str(path)) as service:
            results = [f.result(timeout=120)
                       for f in service.submit(texts)]
            rows = service.stats()["store_rows"]
            [f.result(timeout=120) for f in service.submit(texts)]
            stats = service.stats()
        assert calls == []
        assert [r.name for r in results] == [t.name for t in traces]
        assert [r.profiles for r in results] == _serial_rows(traces)
        assert rows == len(texts) and stats["store_rows"] == rows
        assert stats["store_dedup_hits"] >= len(texts)
        with CampaignStore(path, create=False) as store:
            stored = {r.name: r.trace_text for _c, r in store.records()}
        assert stored == {t.name: text for t, text in zip(traces, texts)}

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

    def test_served_malformed_trace_gets_one_parse_error_reply(self):
        """In pool mode a malformed text is parsed only on its shard: it
        gets one error reply naming ``ParseError``, the connection stays
        up, the next trace gets the serial verdict, and the pool is not
        restarted."""
        trace = _traces(1)[0]
        with _Server(CheckingService("all", shards=2)) as server:
            with ServiceClient(server.address) as client:
                with pytest.raises(RuntimeError,
                                   match="server error: ParseError"):
                    client.check(MANGLED)
                after = client.check(print_trace(trace))
                stats = client.status()["engine_stats"]
        assert _profiles(after) == _serial_rows([trace])[0]
        assert stats["pool_cold_starts"] == 1

    @pytest.mark.parametrize("shards", [0, 2])
    def test_batch_fails_at_its_malformed_trace(self, shards):
        """A ``batch`` is answered in order up to a trace that fails:
        the verdicts before it, then one error reply naming
        ``ParseError``; the connection then serves the next request."""
        traces = _traces(4)
        texts = [print_trace(t) for t in traces]
        replies = []
        with _Server(CheckingService("all", shards=shards)) as server:
            with ServiceClient(server.address) as client:
                with pytest.raises(RuntimeError,
                                   match="server error: ParseError"):
                    for reply in client.iter_batch(
                            [*texts[:2], MANGLED, *texts[2:]]):
                        replies.append(reply)
                after = client.check(texts[3])
        assert [_profiles(v) for v in replies] == _serial_rows(traces[:2])
        assert _profiles(after) == _serial_rows(traces[3:])[0]

    @pytest.mark.parametrize("shards", [0, 2])
    def test_non_string_trace_fields_get_one_error_reply(self, shards):
        """A ``trace`` that is not a string, or ``traces`` that are not
        a list of strings, get one error reply naming the field (and
        the index); nothing is submitted, the connection stays up and
        the next ``check`` gets its verdict."""
        trace = _traces(1)[0]
        text = print_trace(trace)
        bad = [({"op": "check", "trace": 5}, "'trace' must be a string"),
               ({"op": "check", "trace": None}, "'trace' must be a string"),
               ({"op": "check", "trace": ["x"]},
                "'trace' must be a string"),
               ({"op": "batch", "traces": "ab"},
                "'traces' must be a list of strings"),
               ({"op": "batch", "traces": [text, 5]},
                r"'traces'\[1\] must be a string")]
        with _Server(CheckingService("all", shards=shards)) as server:
            with ServiceClient(server.address) as client:
                for request, error in bad:
                    with pytest.raises(RuntimeError, match="server error: "
                                       "TypeError: " + error):
                        client.request(request)
                after = client.check(text)
                stats = client.status()["engine_stats"]
        assert _profiles(after) == _serial_rows([trace])[0]
        assert stats["traces_submitted"] == 1
        if shards:
            assert stats["pool_calls"] == 1

    @pytest.mark.parametrize("vanish", ["close", "reset"])
    @pytest.mark.parametrize("shards", [0, 2])
    def test_client_vanishing_mid_batch(self, shards, vanish, tmp_path,
                                        monkeypatch):
        """A client sends a ``batch`` and vanishes without reading a
        reply: it closes, or resets (``SO_LINGER`` 0).  The vanish comes
        before the batch's last reply, and the server stops answering
        the batch (it sends far fewer replies after the vanish than the
        batch holds); the next connection's ``check`` gets the serial
        verdict, every distinct trace of the abandoned batch is in the
        store once the service drains, and ``shutdown`` still ends the
        server.

        A parent-only server checks the whole batch inside ``submit``
        and answers the client's ``status`` poll only when a reply's
        ``drain()`` waits, so the replies must outgrow the socket
        buffers: the batch holds the handwritten suite 200 times (about
        7 MB of replies) and the vanishing client's receive buffer is
        small."""
        from helpers_parity import handwritten_traces
        from repro.store import CampaignStore

        suite = handwritten_traces(CONFIG)
        texts = [print_trace(t) for t in suite] * 200
        trace = _traces(1)[0]
        path = tmp_path / "served"
        sent = []   # one entry per reply to the abandoned batch
        send = ServiceServer._send

        async def counting_send(writer, payload):
            if payload.get("id") == 1:
                sent.append(payload["op"])
            await send(writer, payload)
        monkeypatch.setattr(ServiceServer, "_send",
                            staticmethod(counting_send))
        service = CheckingService("all", shards=shards, store=str(path))
        # Fork the shards before the connection that vanishes is
        # opened: a shard forked after it would inherit its socket, and
        # closing the socket here would then not end the connection.
        service.start()
        with _Server(service) as server:
            host, port = server.address.rsplit(":", 1)
            gone = socket.socket()
            gone.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            gone.settimeout(30)
            gone.connect((host, int(port)))
            gone.sendall(json.dumps({"op": "batch", "id": 1,
                                     "traces": texts}).encode() + b"\n")
            with ServiceClient(server.address) as client:
                # Vanish only once the whole line is read and submitted,
                # while the server is still answering it.
                deadline = time.monotonic() + 120
                while (client.status()["engine_stats"]
                       ["traces_submitted"] < len(texts)):
                    assert time.monotonic() < deadline, "batch never read"
                    time.sleep(0.01)
                if vanish == "reset":
                    gone.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                    struct.pack("ii", 1, 0))
                before = len(sent)
                gone.close()
                after = client.check(print_trace(trace))
                assert service.drain(timeout=120)
                stats = client.status()["engine_stats"]
        assert not server.thread.is_alive()
        assert before < len(texts), (before, len(sent))
        assert len(sent) - before < len(texts) // 10, (before, len(sent))
        assert _profiles(after) == _serial_rows([trace])[0]
        assert stats["traces_submitted"] == len(texts) + 1
        with CampaignStore(path, create=False) as store:
            names = {row.name for _c, row in store.records()}
        assert names == {t.name for t in suite} | {trace.name}

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
