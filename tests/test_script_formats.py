"""Tests for the script/trace parser and printer (paper Figs. 2-4)."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import commands as C
from repro.core.errors import Errno
from repro.core.flags import OpenFlag, SeekWhence
from repro.core.labels import (OsCall, OsCreate, OsReturn, OsSignal,
                               OsSpin)
from repro.core.values import Err, Ok, RvBytes, RvDirEntry, RvNone, RvNum
from repro.executor import ScriptExecutor, execute_script
from repro.fsimpl import ALL_CONFIGS, config_by_name
from repro.gen import RandomizedStrategy, default_plan
from repro.script import (ParseError, parse_command, parse_return,
                          parse_script, parse_trace, print_script,
                          print_trace)
from repro.script.ast import CreateEvent, Script, ScriptStep, Trace, \
    TraceEvent
from repro.script.parser import (LINE_MEMO_MAX, parse_script_line,
                                 parse_trace_event, trace_name)

FIG2 = '''
@type script
# Test rename___rename_emptydir___nonemptydir
mkdir "emptydir" 0o777
mkdir "nonemptydir" 0o777
open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666
rename "emptydir" "nonemptydir"
'''

FIG3 = '''
@type trace
# Test rename___rename_emptydir___nonemptydir
3: mkdir "emptydir" 0o777
RV_none
6: rename "emptydir" "nonemptydir"
EPERM
'''


class TestScriptParsing:
    def test_fig2_parses(self):
        script = parse_script(FIG2)
        assert script.name == "rename___rename_emptydir___nonemptydir"
        assert script.call_count() == 4
        assert script.target_function == "rename"

    def test_commands_parsed_exactly(self):
        script = parse_script(FIG2)
        cmds = [item.cmd for item in script.items]
        assert cmds[0] == C.Mkdir("emptydir", 0o777)
        assert cmds[2] == C.Open(
            "nonemptydir/f", OpenFlag.O_CREAT | OpenFlag.O_WRONLY,
            0o666)
        assert cmds[3] == C.Rename("emptydir", "nonemptydir")

    def test_pid_prefix(self):
        script = parse_script('@type script\np2: mkdir "a" 0o755\n')
        (step,) = script.items
        assert step.pid == 2

    def test_process_directives(self):
        script = parse_script(
            "@type script\n@process create p2 uid=1000 gid=100\n"
            "@process destroy p2\n")
        assert script.items[0] == CreateEvent(2, 1000, 100)

    def test_missing_header_raises(self):
        with pytest.raises(ParseError):
            parse_script('mkdir "a" 0o755\n')

    def test_wrong_header_raises(self):
        with pytest.raises(ParseError):
            parse_script("@type trace\n")

    def test_bad_arity_raises(self):
        with pytest.raises(ParseError):
            parse_script('@type script\nmkdir "a"\n')

    def test_unknown_command_raises(self):
        with pytest.raises(ParseError):
            parse_script('@type script\nfrobnicate "a"\n')

    def test_roundtrip(self):
        script = parse_script(FIG2)
        assert parse_script(print_script(script)) == script


class TestReturnParsing:
    @pytest.mark.parametrize("text,expected", [
        ("RV_none", Ok(RvNone())),
        ("RV_num(42)", Ok(RvNum(42))),
        ("RV_num(-1)", Ok(RvNum(-1))),
        ("RV_bytes('hi')", Ok(RvBytes(b"hi"))),
        ("RV_entry('name')", Ok(RvDirEntry("name"))),
        ("RV_end_of_dir", Ok(RvDirEntry(None))),
        ("EPERM", Err(Errno.EPERM)),
        ("ENOENT", Err(Errno.ENOENT)),
    ])
    def test_parse(self, text, expected):
        assert parse_return(text) == expected

    def test_parse_stat(self):
        ret = parse_return(
            "RV_stat({kind=S_IFREG; size=7; nlink=2; uid=0; gid=0; "
            "mode=0o644})")
        stat = ret.value.stat
        assert stat.size == 7 and stat.nlink == 2 and stat.mode == 0o644

    def test_parse_stat_nlink_dash(self):
        ret = parse_return(
            "RV_stat({kind=S_IFDIR; size=0; nlink=-; uid=0; gid=0; "
            "mode=0o755})")
        assert ret.value.stat.nlink is None

    def test_garbage_raises(self):
        with pytest.raises(ParseError):
            parse_return("RV_whatever")


class TestTraceParsing:
    def test_fig3_parses(self):
        trace = parse_trace(FIG3)
        labels = trace.labels()
        assert labels[0] == OsCall(1, C.Mkdir("emptydir", 0o777))
        assert labels[1] == OsReturn(1, Ok(RvNone()))
        assert labels[3] == OsReturn(1, Err(Errno.EPERM))

    def test_signal_and_spin(self):
        trace = parse_trace(
            "@type trace\np1: !signal SIGXFSZ\np2: !spin\n")
        assert trace.labels() == [OsSignal(1, "SIGXFSZ"), OsSpin(2)]

    def test_return_inherits_call_pid(self):
        trace = parse_trace(
            '@type trace\n1: p2: mkdir "a" 0o755\nRV_none\n')
        assert trace.labels()[1] == OsReturn(2, Ok(RvNone()))
        # One RV_none line returns a p1 call, then a p2 call: the memo
        # keys each line on its pending pid, so neither return takes
        # the other's.  Cold, then memo hot.
        text = ('@type trace\n1: mkdir "a" 0o755\nRV_none\n'
                '3: p2: mkdir "b" 0o755\nRV_none\n')
        parse_trace_event.cache_clear()
        for hits in (0, 4):
            labels = parse_trace(text).labels()
            assert parse_trace_event.cache_info().hits == hits
            assert labels[1] == OsReturn(1, Ok(RvNone()))
            assert labels[3] == OsReturn(2, Ok(RvNone()))

    def test_roundtrip(self):
        trace = parse_trace(FIG3)
        assert parse_trace(print_trace(trace)).labels() == \
            trace.labels()


_STAT = "RV_stat({kind=%s; size=0; nlink=1; uid=0; gid=0; mode=0o644})"


@pytest.mark.parametrize("parse,text,line_no", [
    (parse_script, 'mkdir "a" 0o755\n', None),
    (parse_script, "@type trace\n", 1),
    (parse_script, '@type script\nmkdir "a"\n', 2),
    (parse_script, '@type script\nfrobnicate "a"\n', 2),
    (parse_script, '@type script\n# Test t\n\nmkdir "a" 0o7z9\n', 4),
    (parse_script, '@type script\nopen "f" [O_BOGUS]\n', 2),
    (parse_script, '@type script\nopen "f" [O_RDONLY] 0o644 1\n', 2),
    (parse_script, '@type script\nlseek 3 0 SEEK_NOWHERE\n', 2),
    (parse_script, '@type script\nrmdir a\n', 2),
    (parse_script, '@type script\nrmdir "a\n', 2),
    (parse_trace, '@type trace\n1: mkdir "a" 0o755\nRV_whatever\n', 3),
    (parse_trace, '@type trace\n1: stat "f"\n' + _STAT % "S_BOGUS", 3),
    (parse_trace, "@type trace\n1: read 3 1\nRV_bytes('a)\n", 3),
    (parse_trace, "@type trace\n1: read 3 1\nRV_num(x)\n", 3),
    (parse_trace, '@type trace\n7: frobnicate "a"\n', 2),
], ids=["no-header", "wrong-header", "arity", "unknown-command",
        "integer", "open-flag", "open-arity", "whence", "unquoted",
        "untokenizable", "return-value", "file-kind", "string-literal",
        "rv-num", "trace-command"])
def test_malformed_input_raises_parse_error_naming_the_line(
        parse, text, line_no):
    # Twice: a failure the line memo kept would show on the second.
    for _ in range(2):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert type(info.value) is ParseError
        assert info.value.line_no == line_no


# -- the line memos: bounded, and never change a parse ------------------------

def _novel_script_line(i: int) -> tuple:
    return (f'p{i % 3 + 1}: mkdir "d{i}" 0o755',)


def _novel_trace_event(i: int) -> tuple:
    """``parse_trace_event``'s arguments for a call or a return, each
    new in its line or its context."""
    if i % 2:
        return (f'{i}: mkdir "d" 0o755', i - 1, None)
    return ("RV_num(7)", i, i % 5 + 1)


@pytest.mark.parametrize("memo,novel", [
    (parse_script_line, _novel_script_line),
    (parse_trace_event, _novel_trace_event),
], ids=["script", "trace"])
@pytest.mark.parametrize("stream", ["all-novel", "all-repeat",
                                    "alternating"])
def test_line_memo_is_bounded_and_exact(memo, novel, stream):
    count = LINE_MEMO_MAX + 512
    hot = novel(count)
    calls = {"all-novel": (novel(i) for i in range(count)),
             "all-repeat": (hot for _ in range(count)),
             "alternating": (args for i in range(count)
                             for args in (novel(i), hot))}[stream]
    memo.cache_clear()
    for args in calls:
        assert memo(*args) == memo.__wrapped__(*args)
        assert memo.cache_info().currsize <= LINE_MEMO_MAX
    assert memo.cache_info().currsize == (
        1 if stream == "all-repeat" else LINE_MEMO_MAX)


# -- the round-trip contract at plan scale ------------------------------------

def test_round_trip_at_plan_scale():
    """Every 50th default-plan script and 50 randomized scripts, on all
    43 configurations: print and parse are inverse both ways, for the
    scripts and for their traces.  (``benchmarks/smoke_roundtrip.py``
    checks the whole plan and 300 randomized scripts in CI.)"""
    scripts = list(default_plan().scripts())[::50] + list(
        RandomizedStrategy(count=50, seed=0, length=25,
                           multi_process=True).scripts())
    for script in scripts:
        text = print_script(script)
        assert parse_script(text) == script, script.name
        assert print_script(parse_script(text)) == text, script.name
    for quirks in ALL_CONFIGS:
        executor = ScriptExecutor()
        for script in scripts:
            trace = executor.execute(quirks, script)
            text = print_trace(trace)
            where = f"{trace.name} on {quirks.name}"
            assert parse_trace(text) == trace, where
            assert print_trace(parse_trace(text)) == text, where
            assert trace_name(text) == parse_trace(text).name, where


_BODY = "3: mkdir \"d\" 0o777\nRV_none\n"


@pytest.mark.parametrize("text", [
    "@type trace\n" + _BODY,                                # unnamed
    "@type trace\n# Test first\n# Test second\n" + _BODY,  # first wins
    "@type trace\n" + _BODY + "# Test after_events\n",
    "@type trace\n   # Test  indented \n" + _BODY,
    "@type trace\n## Test hashes\n#Test\n" + _BODY,
    "# Test before_header\r\n@type trace\r\n" + _BODY,
    "@type trace\n# Testing\n# Test late\n" + _BODY,
])
def test_trace_name_is_the_parsed_name(text):
    """``trace_name`` reads the name without parsing the events, and
    agrees with the parser on every way a ``# Test`` line can sit."""
    assert trace_name(text) == parse_trace(text).name


# -- shared events: printed once, and exactly as if printed fresh -----------

_SHARED_PREFIX = ('mkdir "d" 0o755\n'
                  'open "d/f" [O_CREAT;O_WRONLY] 0o644\n'
                  'p2: write 3 "hi"\n')
_SCRIPTS = [parse_script(f"@type script\n# Test {name}\n"
                         + _SHARED_PREFIX + tail)
            for name, tail in (("left", 'write 3 "ab"\nclose 3\n'),
                               ("right", 'stat "d/f"\nrename "d" "e"\n'))]


def _fresh(trace: Trace) -> Trace:
    """``trace`` over new event objects, none of them printed yet."""
    return Trace(trace.name, tuple(TraceEvent(event.line_no, event.label)
                                   for event in trace.events))


def _shared_events(a: Trace, b: Trace) -> int:
    """How many leading events ``a`` and ``b`` share as objects."""
    shared = 0
    for left, right in zip(a.events, b.events):
        if left is not right:
            break
        shared += 1
    return shared


def test_print_is_the_same_cold_and_warm_on_executor_traces():
    """Traces of one executor share their prefix's events; printing
    them, in either order and again, gives the text of the same traces
    printed from events never printed before."""
    quirks = config_by_name("linux_ext4")
    executor = ScriptExecutor()
    traces = [executor.execute(quirks, script) for script in _SCRIPTS]
    assert _shared_events(*traces) >= 6
    cold = [print_trace(_fresh(trace)) for trace in traces]
    for _ in range(2):
        for trace, text in zip(reversed(traces), reversed(cold)):
            assert print_trace(trace) == text
    for script, text in zip(_SCRIPTS, cold):
        assert print_trace(execute_script(quirks, script)) == text
        assert print_trace(parse_trace(text)) == text


def test_print_is_the_same_cold_and_warm_on_parsed_traces():
    """Parsed traces share the events of their common lines (one memo
    entry per line in context); printing them gives back each text."""
    quirks = config_by_name("linux_ext4")
    texts = [print_trace(execute_script(quirks, script))
             for script in _SCRIPTS]
    parse_trace_event.cache_clear()
    for _ in range(2):
        traces = [parse_trace(text) for text in texts]
        assert _shared_events(*traces) >= 6
        for trace, text in zip(traces, texts):
            assert print_trace(trace) == text
            assert print_trace(_fresh(trace)) == text


def test_print_survives_a_pickle_round_trip():
    """A trace pickled after printing (its events carry their lines)
    or before prints the same text, and compares equal."""
    quirks = config_by_name("linux_ext4")
    trace = ScriptExecutor().execute(quirks, _SCRIPTS[1])
    text = print_trace(_fresh(trace))
    before = pickle.loads(pickle.dumps(trace))
    print_trace(trace)
    after = pickle.loads(pickle.dumps(trace))
    for copy in (before, after):
        assert copy == trace
        assert print_trace(copy) == text


def test_event_line_leaves_eq_hash_and_repr_alone():
    trace = parse_trace(FIG3)
    for event in _fresh(trace).events:
        before = (repr(event), hash(event))
        assert event.line
        assert (repr(event), hash(event)) == before
        assert event == TraceEvent(event.line_no, event.label)


# -- property tests: parse . print == id over generated commands ----------

_paths = st.text(
    alphabet=st.sampled_from("abcd/._-"), min_size=1, max_size=12)
_small = st.integers(0, 100)
_mode = st.integers(0, 0o777)
_data = st.text(alphabet=st.sampled_from("abcXYZ 123"), max_size=8) \
    .map(lambda s: s.encode())

#: Trace return values additionally carry NUL, newline, quotes and
#: backslash — reads of sparse files return NUL-padded data — and the
#: trace printer emits repr-style escapes the parser must invert.
#: (Script *command* payloads stay printable: the line-oriented script
#: format does not escape newlines, and the generator never emits
#: non-printable script data.)
_trace_data = st.text(alphabet=st.sampled_from("abcXYZ 123\x00\n\t'\"\\"),
                      max_size=8) \
    .map(lambda s: s.encode())

_commands = st.one_of(
    st.builds(C.Mkdir, _paths, _mode),
    st.builds(C.Rmdir, _paths),
    st.builds(C.Unlink, _paths),
    st.builds(C.StatCmd, _paths),
    st.builds(C.LstatCmd, _paths),
    st.builds(C.Rename, _paths, _paths),
    st.builds(C.Link, _paths, _paths),
    st.builds(C.Symlink, _paths, _paths),
    st.builds(C.Readlink, _paths),
    st.builds(C.Truncate, _paths, st.integers(-5, 100)),
    st.builds(C.Chmod, _paths, _mode),
    st.builds(C.Chown, _paths, _small, _small),
    st.builds(C.Chdir, _paths),
    st.builds(C.Umask, st.integers(0, 0o777)),
    st.builds(C.Close, _small),
    st.builds(C.Read, _small, st.integers(-5, 100)),
    st.builds(C.Write, _small, _data),
    st.builds(C.Pread, _small, _small, st.integers(-5, 100)),
    st.builds(C.Pwrite, _small, _data, st.integers(-5, 100)),
    st.builds(C.Lseek, _small, st.integers(-100, 100),
              st.sampled_from(list(SeekWhence))),
    st.builds(C.Opendir, _paths),
    st.builds(C.Readdir, _small),
    st.builds(C.Rewinddir, _small),
    st.builds(C.Closedir, _small),
)


@given(_commands)
def test_command_roundtrip(cmd):
    assert parse_command(cmd.render()) == cmd


@given(st.lists(_commands, min_size=1, max_size=6),
       st.integers(1, 3))
def test_script_roundtrip(cmds, pid):
    script = Script(name="generated", items=tuple(
        ScriptStep(pid=pid, cmd=cmd) for cmd in cmds))
    assert parse_script(print_script(script)) == script


_returns = st.one_of(
    st.just(Ok(RvNone())),
    st.builds(lambda n: Ok(RvNum(n)), st.integers(-10, 1000)),
    st.builds(lambda b: Ok(RvBytes(b)), _trace_data),
    st.builds(lambda e: Err(e), st.sampled_from(list(Errno))),
    st.just(Ok(RvDirEntry(None))),
    st.builds(lambda s: Ok(RvDirEntry(s)),
              st.text(alphabet=st.sampled_from("abc"), min_size=1,
                      max_size=5)),
)


@given(_returns)
def test_return_roundtrip(ret):
    assert parse_return(ret.render()) == ret
