"""Tests for the analysis tools: debugger, portability, reduction, HTML."""

import dataclasses

from repro.checker import TraceChecker, check_trace
from repro.core.platform import LINUX_SPEC, OSX_SPEC, POSIX_SPEC
from repro.executor import execute_script
from repro.fsimpl import config_by_name
from repro.harness import (debug_trace, is_one_minimal,
                           portability_report, reduce_script,
                           render_debug, render_html_report)
from repro.oracle import get_oracle
from repro.script import parse_script, parse_trace

GOOD_TRACE = """\
@type trace
# Test good
1: mkdir "a" 0o755
RV_none
2: rmdir "a"
RV_none
"""

LINUX_ONLY_TRACE = """\
@type trace
# Test linux_only
1: mkdir "a" 0o755
RV_none
2: unlink "a"
EISDIR
"""

BAD_TRACE = """\
@type trace
# Test bad
1: mkdir "a" 0o755
EPERM
"""


class TestDebugTool:
    def test_debug_conformant_trace(self):
        steps = debug_trace(POSIX_SPEC, parse_trace(GOOD_TRACE))
        assert all(step.matched for step in steps)
        assert steps[0].states_after >= 1

    def test_debug_shows_pending_returns(self):
        steps = debug_trace(POSIX_SPEC, parse_trace(GOOD_TRACE))
        return_steps = [s for s in steps if s.pending_returns]
        assert return_steps
        assert "RV_none" in return_steps[0].pending_returns

    def test_debug_stops_at_stuck_step(self):
        steps = debug_trace(POSIX_SPEC, parse_trace(BAD_TRACE))
        assert not steps[-1].matched
        assert steps[-1].states_after == 0

    def test_debug_state_summaries(self):
        steps = debug_trace(POSIX_SPEC, parse_trace(GOOD_TRACE))
        assert any("p1[" in summary
                   for step in steps
                   for summary in step.state_summaries)

    def test_render_debug(self):
        text = render_debug(debug_trace(POSIX_SPEC,
                                        parse_trace(BAD_TRACE)))
        assert "STUCK" in text
        assert "|S|" in text


def portability_of(text):
    return portability_report(get_oracle("all").check(parse_trace(text)))


class TestPortability:
    def test_portable_trace(self):
        report = portability_of(GOOD_TRACE)
        assert report.portable
        assert set(report.accepted_on) == {"posix", "linux", "osx",
                                           "freebsd"}

    def test_linux_only_trace(self):
        # The §7.3.2 unlink-directory difference: an application relying
        # on EISDIR is not portable to OS X / FreeBSD.
        report = portability_of(LINUX_ONLY_TRACE)
        assert not report.portable
        assert "linux" in report.accepted_on
        assert "posix" in report.accepted_on  # the loose envelope
        assert "osx" in report.rejected_on
        assert any("EPERM" in msg
                   for msg in report.rejected_on["osx"])

    def test_render(self):
        report = portability_of(LINUX_ONLY_TRACE)
        text = report.render()
        assert "rejected on osx" in text


class TestReduction:
    NOISY_SCRIPT = """\
@type script
# Test noisy
mkdir "unrelated1" 0o755
open "unrelated2" [O_CREAT;O_WRONLY] 0o644
close 3
mkdir "emptydir" 0o777
mkdir "nonemptydir" 0o777
open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666
close 4
symlink "unrelated3" "u3"
rename "emptydir" "nonemptydir"
"""

    def test_reduces_to_minimal_failing_script(self):
        script = parse_script(self.NOISY_SCRIPT)
        # Use a config whose only deviation is the Fig. 4 rename EPERM
        # so the reducer must keep the rename core.
        quirks = dataclasses.replace(
            config_by_name("linux_ext4"), name="sshfs_rename_only",
            rename_nonempty_eperm=True)
        reduced = reduce_script(quirks, script)
        assert len(reduced.items) < len(script.items)
        assert is_one_minimal(quirks, reduced)
        # The essential core survives: both mkdirs, the open making the
        # destination non-empty, and the rename itself.
        rendered = [item.cmd.render() for item in reduced.items]
        assert any(r.startswith("rename") for r in rendered)
        assert any("nonemptydir/f" in r for r in rendered)

    def test_non_failing_script_returned_unchanged(self):
        script = parse_script(self.NOISY_SCRIPT)
        reduced = reduce_script("linux_ext4", script)
        assert reduced.items == script.items

    def test_reduced_script_still_fails(self):
        script = parse_script(self.NOISY_SCRIPT)
        quirks = dataclasses.replace(
            config_by_name("linux_ext4"), name="sshfs_rename_only",
            rename_nonempty_eperm=True)
        reduced = reduce_script(quirks, script)
        trace = execute_script(quirks, reduced)
        assert not check_trace(LINUX_SPEC, trace).accepted


class TestHtmlReport:
    def _checked(self):
        checker = TraceChecker(POSIX_SPEC)
        return [checker.check(parse_trace(GOOD_TRACE)),
                checker.check(parse_trace(BAD_TRACE))]

    def test_report_structure(self):
        html_text = render_html_report("demo run", self._checked())
        assert html_text.startswith("<!DOCTYPE html>")
        assert "demo run" in html_text
        assert "1 accepted" in html_text
        assert "1 \nfailing" in html_text or "failing" in html_text

    def test_deviations_highlighted(self):
        html_text = render_html_report("demo", self._checked())
        assert "<span class='err'>" in html_text

    def test_escaping(self):
        # Trace names and contents are HTML-escaped.
        trace = parse_trace('@type trace\n# Test x<script>\n'
                            '1: mkdir "a" 0o755\nRV_none\n')
        html_text = render_html_report(
            "t", [TraceChecker(POSIX_SPEC).check(trace)])
        assert "x<script>" not in html_text
        assert "x&lt;script&gt;" in html_text
