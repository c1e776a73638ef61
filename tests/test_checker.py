"""Tests for the trace checker (the oracle itself)."""

import pytest

from repro.checker import TraceChecker, check_trace, render_checked_trace
from repro.core.platform import LINUX_SPEC, OSX_SPEC, POSIX_SPEC
from repro.script import parse_trace

HEADER = "@type trace\n# Test t\n@process create p1 uid=0 gid=0\n"


def check(body, spec=POSIX_SPEC):
    return check_trace(spec, parse_trace(HEADER + body))


class TestAcceptance:
    def test_empty_trace_accepted(self):
        assert check("").accepted

    def test_simple_success_trace(self):
        checked = check('1: mkdir "a" 0o755\nRV_none\n'
                        '2: stat "a"\n'
                        'RV_stat({kind=S_IFDIR; size=0; nlink=2; uid=0; '
                        'gid=0; mode=0o755})\n')
        assert checked.accepted

    def test_allowed_error_accepted(self):
        checked = check('1: rmdir "missing"\nENOENT\n')
        assert checked.accepted

    def test_disallowed_error_rejected(self):
        checked = check('1: rmdir "missing"\nEPERM\n')
        assert not checked.accepted
        (dev,) = checked.deviations
        assert dev.kind == "return-mismatch"
        assert dev.observed == "EPERM"
        assert "ENOENT" in dev.allowed

    def test_fig4_diagnostic(self):
        body = ('1: mkdir "emptydir" 0o777\nRV_none\n'
                '2: mkdir "nonemptydir" 0o777\nRV_none\n'
                '3: open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666\n'
                'RV_num(3)\n'
                '4: rename "emptydir" "nonemptydir"\nEPERM\n')
        checked = check(body)
        (dev,) = checked.deviations
        assert dev.allowed == ("EEXIST", "ENOTEMPTY")
        rendered = render_checked_trace(checked)
        assert "# allowed are only: EEXIST, ENOTEMPTY" in rendered
        assert "# continuing with EEXIST, ENOTEMPTY" in rendered

    def test_platform_sensitivity(self):
        # unlink of a directory: EISDIR passes the Linux model, fails
        # the OS X model (and vice versa for EPERM) — contribution 2.
        body = ('1: mkdir "a" 0o755\nRV_none\n2: unlink "a"\nEISDIR\n')
        assert check(body, LINUX_SPEC).accepted
        assert not check(body, OSX_SPEC).accepted
        body_eperm = body.replace("EISDIR", "EPERM")
        assert check(body_eperm, OSX_SPEC).accepted
        assert not check(body_eperm, LINUX_SPEC).accepted
        # POSIX admits both.
        assert check(body, POSIX_SPEC).accepted
        assert check(body_eperm, POSIX_SPEC).accepted


class TestContinuation:
    def test_checking_continues_after_failure(self):
        # Paper: "it is important that the checker try to continue even
        # when an individual step fails".
        body = ('1: mkdir "a" 0o755\nEPERM\n'  # deviation
                # Checking continues as if the allowed return (RV_none)
                # had occurred, so the directory now exists:
                '2: mkdir "a" 0o755\nEEXIST\n'
                '3: stat "a"\n'
                'RV_stat({kind=S_IFDIR; size=0; nlink=2; uid=0; gid=0; '
                'mode=0o755})\n')
        checked = check(body)
        assert len(checked.deviations) == 1

    def test_multiple_deviations_all_reported(self):
        body = ('1: rmdir "m1"\nEPERM\n'
                '2: rmdir "m2"\nEPERM\n')
        checked = check(body)
        assert len(checked.deviations) == 2

    def test_signal_is_deviation(self):
        checked = check("p1: !signal SIGXFSZ\n")
        (dev,) = checked.deviations
        assert dev.kind == "signal"

    def test_spin_is_deviation(self):
        checked = check("p1: !spin\n")
        (dev,) = checked.deviations
        assert dev.kind == "spin"


class TestSpecialStates:
    def test_special_accepts_anything(self):
        # open O_CREAT|O_DIRECTORY on a missing name is unspecified: the
        # model places no further constraints, whatever comes back.
        body = ('1: open "x" [O_RDONLY;O_CREAT;O_DIRECTORY] 0o644\n'
                'RV_num(3)\n2: rmdir "whatever"\nEPERM\n')
        assert check(body).accepted


class TestStateTracking:
    def test_nondeterministic_read_resolved_by_label(self):
        # Possible-next-state enumeration (paper section 3): a short
        # read is allowed, and the label pins the actual count.
        body = ('1: open "f" [O_CREAT;O_RDWR] 0o644\nRV_num(3)\n'
                '2: write 3 "abcde"\nRV_num(5)\n'
                '3: lseek 3 0 SEEK_SET\nRV_num(0)\n'
                '4: read 3 5\nRV_bytes(\'ab\')\n'
                '5: read 3 5\nRV_bytes(\'cde\')\n')
        assert check(body).accepted

    def test_readdir_order_free(self):
        base = ('1: mkdir "a" 0o755\nRV_none\n'
                '2: open "a/x" [O_CREAT;O_WRONLY] 0o644\nRV_num(3)\n'
                '3: open "a/y" [O_CREAT;O_WRONLY] 0o644\nRV_num(4)\n'
                '4: opendir "a"\nRV_num(1)\n')
        for order in (("x", "y"), ("y", "x")):
            body = base + (
                f"5: readdir 1\nRV_entry('{order[0]}')\n"
                f"6: readdir 1\nRV_entry('{order[1]}')\n"
                "7: readdir 1\nRV_end_of_dir\n")
            assert check(body).accepted, order

    def test_readdir_repeat_rejected(self):
        body = ('1: mkdir "a" 0o755\nRV_none\n'
                '2: open "a/x" [O_CREAT;O_WRONLY] 0o644\nRV_num(3)\n'
                '3: opendir "a"\nRV_num(1)\n'
                "4: readdir 1\nRV_entry('x')\n"
                "5: readdir 1\nRV_entry('x')\n")
        assert not check(body).accepted

    def test_premature_end_rejected(self):
        body = ('1: mkdir "a" 0o755\nRV_none\n'
                '2: open "a/x" [O_CREAT;O_WRONLY] 0o644\nRV_num(3)\n'
                '3: opendir "a"\nRV_num(1)\n'
                "4: readdir 1\nRV_end_of_dir\n")
        assert not check(body).accepted

    def test_max_state_set_tracked(self):
        body = ('1: open "f" [O_CREAT;O_RDWR] 0o644\nRV_num(3)\n'
                '2: write 3 "abcdefgh"\nRV_num(8)\n')
        checked = check(body)
        # Partial-write enumeration: at least 8 simultaneous states.
        assert checked.max_state_set >= 8

    def test_max_state_set_tracked_at_every_step(self):
        # The peak is tracked at every label application, not only at
        # RETURN tau-closures: a deviating return keeps the whole
        # recovery set, and the labels that follow must see it in the
        # reported peak even if no further return closes the trace.
        body = ('1: open "f" [O_CREAT;O_RDWR] 0o644\nRV_num(3)\n'
                '2: write 3 "abcdefgh"\nEPERM\n'       # deviation
                '3: p2: mkdir "z" 0o755\n')            # trailing CALL
        from repro.checker import TraceChecker
        from repro.core.platform import POSIX_SPEC
        from repro.script import parse_trace
        trace = parse_trace(HEADER + body)
        interned = TraceChecker(POSIX_SPEC).check(trace)
        baseline = TraceChecker(POSIX_SPEC, intern=False).check(trace)
        assert interned == baseline
        assert interned.max_state_set >= 8


class TestMultiProcess:
    def test_interleaved_processes(self):
        body = ('@process create p2 uid=0 gid=0\n'
                '1: mkdir "a" 0o755\nRV_none\n'
                '2: p2: mkdir "b" 0o755\np2: RV_none\n'
                '3: rmdir "b"\nRV_none\n')
        assert check(body).accepted

    def test_unknown_pid_gets_implicit_create(self):
        # Processes a trace uses without an explicit @process create
        # line are created implicitly with the checker's default ids
        # (the paper's root-privileges checking flag).
        checked = check('1: p9: mkdir "a" 0o755\nRV_none\n')
        assert checked.accepted

    def test_duplicate_create_is_structural_deviation(self):
        checked = check("@process create p1 uid=0 gid=0\n"
                        '1: mkdir "a" 0o755\nRV_none\n')
        # p1 was already created by the harness header in this test's
        # HEADER constant; the second create is not allowed.
        assert not checked.accepted
        assert checked.deviations[0].kind == "structural"

    @pytest.mark.parametrize("text", [
        # second call while one is in flight
        '@type trace\n# Test two_calls\n1: mkdir "d" 0o755\n'
        '1: mkdir "e" 0o755\nRV_none\n',
        # destroy of a never-created process
        '@type trace\n# Test destroy_unknown\n@process destroy p7\n',
        # destroy with a call still pending
        '@type trace\n# Test destroy_pending\n'
        '1: mkdir "d" 0o755\n@process destroy p1\n',
        # duplicate create
        '@type trace\n# Test dup_create\n'
        '@process create p1 uid=0 gid=0\n'
        '@process create p1 uid=0 gid=0\n',
    ], ids=["two_calls", "destroy_unknown", "destroy_pending",
            "dup_create"])
    def test_structurally_invalid_traces_are_rejected(self, text):
        trace = parse_trace(text)
        for intern in (True, False):
            checked = TraceChecker(LINUX_SPEC, intern=intern).check(trace)
            assert not checked.accepted, (trace.name, intern)
            assert checked.deviations[0].kind == "structural", \
                (trace.name, intern)

    def test_default_uid_flag(self):
        from repro.checker import TraceChecker
        from repro.core.platform import POSIX_SPEC
        from repro.script import parse_trace
        # As an unprivileged default user, creating in the root-owned
        # 0o755 root directory must fail with EACCES.
        trace = parse_trace('@type trace\n# Test t\n'
                            '1: mkdir "a" 0o755\nEACCES\n')
        unpriv = TraceChecker(POSIX_SPEC, default_uid=1000,
                              default_gid=1000)
        assert unpriv.check(trace).accepted
        root = TraceChecker(POSIX_SPEC)
        assert not root.check(trace).accepted

    def test_permissions_across_processes(self):
        body = ('@process create p2 uid=1000 gid=1000\n'
                '1: mkdir "locked" 0o700\nRV_none\n'
                '2: p2: mkdir "locked/sub" 0o755\np2: EACCES\n')
        assert check(body).accepted
