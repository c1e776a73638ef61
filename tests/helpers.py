"""Shared fixtures/helpers for the specification tests."""

from __future__ import annotations

import dataclasses
from typing import List

from repro.core.combinators import Outcomes
from repro.core.errors import Errno
from repro.core.flags import FileKind
from repro.core.platform import POSIX_SPEC, PlatformSpec
from repro.core.values import Err, Ok
from repro.fsops.common import FsEnv
from repro.pathres.resname import Follow
from repro.pathres.resolve import PermEnv, resolve
from repro.script.ast import Script
from repro.state.heap import FsState, empty_fs
from repro.state.meta import Meta
from repro.testgen.generator import (gen_fd_tests, gen_handle_tests,
                                     gen_handwritten_tests,
                                     gen_one_path_tests, gen_open_tests,
                                     gen_permission_tests,
                                     gen_two_path_tests)

META = Meta(mode=0o755, uid=0, gid=0)
FMETA = Meta(mode=0o644, uid=0, gid=0)


def build_fs():
    """The standard little world used by the fsops tests:

    d/ { f ("content"), ed/, ne/{inner} },
    sd -> d, sf -> d/f, dang -> nowhere, root also has file "top".
    """
    fs = empty_fs()
    fs, d = fs.create_dir(fs.root, "d", META)
    fs, f = fs.create_file(d, "f", FMETA, content=b"content")
    fs, ed = fs.create_dir(d, "ed", META)
    fs, ne = fs.create_dir(d, "ne", META)
    fs, inner = fs.create_file(ne, "inner", FMETA)
    fs, top = fs.create_file(fs.root, "top", FMETA, content=b"top")
    fs, sd = fs.create_file(fs.root, "sd", FMETA,
                            kind=FileKind.SYMLINK, content=b"d")
    fs, sf = fs.create_file(fs.root, "sf", FMETA,
                            kind=FileKind.SYMLINK, content=b"d/f")
    fs, dang = fs.create_file(fs.root, "dang", FMETA,
                              kind=FileKind.SYMLINK, content=b"nowhere")
    refs = dict(d=d, f=f, ed=ed, ne=ne, inner=inner, top=top, sd=sd,
                sf=sf, dang=dang)
    return fs, refs


def env_for(spec: PlatformSpec = POSIX_SPEC, uid: int = 0, gid: int = 0,
            umask: int = 0o022) -> FsEnv:
    return FsEnv(spec=spec,
                 perm=PermEnv(uid=uid, gid=gid,
                              enabled=spec.permissions_enabled),
                 umask=umask)


def rn(env: FsEnv, fs: FsState, path: str,
       follow: Follow = Follow.NOFOLLOW):
    return resolve(env.spec, fs, fs.root, path, follow, env.perm)


def errnos(outcomes: Outcomes) -> set[Errno]:
    """The error codes among a set of outcomes."""
    return {out.ret.errno for out in outcomes
            if isinstance(out.ret, Err)}


def successes(outcomes: Outcomes):
    """The successful outcomes."""
    return [out for out in outcomes if isinstance(out.ret, Ok)]


def only_errors(outcomes: Outcomes) -> set[Errno]:
    """Assert all outcomes are errors and return the errno set."""
    assert not successes(outcomes), "expected errors only"
    return errnos(outcomes)


def the_success(outcomes: Outcomes):
    """Assert there is exactly one successful outcome and return it."""
    succ = successes(outcomes)
    assert len(succ) == 1, f"expected one success, got {len(succ)}"
    return succ[0]


def generate_suite(scale: int = 1) -> List[Script]:
    """The classic default suite, eagerly, as the reference order.

    An independent statement of what ``repro.gen.default_plan(scale)``
    streams: the generator families in their classic order, then
    ``scale - 1`` renamed copies (``<name>__r<copy>``).  It repeats the
    list instead of asking the strategy registry, so the tests that
    compare the two catch a reordered or dropped family.
    """
    scripts: List[Script] = []
    scripts.extend(gen_one_path_tests())
    # rename gets the full situation matrix — it is the function with
    # the paper's largest two-path population (~2 500 scripts).
    scripts.extend(gen_two_path_tests("rename", full=True))
    for func in ("link", "symlink"):
        scripts.extend(gen_two_path_tests(func))
    scripts.extend(gen_open_tests())
    scripts.extend(gen_fd_tests())
    scripts.extend(gen_handle_tests())
    scripts.extend(gen_permission_tests())
    scripts.extend(gen_handwritten_tests())
    base = list(scripts)
    for copy in range(1, scale):
        scripts.extend(dataclasses.replace(script,
                                           name=f"{script.name}__r{copy}")
                       for script in base)
    return scripts
