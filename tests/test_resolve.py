"""Tests for path resolution — the trickiest module (paper section 5)."""

import pytest

from repro.core.errors import Errno
from repro.core.flags import FileKind
from repro.core.platform import LINUX_SPEC, OSX_SPEC, POSIX_SPEC
from repro.engine import RecordingSpec
from repro.pathres.resname import Follow, RnDir, RnError, RnFile, RnNone
from repro.pathres.resolve import (NAME_MAX, PermEnv, resolve, split_path)
from repro.state.heap import empty_fs
from repro.state.meta import Meta

META = Meta(mode=0o755, uid=0, gid=0)
FMETA = Meta(mode=0o644, uid=0, gid=0)
ROOT_ENV = PermEnv(uid=0, gid=0)
USER_ENV = PermEnv(uid=1000, gid=1000)


def build_fs():
    """d/ { f, ed/, ne/{inner} }, sd -> d, sf -> d/f, dang -> nowhere,
    ssd -> sd, loop: sl1 <-> sl2."""
    fs = empty_fs()
    fs, d = fs.create_dir(fs.root, "d", META)
    fs, f = fs.create_file(d, "f", FMETA, content=b"content")
    fs, ed = fs.create_dir(d, "ed", META)
    fs, ne = fs.create_dir(d, "ne", META)
    fs, _ = fs.create_file(ne, "inner", FMETA)
    fs, sd = fs.create_file(fs.root, "sd", FMETA,
                            kind=FileKind.SYMLINK, content=b"d")
    fs, sf = fs.create_file(fs.root, "sf", FMETA,
                            kind=FileKind.SYMLINK, content=b"d/f")
    fs, dang = fs.create_file(fs.root, "dang", FMETA,
                              kind=FileKind.SYMLINK, content=b"nowhere")
    fs, ssd = fs.create_file(fs.root, "ssd", FMETA,
                             kind=FileKind.SYMLINK, content=b"sd")
    fs, _ = fs.create_file(fs.root, "sl1", FMETA,
                           kind=FileKind.SYMLINK, content=b"sl2")
    fs, _ = fs.create_file(fs.root, "sl2", FMETA,
                           kind=FileKind.SYMLINK, content=b"sl1")
    return fs, dict(d=d, f=f, ed=ed, ne=ne, sd=sd, sf=sf, dang=dang,
                    ssd=ssd)


def res(fs, path, follow=Follow.FOLLOW, spec=POSIX_SPEC, cwd=None,
        env=ROOT_ENV):
    return resolve(spec, fs, cwd if cwd is not None else fs.root, path,
                   follow, env)


class TestSplitPath:
    def test_relative(self):
        assert split_path("a/b") == (False, ["a", "b"], False)

    def test_absolute_trailing(self):
        assert split_path("/a/b/") == (True, ["a", "b"], True)

    def test_collapses_inner_slashes(self):
        assert split_path("a//b///c") == (False, ["a", "b", "c"], False)

    def test_root_only(self):
        assert split_path("/") == (True, [], False)

    def test_keeps_dots(self):
        assert split_path("./a/..") == (False, [".", "a", ".."], False)


class TestBasics:
    def test_file(self):
        fs, refs = build_fs()
        rn = res(fs, "d/f")
        assert isinstance(rn, RnFile)
        assert rn.fref == refs["f"]
        assert not rn.trailing_slash

    def test_absolute_file(self):
        fs, refs = build_fs()
        rn = res(fs, "/d/f")
        assert isinstance(rn, RnFile) and rn.fref == refs["f"]

    def test_dir(self):
        fs, refs = build_fs()
        rn = res(fs, "d")
        assert isinstance(rn, RnDir)
        assert rn.dref == refs["d"]
        assert rn.parent == fs.root and rn.name == "d"

    def test_none_in_existing_dir(self):
        fs, refs = build_fs()
        rn = res(fs, "d/nx")
        assert isinstance(rn, RnNone)
        assert rn.parent == refs["d"] and rn.name == "nx"

    def test_missing_intermediate_is_error(self):
        fs, _ = build_fs()
        rn = res(fs, "nxd/nx")
        assert isinstance(rn, RnError) and rn.errno is Errno.ENOENT

    def test_file_as_intermediate_is_enotdir(self):
        fs, _ = build_fs()
        rn = res(fs, "d/f/x")
        assert isinstance(rn, RnError) and rn.errno is Errno.ENOTDIR

    def test_empty_path(self):
        fs, _ = build_fs()
        rn = res(fs, "")
        assert isinstance(rn, RnError) and rn.errno is Errno.ENOENT

    def test_root(self):
        fs, _ = build_fs()
        rn = res(fs, "/")
        assert isinstance(rn, RnDir) and rn.dref == fs.root
        assert rn.parent is None

    def test_double_and_triple_slash_roots(self):
        fs, _ = build_fs()
        for path in ("//", "///", "//d", "///d"):
            rn = res(fs, path)
            assert isinstance(rn, RnDir)

    def test_relative_from_cwd(self):
        fs, refs = build_fs()
        rn = res(fs, "f", cwd=refs["d"])
        assert isinstance(rn, RnFile) and rn.fref == refs["f"]


class TestDots:
    def test_dot_is_cwd(self):
        fs, refs = build_fs()
        rn = res(fs, ".", cwd=refs["d"])
        assert isinstance(rn, RnDir) and rn.dref == refs["d"]
        assert rn.last_dot == "."

    def test_dotdot(self):
        fs, refs = build_fs()
        rn = res(fs, "..", cwd=refs["ed"])
        assert isinstance(rn, RnDir) and rn.dref == refs["d"]
        assert rn.last_dot == ".."

    def test_dotdot_at_root_is_root(self):
        fs, _ = build_fs()
        rn = res(fs, "..")
        assert isinstance(rn, RnDir) and rn.dref == fs.root

    def test_dot_components_traverse(self):
        fs, refs = build_fs()
        rn = res(fs, "d/./ed/../f")
        assert isinstance(rn, RnFile) and rn.fref == refs["f"]

    def test_dotdot_in_disconnected_dir(self):
        fs, refs = build_fs()
        fs = fs.remove_entry(refs["d"], "ed")  # disconnect ed
        rn = res(fs, "..", cwd=refs["ed"])
        assert isinstance(rn, RnError) and rn.errno is Errno.ENOENT


class TestTrailingSlash:
    def test_dir_trailing_slash_ok(self):
        fs, refs = build_fs()
        rn = res(fs, "d/")
        assert isinstance(rn, RnDir) and rn.trailing_slash

    def test_file_trailing_slash_flagged(self):
        # The ad-hoc case of section 7.3.2: resolution *succeeds* with a
        # flag; the per-command specs decide the errno.
        fs, refs = build_fs()
        rn = res(fs, "d/f/")
        assert isinstance(rn, RnFile) and rn.trailing_slash

    def test_none_trailing_slash_flagged(self):
        fs, _ = build_fs()
        rn = res(fs, "d/nx/")
        assert isinstance(rn, RnNone) and rn.trailing_slash


class TestSymlinks:
    def test_follow_final_symlink_to_file(self):
        fs, refs = build_fs()
        rn = res(fs, "sf", Follow.FOLLOW)
        assert isinstance(rn, RnFile) and rn.fref == refs["f"]

    def test_nofollow_final_symlink(self):
        fs, refs = build_fs()
        rn = res(fs, "sf", Follow.NOFOLLOW)
        assert isinstance(rn, RnFile) and rn.fref == refs["sf"]
        assert fs.file(rn.fref).kind is FileKind.SYMLINK

    def test_intermediate_symlink_always_followed(self):
        fs, refs = build_fs()
        rn = res(fs, "sd/f", Follow.NOFOLLOW)
        assert isinstance(rn, RnFile) and rn.fref == refs["f"]

    def test_symlink_chain(self):
        fs, refs = build_fs()
        rn = res(fs, "ssd", Follow.FOLLOW)
        assert isinstance(rn, RnDir) and rn.dref == refs["d"]

    def test_dangling_symlink_followed_is_none(self):
        fs, refs = build_fs()
        rn = res(fs, "dang", Follow.FOLLOW)
        assert isinstance(rn, RnNone)
        assert rn.dangling_symlink == refs["dang"]

    def test_dangling_symlink_nofollow_is_the_symlink(self):
        fs, refs = build_fs()
        rn = res(fs, "dang", Follow.NOFOLLOW)
        assert isinstance(rn, RnFile) and rn.fref == refs["dang"]

    def test_trailing_slash_forces_follow(self):
        # "a trailing slash makes it more likely the symlink is
        # followed" (paper section 5).
        fs, refs = build_fs()
        rn = res(fs, "sd/", Follow.NOFOLLOW)
        assert isinstance(rn, RnDir) and rn.dref == refs["d"]

    def test_loop_gives_eloop(self):
        fs, _ = build_fs()
        rn = res(fs, "sl1", Follow.FOLLOW)
        assert isinstance(rn, RnError) and rn.errno is Errno.ELOOP

    def test_loop_as_component_gives_eloop(self):
        fs, _ = build_fs()
        rn = res(fs, "sl1/x", Follow.NOFOLLOW)
        assert isinstance(rn, RnError) and rn.errno is Errno.ELOOP

    def test_loop_limit_is_configurable(self):
        import dataclasses
        fs, _ = build_fs()
        tight = dataclasses.replace(POSIX_SPEC, symlink_loop_limit=1)
        rn = res(fs, "ssd", Follow.FOLLOW, spec=tight)
        assert isinstance(rn, RnError) and rn.errno is Errno.ELOOP

    def test_final_symlink_chain_eloop_boundary(self):
        """A final-component chain re-enters ``resolve`` once per
        expansion, carrying the count: at a limit of 2, two expansions
        (ssd -> sd -> d) resolve and three (sssd) give ELOOP."""
        import dataclasses
        fs, refs = build_fs()
        fs, _ = fs.create_file(fs.root, "sssd", FMETA,
                               kind=FileKind.SYMLINK, content=b"ssd")
        tight = dataclasses.replace(POSIX_SPEC, symlink_loop_limit=2)
        rn = res(fs, "ssd", Follow.FOLLOW, spec=tight)
        assert isinstance(rn, RnDir) and rn.dref == refs["d"]
        rn = res(fs, "sssd", Follow.FOLLOW, spec=tight)
        assert isinstance(rn, RnError) and rn.errno is Errno.ELOOP

    def test_final_symlink_chain_reads_only_what_it_uses(self):
        """Following a final symlink does not rebuild the spec, so a
        recording view logs only the loop limit: the step stays
        shareable across platforms."""
        fs, refs = build_fs()
        view = RecordingSpec.of(POSIX_SPEC)
        rn = res(fs, "ssd", Follow.FOLLOW, spec=view)
        assert isinstance(rn, RnDir) and rn.dref == refs["d"]
        assert set(view.reads) == {"symlink_loop_limit"}

    def test_empty_symlink_target(self):
        fs, _ = build_fs()
        fs, _ = fs.create_file(fs.root, "se", FMETA,
                               kind=FileKind.SYMLINK, content=b"")
        rn = res(fs, "se", Follow.FOLLOW)
        assert isinstance(rn, RnError) and rn.errno is Errno.ENOENT

    def test_absolute_symlink_target(self):
        fs, refs = build_fs()
        fs, _ = fs.create_file(refs["d"], "up", FMETA,
                               kind=FileKind.SYMLINK, content=b"/d/f")
        rn = res(fs, "d/up", Follow.FOLLOW)
        assert isinstance(rn, RnFile) and rn.fref == refs["f"]


class TestLimits:
    def test_name_too_long(self):
        fs, _ = build_fs()
        rn = res(fs, "x" * (NAME_MAX + 1))
        assert isinstance(rn, RnError)
        assert rn.errno is Errno.ENAMETOOLONG

    def test_path_too_long(self):
        fs, _ = build_fs()
        rn = res(fs, "a/" * 4000)
        assert isinstance(rn, RnError)
        assert rn.errno is Errno.ENAMETOOLONG

    def test_name_limit_is_bytes_not_characters(self):
        # NAME_MAX is a byte limit: 200 two-byte characters slip the
        # character count (200 <= 255) but are 400 UTF-8 bytes.
        fs, _ = build_fs()
        rn = res(fs, "é" * 200)
        assert isinstance(rn, RnError)
        assert rn.errno is Errno.ENAMETOOLONG

    def test_name_under_limit_in_bytes_resolves(self):
        # 127 two-byte characters = 254 bytes: inside the limit, so
        # this is an ordinary missing final component.
        fs, _ = build_fs()
        rn = res(fs, "é" * 127)
        assert isinstance(rn, RnNone)

    def test_path_limit_is_bytes_not_characters(self):
        # Character count stays under PATH_MAX (2800 <= 4096) while
        # the UTF-8 byte count exceeds it (4200 > 4096); the up-front
        # limit check must fire before any component is walked.
        fs, _ = build_fs()
        path = "é/" * 1400  # 2800 chars, 4200 bytes
        rn = res(fs, path)
        assert isinstance(rn, RnError)
        assert rn.errno is Errno.ENAMETOOLONG

    def test_multibyte_intermediate_component_counts_bytes(self):
        fs, _ = build_fs()
        rn = res(fs, "é" * 200 + "/f")
        assert isinstance(rn, RnError)
        assert rn.errno is Errno.ENAMETOOLONG

    def test_lone_surrogates_measured_not_crashed(self):
        # os.fsdecode'd names can carry unpaired surrogates, which
        # strict UTF-8 refuses to encode; the limit check must measure
        # them (3 bytes each via surrogatepass), never raise.
        fs, _ = build_fs()
        rn = res(fs, "\ud800" * 64)          # 192 bytes: under limit
        assert isinstance(rn, RnNone)
        rn = res(fs, "\ud800" * 100)         # 300 bytes: over limit
        assert isinstance(rn, RnError)
        assert rn.errno is Errno.ENAMETOOLONG


class TestPermissions:
    def test_search_permission_denied(self):
        fs, refs = build_fs()
        fs = fs.set_dir_meta(refs["d"], META.with_mode(0o600))
        rn = res(fs, "d/f", env=USER_ENV)
        assert isinstance(rn, RnError) and rn.errno is Errno.EACCES

    def test_root_bypasses_search_permission(self):
        fs, refs = build_fs()
        fs = fs.set_dir_meta(refs["d"], META.with_mode(0o000))
        rn = res(fs, "d/f", env=ROOT_ENV)
        assert isinstance(rn, RnFile)

    def test_permissions_disabled_trait(self):
        fs, refs = build_fs()
        fs = fs.set_dir_meta(refs["d"], META.with_mode(0o000))
        env = PermEnv(uid=1000, gid=1000, enabled=False)
        rn = res(fs, "d/f", env=env)
        assert isinstance(rn, RnFile)

    def test_group_execute_bit(self):
        fs, refs = build_fs()
        fs = fs.set_dir_meta(refs["d"],
                             Meta(mode=0o710, uid=0, gid=1000))
        rn = res(fs, "d/f", env=USER_ENV)
        assert isinstance(rn, RnFile)

    def test_other_execute_bit(self):
        fs, refs = build_fs()
        fs = fs.set_dir_meta(refs["d"], Meta(mode=0o701, uid=0, gid=0))
        rn = res(fs, "d/f", env=USER_ENV)
        assert isinstance(rn, RnFile)

    def test_supplementary_group(self):
        fs, refs = build_fs()
        fs = fs.set_dir_meta(refs["d"], Meta(mode=0o710, uid=0, gid=42))
        env = PermEnv(uid=1000, gid=1000, groups=frozenset({42}))
        rn = res(fs, "d/f", env=env)
        assert isinstance(rn, RnFile)
