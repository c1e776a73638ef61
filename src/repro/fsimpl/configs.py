"""The tested configurations (paper section 7: "over 40 system
configurations").

Each entry names one OS/file-system/libc combination from the paper's
survey, with the quirk profile that reproduces its documented behaviour.
Configurations with default quirks behave like standard Linux ext*;
the interesting entries carry the deviations of sections 7.3.2-7.3.5.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.errors import Errno
from repro.fsimpl.quirks import Quirks, UmaskPolicy

_STANDARD_LINUX = dict(
    platform="linux",
    chroot_root_nlink_off_by_one=True,
)

#: OS X's VFS-level pwrite underflow (§7.3.4) affects every file system
#: mounted on OS X, so it is part of the OS X baseline.
_STANDARD_OSX = dict(
    platform="osx",
    chroot_root_nlink_off_by_one=True,
    pwrite_negative_signal="SIGXFSZ",
)

_STANDARD_FREEBSD = dict(
    platform="freebsd",
    chroot_root_nlink_off_by_one=True,
    excl_dir_symlink_clobber=True,
)


def _linux(name: str, description: str, **kw) -> Quirks:
    merged = dict(_STANDARD_LINUX)
    merged.update(kw)
    return Quirks(name=name, description=description, **merged)


def _osx(name: str, description: str, **kw) -> Quirks:
    merged = dict(_STANDARD_OSX)
    merged.update(kw)
    return Quirks(name=name, description=description, **merged)


def _freebsd(name: str, description: str, **kw) -> Quirks:
    merged = dict(_STANDARD_FREEBSD)
    merged.update(kw)
    return Quirks(name=name, description=description, **merged)


_SSHFS_BASE = dict(
    dir_nlink_constant=1,
    file_nlink_constant=1,
    rename_nonempty_eperm=True,
    forced_owner=(0, 0),
)

ALL_CONFIGS: List[Quirks] = [
    # ---- Linux, kernel 3.19, glibc (the "standard" platforms of §7.2) ----
    _linux("linux_tmpfs", "Linux 3.19 tmpfs, glibc"),
    _linux("linux_ext2", "Linux 3.19 ext2, glibc"),
    _linux("linux_ext3", "Linux 3.19 ext3, glibc"),
    _linux("linux_ext4", "Linux 3.19 ext4, glibc"),
    _linux("linux_f2fs", "Linux 3.19 F2FS, glibc"),
    _linux("linux_xfs", "Linux 3.19 XFS, glibc"),
    _linux("linux_minix", "Linux 3.19 MINIX, glibc"),
    _linux("linux_nilfs2", "Linux 3.19 NILFS2, glibc"),
    _linux("linux_nfsv3_tmpfs", "Linux NFSv3 over tmpfs"),
    _linux("linux_nfsv4_tmpfs", "Linux NFSv4 over tmpfs"),
    _linux("linux_fusexmp_tmpfs", "FUSE passthrough over tmpfs"),
    _linux("linux_bind_tmpfs", "bind mount over tmpfs"),
    _linux("linux_aufs_tmpfs_ext4", "aufs union of tmpfs and ext4"),
    _linux("linux_overlay_tmpfs_ext4", "overlayfs of tmpfs and ext4"),
    _linux("linux_glusterfs_xfs", "GlusterFS over XFS"),
    # ---- libc and kernel-version variation --------------------------------
    _linux("linux_ext4_musl",
           "Linux 3.19 ext4, musl libc (zero-byte bad-fd write succeeds)",
           write_zero_bad_fd_succeeds=True),
    _linux("linux_tmpfs_musl", "Linux 3.19 tmpfs, musl libc",
           write_zero_bad_fd_succeeds=True),
    _linux("linux_ext4_3.13", "Ubuntu Trusty Linux 3.13, ext4"),
    _linux("linux_ext4_3.14", "Debian sid Linux 3.14, ext4"),
    _linux("linux_tmpfs_3.13", "Ubuntu Trusty Linux 3.13, tmpfs"),
    _linux("linux_tmpfs_3.14", "Debian sid Linux 3.14, tmpfs"),
    _linux("linux_xfs_3.14", "Debian sid Linux 3.14, XFS"),
    _linux("linux_btrfs_3.14",
           "Debian sid Linux 3.14, Btrfs (no dir link counts)",
           dir_nlink_constant=1),
    # ---- Linux: §7.3.2 core-behaviour violations ---------------------------
    _linux("linux_btrfs",
           "Btrfs: directory link counts not maintained (§7.3.2)",
           dir_nlink_constant=1),
    _linux("linux_hfsplus",
           "Linux HFS+: no dir link counts; link-on-symlink EPERM "
           "(§7.3.2)",
           dir_nlink_constant=1, link_symlink_eperm=True),
    _linux("linux_hfsplus_trusty",
           "Ubuntu Trusty Linux 3.13 HFS+: chmod always EOPNOTSUPP "
           "(§7.3.4)",
           dir_nlink_constant=1, link_symlink_eperm=True,
           chmod_errno=Errno.EOPNOTSUPP),
    # ---- SSHFS and its mount options (§7.3.4) ------------------------------
    _linux("linux_sshfs_tmpfs",
           "SSHFS/tmpfs 2.5: EPERM rename deviation (Fig. 4), no link "
           "counts, root-owned creation, umask|=0022",
           umask_policy=UmaskPolicy.OR_0022, **_SSHFS_BASE),
    _linux("linux_sshfs_allow_other",
           "SSHFS allow_other: permissions not enforced at all",
           umask_policy=UmaskPolicy.OR_0022, enforce_permissions=False,
           **_SSHFS_BASE),
    _linux("linux_sshfs_allow_other_default_permissions",
           "SSHFS allow_other,default_permissions: permissions enforced "
           "but creation still root-owned",
           umask_policy=UmaskPolicy.OR_0022, **_SSHFS_BASE),
    _linux("linux_sshfs_umask0000",
           "SSHFS umask=0000 mount option: process umask ignored",
           umask_policy=UmaskPolicy.IGNORE, **_SSHFS_BASE),
    # ---- posixovl (§7.3.5) ---------------------------------------------------
    _linux("linux_posixovl_vfat",
           "posixovl/VFAT 1.2: rename link-count leak exhausts storage",
           rename_link_count_leak=True, capacity_bytes=64_000),
    _linux("linux_posixovl_ntfs3g",
           "posixovl/NTFS-3G: same rename link-count leak",
           rename_link_count_leak=True, capacity_bytes=64_000),
    # ---- OpenZFS on Linux (§7.3.4) -----------------------------------------
    _linux("linux_openzfs", "OpenZFS on Linux 3.19"),
    _linux("linux_openzfs_trusty",
           "OpenZFS 0.6.3 on Ubuntu Trusty: O_APPEND does not seek to "
           "EOF before write/pwrite",
           o_append_no_seek=True),
    # ---- OS X 10.9.5 ------------------------------------------------------
    _osx("osx_hfsplus", "OS X 10.9.5 HFS+ (default)"),
    _osx("osx_nfsv3_hfsplus", "OS X NFSv3 over HFS+"),
    _osx("osx_fusexmp_hfsplus", "OS X FUSE passthrough over HFS+"),
    _osx("osx_sshfs_hfsplus", "OS X SSHFS over HFS+",
         umask_policy=UmaskPolicy.OR_0022, **_SSHFS_BASE),
    _osx("osx_fuse_ext2", "fuse-ext2 on OS X",
         dir_nlink_constant=1),
    _osx("osx_paragon_extfs", "Paragon ExtFS on OS X"),
    _osx("osx_openzfs",
         "OpenZFS 1.3.0 on OS X 10.9.5: unkillable spin after open in a "
         "disconnected directory (Fig. 8)",
         spin_on_create_in_disconnected_cwd=True),
    # ---- FreeBSD ------------------------------------------------------------
    _freebsd("freebsd_tmpfs",
             "FreeBSD tmpfs: O_CREAT|O_DIRECTORY|O_EXCL clobbers "
             "symlinks (§7.3.2)"),
    _freebsd("freebsd_ufs",
             "FreeBSD ufs: O_CREAT|O_DIRECTORY|O_EXCL clobbers "
             "symlinks (§7.3.2)"),
]

_BY_NAME: Dict[str, Quirks] = {cfg.name: cfg for cfg in ALL_CONFIGS}


def config_by_name(name: str) -> Quirks:
    """Look up a survey configuration by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown configuration {name!r}; see ALL_CONFIGS") from None


def configs_for_platform(platform: str) -> List[Quirks]:
    """All configurations whose expected model variant is ``platform``."""
    return [cfg for cfg in ALL_CONFIGS if cfg.platform == platform]
