"""Section 7.3.4: comparing SSHFS/tmpfs mount options.

The paper's system-administrator scenario: compare ``allow_other``,
``allow_other,default_permissions`` and ``umask=0000`` configurations
"in under an hour" and conclude the share is unsafe.  The bench runs
permission-sensitive scripts on all four SSHFS configurations and
regenerates the comparison table, asserting the paper's conclusions:

* ``allow_other`` alone lets users violate permissions;
* ``default_permissions`` enforces them but creation ownership is still
  unconfigurably root;
* without a ``umask`` mount option the process umask is ORed with 0022;
  with ``umask=0000`` the process umask is ignored entirely.
"""

import pytest
from conftest import record_table

from repro.core import commands as C
from repro.core.flags import OpenFlag
from repro.core.values import Ok
from repro.fsimpl import KernelFS, config_by_name

SSHFS_CONFIGS = [
    "linux_sshfs_tmpfs",
    "linux_sshfs_allow_other",
    "linux_sshfs_allow_other_default_permissions",
    "linux_sshfs_umask0000",
]


def probe(cfg_name):
    """Probe one configuration: permission enforcement, creation
    ownership, and effective umask behaviour."""
    cfg = config_by_name(cfg_name)
    k = KernelFS(cfg)
    k.create_process(1, 0, 0)
    k.create_process(2, 1000, 1000)
    k.call(1, C.Mkdir("private", 0o700))
    k.call(1, C.Open("private/secret",
                     OpenFlag.O_CREAT | OpenFlag.O_WRONLY, 0o600))
    violation = isinstance(
        k.call(2, C.Open("private/secret", OpenFlag.O_RDWR, 0o644)), Ok)

    k.call(1, C.Mkdir("pub", 0o777))
    # The mount's creation mode policy also masked root's mkdir; open
    # the shared directory up explicitly, as an admin would.
    k.call(1, C.Chmod("pub", 0o777))
    k.call(2, C.Umask(0o000))
    k.call(2, C.Open("pub/user_file",
                     OpenFlag.O_CREAT | OpenFlag.O_WRONLY, 0o666))
    stat = k.call(2, C.StatCmd("pub/user_file")).value.stat
    return {
        "config": cfg_name,
        "perm_violation": violation,
        "created_uid": stat.uid,
        "mode_with_zero_umask": stat.mode,
    }


@pytest.fixture(scope="module")
def probes():
    return {name: probe(name) for name in SSHFS_CONFIGS}


def test_sec734_mount_option_table(benchmark, probes):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = ["configuration                                 "
            "perm-violation  creation-uid  mode(umask 0)"]
    for name in SSHFS_CONFIGS:
        p = probes[name]
        rows.append(f"{name:<45} {str(p['perm_violation']):<15} "
                    f"{p['created_uid']:<13} "
                    f"0o{p['mode_with_zero_umask']:o}")
    record_table("sec734_sshfs_mount_options", "\n".join(rows))


def test_sec734_allow_other_is_dangerous(benchmark, probes):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert probes["linux_sshfs_allow_other"]["perm_violation"]


def test_sec734_default_permissions_is_safer(benchmark, probes):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert not probes["linux_sshfs_allow_other_default_permissions"][
        "perm_violation"]


def test_sec734_creation_ownership_is_root(benchmark, probes):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # "unconfigurable default creation ownership set to the mount owner
    # (root)" — still inadequate for a shared mount.
    for name in SSHFS_CONFIGS:
        assert probes[name]["created_uid"] == 0, name


def test_sec734_umask_or_0022(benchmark, probes):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # Without a umask mount option: user umask 0o000 ORed with 0022.
    assert probes["linux_sshfs_tmpfs"]["mode_with_zero_umask"] == 0o644


def test_sec734_umask_mount_option_ignores_process_umask(benchmark, probes):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    assert probes["linux_sshfs_umask0000"]["mode_with_zero_umask"] == \
        0o666
