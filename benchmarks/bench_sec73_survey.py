"""Section 7.3: the survey — deviations across all configurations.

Runs a battery of targeted defect scripts on *every* configuration in
the catalogue, checks each trace against the configuration's own model
variant, and prints the merged deviation matrix — the reproduction of
the paper's survey of "over 40 system configurations", with each
documented defect (sections 7.3.2-7.3.5) re-discovered on exactly the
configurations that carry it.
"""

import pytest
from conftest import record_table

from repro.api import survey as survey_configs
from repro.fsimpl import ALL_CONFIGS
from repro.harness import merge_results, render_merge
from repro.script import parse_script

#: Targeted scripts, one per defect class of §7.3.
DEFECT_SCRIPTS = {
    "fig4_rename": (
        'mkdir "emptydir" 0o777\nmkdir "nonemptydir" 0o777\n'
        'open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666\n'
        'rename "emptydir" "nonemptydir"\n'),
    "dir_link_counts": 'mkdir "a" 0o755\nmkdir "a/sub" 0o755\nstat "a"\n',
    "file_link_counts": (
        'open "f" [O_CREAT;O_WRONLY] 0o644\nclose 3\nlink "f" "g"\n'
        'stat "f"\n'),
    "link_on_symlink": (
        'open "f" [O_CREAT;O_WRONLY] 0o644\nclose 3\nsymlink "f" "s"\n'
        'link "s" "l"\n'),
    "chmod_support": (
        'open "f" [O_CREAT;O_WRONLY] 0o644\nclose 3\nchmod "f" 0o600\n'),
    "pwrite_negative": (
        'open "f" [O_CREAT;O_WRONLY] 0o644\npwrite 3 "x" -1\n'),
    "o_append_seek": (
        'open "f" [O_CREAT;O_WRONLY] 0o644\nwrite 3 "base"\nclose 3\n'
        'open "f" [O_WRONLY;O_APPEND] 0o644\nwrite 4 "XX"\nclose 4\n'
        'open "f" [O_RDONLY] 0o644\nread 5 100\n'),
    "excl_dir_symlink": (
        'mkdir "dir" 0o755\nsymlink "dir" "s"\n'
        'open "s" [O_CREAT;O_EXCL;O_DIRECTORY;O_RDONLY] 0o644\n'
        'lstat "s"\n'),
    "fig8_spin": (
        'mkdir "deserted" 0o700\nchdir "deserted"\n'
        'rmdir "../deserted"\nopen "party" [O_CREAT;O_RDONLY] 0o600\n'),
    "allow_other_perms": (
        'mkdir "private" 0o700\n'
        'open "private/secret" [O_CREAT;O_WRONLY] 0o600\nclose 3\n'
        '@process create p2 uid=1000 gid=1000\n'
        'p2: open "private/secret" [O_RDWR] 0o644\n'),
}

#: defect -> configurations that must exhibit it (subset check).
EXPECTED = {
    "fig4_rename": {"linux_sshfs_tmpfs", "linux_sshfs_allow_other",
                    "linux_sshfs_umask0000"},
    "dir_link_counts": {"linux_btrfs", "linux_hfsplus",
                        "linux_sshfs_tmpfs", "osx_fuse_ext2"},
    "link_on_symlink": {"linux_hfsplus", "linux_hfsplus_trusty"},
    "chmod_support": {"linux_hfsplus_trusty"},
    "pwrite_negative": {"osx_hfsplus", "osx_openzfs"},
    "o_append_seek": {"linux_openzfs_trusty"},
    "excl_dir_symlink": {"freebsd_tmpfs", "freebsd_ufs"},
    "fig8_spin": {"osx_openzfs"},
    "allow_other_perms": {"linux_sshfs_allow_other"},
}

#: defect -> configurations that must stay clean.
CLEAN = {
    "fig4_rename": {"linux_ext4", "osx_hfsplus", "freebsd_ufs"},
    "dir_link_counts": {"linux_ext4", "linux_tmpfs"},
    "link_on_symlink": {"linux_ext4", "osx_hfsplus"},
    "chmod_support": {"linux_ext4", "linux_hfsplus"},
    "pwrite_negative": {"linux_ext4", "freebsd_ufs"},
    "o_append_seek": {"linux_openzfs", "linux_ext4"},
    "excl_dir_symlink": {"linux_ext4", "osx_hfsplus"},
    "fig8_spin": {"osx_hfsplus", "linux_ext4"},
    "allow_other_perms": {
        "linux_sshfs_allow_other_default_permissions", "linux_ext4"},
}

SCRIPTS = [parse_script(f"@type script\n# Test {name}\n{body}")
           for name, body in DEFECT_SCRIPTS.items()]


@pytest.fixture(scope="module")
def survey():
    return {artifact.config: artifact
            for artifact in survey_configs(ALL_CONFIGS, suite=SCRIPTS)}


def test_sec73_survey_matrix(benchmark, survey):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    records = merge_results(list(survey.values()))
    record_table(
        "sec73_survey",
        f"{len(ALL_CONFIGS)} configurations x "
        f"{len(SCRIPTS)} defect scripts\n"
        + render_merge(records, limit=100))
    assert records, "the survey found no deviations at all"


def test_sec73_each_defect_found_where_expected(benchmark, survey):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for defect, configs in EXPECTED.items():
        for cfg_name in configs:
            failing = {f.trace_name for f in survey[cfg_name].failing}
            assert defect in failing, (defect, cfg_name)


def test_sec73_defects_absent_on_clean_configs(benchmark, survey):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for defect, configs in CLEAN.items():
        for cfg_name in configs:
            failing = {f.trace_name for f in survey[cfg_name].failing}
            assert defect not in failing, (defect, cfg_name)


def test_sec73_standard_configs_clean_on_defect_battery(benchmark, survey):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    # The defect scripts avoid root stats, so the standard platforms
    # pass the whole battery.
    for name in ("linux_ext4", "linux_tmpfs", "linux_xfs"):
        assert not survey[name].failing, survey[name].failing
