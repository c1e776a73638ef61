#!/usr/bin/env python3
"""Survey: testing every configuration and merging the deviations.

The paper's headline use case (section 7.3): run a test battery over the
whole catalogue of simulated OS/file-system configurations, check every
trace against the matching model variant, and merge the results so that
behaviours common to many configurations are separated from the
one-configuration defects.

Run:  python examples/fs_survey.py            (defect battery, fast)
      python examples/fs_survey.py --full     (full generated suite)
"""

import sys

from repro import (ALL_CONFIGS, default_plan, merge_results,
                   parse_script, render_merge, render_summary_table,
                   survey)
from repro.gen import explicit

DEFECT_BATTERY = {
    "fig4_rename": (
        'mkdir "emptydir" 0o777\nmkdir "nonemptydir" 0o777\n'
        'open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666\n'
        'rename "emptydir" "nonemptydir"\n'),
    "dir_link_counts": (
        'mkdir "a" 0o755\nmkdir "a/sub" 0o755\nstat "a"\n'),
    "link_on_symlink": (
        'open "f" [O_CREAT;O_WRONLY] 0o644\nclose 3\n'
        'symlink "f" "s"\nlink "s" "l"\n'),
    "chmod_support": (
        'open "f" [O_CREAT;O_WRONLY] 0o644\nclose 3\n'
        'chmod "f" 0o600\n'),
    "pwrite_negative": (
        'open "f" [O_CREAT;O_WRONLY] 0o644\npwrite 3 "x" -1\n'),
    "o_append_seek": (
        'open "f" [O_CREAT;O_WRONLY] 0o644\nwrite 3 "base"\nclose 3\n'
        'open "f" [O_WRONLY;O_APPEND] 0o644\nwrite 4 "XX"\nclose 4\n'
        'open "f" [O_RDONLY] 0o644\nread 5 100\n'),
    "fig8_spin": (
        'mkdir "deserted" 0o700\nchdir "deserted"\n'
        'rmdir "../deserted"\n'
        'open "party" [O_CREAT;O_RDONLY] 0o600\n'),
}


def main() -> None:
    if "--full" in sys.argv:
        plan = default_plan()
        print(f"running the full generated plan "
              f"(~{plan.estimate()} scripts, streamed) on "
              f"{len(ALL_CONFIGS)} configurations — this takes "
              "several minutes...\n")
    else:
        plan = explicit(
            [parse_script(f"@type script\n# Test {name}\n{body}")
             for name, body in DEFECT_BATTERY.items()],
            label="defect_battery")
        print(f"running the defect battery ({plan.estimate()} "
              f"scripts) on {len(ALL_CONFIGS)} configurations...\n")

    # One survey call: the backend is shared across configurations and
    # each one streams the plan straight into checking.
    artifacts = survey(plan=plan)

    print("=== acceptance per configuration (paper §7.2) ===")
    print(render_summary_table(artifacts))

    print("\n=== merged deviations (paper §7.3) ===")
    print("deviations exhibited by many configurations are platform "
          "conventions;\nsingle-configuration rows are the defects:\n")
    print(render_merge(merge_results(artifacts)))


if __name__ == "__main__":
    main()
