#!/usr/bin/env python3
"""Quickstart: SibylFS as a test oracle — check once, answer everywhere.

Part 1 builds the paper's running example (Figs. 2-4): a script that
renames an empty directory onto a non-empty one, executed on a defective
SSHFS-like file system.  The oracle decides whether the observed trace
is allowed by the model, and — when it is not — names the allowed
results and keeps checking.

Part 2 is the new unified oracle API (`repro.oracle`): every way of
deciding conformance lives behind one ``check(trace) -> Verdict``
protocol with a registry.  ``get_oracle("all")`` checks a trace against
all four platform variants in a **single vectored state-set pass** —
the survey, merge and portability questions for the price of one.

Part 3 shows the same one-pass answer at suite scale:
``Session(..., check_on=[...])`` streams a test plan through
execute+check once and records a per-platform
:class:`repro.ConformanceProfile` for every trace in the
:class:`repro.RunArtifact` (format v3).  The CLI equivalents are
``repro check TRACE --platforms all`` and
``repro run --config ... --check-on all``.

Run:  python examples/quickstart.py
"""

from repro import (Session, config_by_name, default_plan,
                   execute_script, get_oracle, parse_script,
                   print_trace, render_checked_trace)
from repro.harness import merge_verdicts, portability_report

SCRIPT = """\
@type script
# Test rename___rename_emptydir___nonemptydir
mkdir "emptydir" 0o777
mkdir "nonemptydir" 0o777
open "nonemptydir/f" [O_CREAT;O_WRONLY] 0o666
rename "emptydir" "nonemptydir"
"""


def single_trace_oracle() -> None:
    """Part 1: the paper's Figs. 2-4 on a single script."""
    script = parse_script(SCRIPT)
    print("The test script (paper Fig. 2):\n")
    print(SCRIPT)

    # Execute on a well-behaved file system and on SSHFS/tmpfs.
    for config_name in ("linux_ext4", "linux_sshfs_tmpfs"):
        config = config_by_name(config_name)
        trace = execute_script(config, script)
        print(f"--- trace observed on {config_name} "
              "(paper Fig. 3) ---")
        print(print_trace(trace))

        # Check the trace against the POSIX variant of the model.
        verdict = get_oracle("posix").check(trace)
        status = "ACCEPTED" if verdict.accepted else "REJECTED"
        print(f"--- oracle verdict ({status}) "
              "(paper Fig. 4) ---")
        print(render_checked_trace(verdict.primary_checked))


def multi_platform_oracle() -> None:
    """Part 2: one vectored pass answers every platform at once."""
    trace = execute_script(config_by_name("linux_sshfs_tmpfs"),
                           parse_script(SCRIPT))

    # One state-set exploration with platform-membership masks — not
    # four sequential passes.
    verdict = get_oracle("all").check(trace)
    print("--- one-pass multi-platform verdict "
          "(repro check TRACE --platforms all) ---")
    print(verdict.render())

    # The same verdict folds into the section 9 portability report and
    # the cross-platform merge view, with no further checking.
    print("\n--- portability report from the same pass ---")
    print(portability_report(verdict).render())
    records = merge_verdicts([verdict])
    print(f"\nmerged deviation records: {len(records)} "
          f"(platform sets: "
          f"{[','.join(r.configs) for r in records]})")


def suite_one_pass_conformance() -> None:
    """Part 3: a whole suite, every platform, one streamed pass."""
    plan = default_plan().filter(tags=["two-path"]).sample(60, seed=7)
    print("\n--- Session(check_on=[...]): suite-scale one-pass "
          "conformance ---")
    print(f"plan: {plan.describe()}  (~{plan.estimate()} scripts)")
    with Session("linux_sshfs_tmpfs", model="posix",
                 check_on=["posix", "linux", "osx", "freebsd"],
                 plan=plan) as session:
        artifact = session.run()   # generation streams into checking
    print(artifact.render_summary())

    # The artifact (format v3) carries a ConformanceProfile per trace
    # per platform: survey table, portability and merge all render
    # from this one pass — and it round-trips through JSON for CI.
    counts = artifact.conformance_counts()
    worst = min(counts, key=counts.get)
    print(f"\nleast-conformant platform: {worst} "
          f"({counts[worst]}/{artifact.total})")
    # --plan 'two_path:*' selects exactly the tag-filtered strategies
    # above, and the recorded seed makes the sample reproducible.
    print(f"JSON artifact: {len(artifact.to_json())} chars "
          f"(check_on={artifact.check_on}); reproduce with: "
          f"repro run --config linux_sshfs_tmpfs --model posix "
          f"--check-on all --plan 'two_path:*' "
          f"--sample {artifact.total} --seed {artifact.seeds[0]}")


def main() -> None:
    single_trace_oracle()
    multi_platform_oracle()
    suite_one_pass_conformance()


if __name__ == "__main__":
    main()
