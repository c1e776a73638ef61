"""Test generation by equivalence partitioning (paper section 6.1).

Tests are generated combinatorially from a catalogue of *path
situations* — equivalence classes of paths based on the properties that
are believed to affect file-system behaviour (trailing slash, number of
leading slashes, what the path resolves to, symlink components, ...).
Commands taking two paths are tested on all pairs of situations plus the
cross-path classes (equal paths, hard links to the same file, one path a
proper prefix of the other).

This package holds the raw generator families (``gen_*`` functions,
seeded ``random_script``); how a run *selects* among them is the job of
:mod:`repro.gen`, where each family is registered as a named, tagged
strategy and composed into lazy :class:`~repro.gen.TestPlan` streams
(select -> stream -> check)::

    from repro.gen import default_plan

    plan = default_plan().filter(tags=["two-path"]).sample(200, seed=1)

:func:`summarize` counts a population per targeted function as a
:class:`SuiteSummary`.
"""

from repro.testgen.properties import (PathProps, Resolution,
                                      impossible_combination,
                                      missing_combinations)
from repro.testgen.situations import (SCAFFOLD, SITUATIONS, PathSituation,
                                      situation_by_key)
from repro.testgen.generator import (gen_fd_tests, gen_handle_tests,
                                     gen_handwritten_tests,
                                     gen_one_path_tests, gen_open_tests,
                                     gen_permission_tests,
                                     gen_two_path_tests)
from repro.testgen.randomized import random_script, random_suite
from repro.testgen.scenarios import (gen_crash_recovery_tests,
                                     gen_fault_tests,
                                     gen_interleaving_tests)
from repro.testgen.suite import SuiteSummary, summarize

__all__ = [
    "PathProps", "Resolution", "impossible_combination",
    "missing_combinations",
    "SCAFFOLD", "SITUATIONS", "PathSituation", "situation_by_key",
    "gen_one_path_tests", "gen_two_path_tests", "gen_open_tests",
    "gen_handwritten_tests",
    "gen_fd_tests", "gen_handle_tests", "gen_permission_tests",
    "gen_fault_tests", "gen_crash_recovery_tests",
    "gen_interleaving_tests",
    "random_script", "random_suite",
    "SuiteSummary", "summarize",
]
