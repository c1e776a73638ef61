"""Workload definitions shared by the runner, the unit and the references.

Every workload is a fixed unit of work, replayed in fresh processes:

``plan_serial``
    The default-plan *slice* on ``linux_ext4``, checked on ``linux`` by
    a ``Session`` with the serial backend.  The slice is seven whole
    default-plan families (1,297 of the 5,141 scripts, in generation
    order, so siblings share their setup prefixes as in the full plan).
    Families generate eagerly, so whole families keep generation's share
    of the work as it is in a full-plan run.
``plan_sharded``
    The same slice on ``osx_hfsplus``, checked on all four platforms by
    the sharded backend with 2 shards, appending into a fresh
    ``CampaignStore``.
``random_check``
    The 300 ``RandomizedStrategy`` scripts of base seed 0 (length 25,
    multi-process), in seeded order, on ``linux_sshfs_tmpfs``, checked
    on all four platforms by the serial backend.
``serve_stream``
    Every 20th default-plan script (258) executed on ``linux_ext4`` and
    ``linux_sshfs_tmpfs`` before timing, shuffled by the seed into 516
    ``check`` requests sent in a closed loop to ``repro serve --model
    all --shards 2 --store DIR``.

``BENCHMARK.json`` lists ``plan_sharded`` and ``serve_stream``: between
them they reach every layer, and two long runs hold their bounds on a
shared machine where four short ones did not.  ``plan_serial`` and
``random_check`` run by hand, as a prefix-sharing and a checker probe.

The plan workloads are deterministic: their seed is only recorded.  The
other two keep their population fixed and take their order from the
seed: a population drawn afresh per seed moves the tail latencies by
more than any bound the benchmark could hold.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import random
import subprocess
import sys
from typing import Dict, Iterable, List, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFS = HERE / "refs" / "refs.json"

PLATFORMS = ("posix", "linux", "osx", "freebsd")
WORKLOADS = ("plan_serial", "plan_sharded", "random_check", "serve_stream")

#: The default-plan families the plan workloads run.
SLICE_FAMILIES = ("two_path:link", "two_path:symlink", "open", "fd",
                  "handle", "permission", "handwritten")
RANDOM_COUNT = 300
RANDOM_LENGTH = 25
#: Served stream: every ``SERVE_STRIDE``-th default-plan script.
SERVE_STRIDE = 20
SERVE_CONFIGS = ("linux_ext4", "linux_sshfs_tmpfs")
SHARDS = 2


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src`` directory."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no source tree at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def digest(trace_text: str, profile_rows: Sequence[dict]) -> str:
    """The reference key of one verdict: trace text plus per-platform
    profile rows (``ConformanceProfile.to_dict`` form), in platform
    order so the primary model's position does not matter."""
    rows = sorted(profile_rows, key=lambda row: row["platform"])
    blob = trace_text + json.dumps(rows, sort_keys=True,
                                   separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:10]


# -- the default-plan slice ---------------------------------------------------

def _strategies():
    from repro.gen import DEFAULT_STRATEGY_NAMES, REGISTRY
    return [REGISTRY.get(name) for name in DEFAULT_STRATEGY_NAMES]


def slice_plan(fraction: int = 1):
    """The slice families as one lazy plan; ``fraction > 1`` keeps the
    first ``ceil(n/fraction)`` scripts of each (the self-test's size)."""
    from repro.gen import as_plan, union
    return union(*(as_plan(s).take(-(-s.estimate() // fraction))
                   for s in _strategies() if s.name in SLICE_FAMILIES),
                 label="slice")


def slice_indices(fraction: int = 1) -> List[int]:
    """Default-plan indices of :func:`slice_plan`'s scripts, in order."""
    indices: List[int] = []
    offset = 0
    for strategy in _strategies():
        n = strategy.estimate()
        if strategy.name in SLICE_FAMILIES:
            indices.extend(range(offset, offset + -(-n // fraction)))
        offset += n
    return indices


def random_plan(seed: int, count: int = RANDOM_COUNT):
    """The randomized population in seeded order, and the reference ids
    (``j`` for ``random_script(j)``) in that order."""
    from repro.gen import RandomizedStrategy, union
    order = list(range(count))
    random.Random(seed).shuffle(order)  # the permutation shuffle() makes
    return union(RandomizedStrategy(count=count, seed=0,
                                    length=RANDOM_LENGTH,
                                    multi_process=True)).shuffle(seed), order


def serve_stream(seed: int, stride: int = SERVE_STRIDE):
    """``(config, plan index, trace text)`` requests, shuffled by seed,
    and the sampled scripts.

    Each sampled default-plan script is executed on both configurations,
    so the stream has the exact repeats the two configurations agree on.
    """
    from repro.executor import execute_script
    from repro.fsimpl import config_by_name
    from repro.gen import default_plan
    from repro.script import print_trace

    rng = random.Random(seed)
    picked = [(i, s) for i, s in enumerate(default_plan().scripts())
              if i % stride == 0]
    requests = [(config, i, print_trace(
        execute_script(config_by_name(config), script)))
        for config in SERVE_CONFIGS for i, script in picked]
    rng.shuffle(requests)
    return requests, [script for _, script in picked]


# -- input properties ---------------------------------------------------------

def prefix_nodes(scripts: Iterable) -> Tuple[int, int]:
    """(steps, distinct prefix nodes) of a script population."""
    root: Dict = {}
    steps = nodes = 0
    for script in scripts:
        node = root
        for item in script.items:
            steps += 1
            child = node.get(item)
            if child is None:
                child = node[item] = {}
                nodes += 1
            node = child
    return steps, nodes


def repeat_share(texts: Sequence[str]) -> float:
    """Share of texts that exactly repeat an earlier one."""
    return (len(texts) - len(set(texts))) / len(texts) if texts else 0.0


def input_properties(scripts: Sequence, texts: Sequence[str],
                     max_line: int) -> dict:
    """What a unit's inputs are: scripts, steps, how much of them is
    shared, trace bytes and the largest request line."""
    steps, nodes = prefix_nodes(scripts)
    return {"scripts": len(scripts), "steps": steps, "prefix_nodes": nodes,
            "prefix_share": steps / nodes if nodes else 0.0,
            "repeat_share": repeat_share(texts),
            "trace_bytes": sum(len(t.encode()) for t in texts),
            "max_line_bytes": max_line}


def environment() -> dict:
    """Where a run happened: git sha (when the checkout is a git
    repository), a digest of the ``repro`` sources, Python, CPUs."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "nproc": os.cpu_count()}


def load_refs() -> dict:
    return json.loads(REFS.read_text())
