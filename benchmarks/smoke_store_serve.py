#!/usr/bin/env python3
"""CI smoke for the durable campaign: `repro serve --store` across a
server restart.

A campaign bigger than one process's lifetime is the store's reason to
exist, so this smoke drives one through two server processes:

1. start ``repro serve --store DIR``, submit *half* the handwritten
   suite, terminate the server;
2. start a **fresh** server process on the same store, submit the
   *whole* suite (the first half again — content addressing must
   refuse it — plus the second half), terminate;
3. open the store and assert the folded survey view equals what a
   single-shot pass of the in-process oracle (``get_oracle(MODEL)``)
   over the full suite computes: same trace total, same per-platform
   accepted counts, zero duplicate rows across the restart.

The canonical survey view JSON is written for the CI artifact trail.

Usage::

    PYTHONPATH=src python benchmarks/smoke_store_serve.py \
        [--shards N] [--store DIR] [--survey-json OUT.json]

Exit codes: 0 = durable campaign matches the single-shot run;
1 = lost rows, duplicate rows, or a survey mismatch.
"""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.executor import execute_script  # noqa: E402
from repro.fsimpl import config_by_name  # noqa: E402
from repro.oracle import get_oracle  # noqa: E402
from repro.script import print_trace  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.store import CampaignStore  # noqa: E402
from repro.testgen.generator import gen_handwritten_tests  # noqa: E402

MODEL = "all"
CONFIG = "linux_sshfs_tmpfs"  # quirky: rejected traces in the survey
READY_RE = re.compile(r"repro serve: listening on (\S+)")


def start_server(shards: int, store: pathlib.Path):
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--model", MODEL, "--shards", str(shards),
         "--store", str(store)],
        stdout=subprocess.PIPE, text=True, env=env)
    deadline = time.monotonic() + 60
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        print(f"[server] {line.rstrip()}")
        match = READY_RE.search(line)
        if match:
            return proc, match.group(1)
    proc.kill()
    raise RuntimeError("server never printed its listening address")


def serve_once(shards: int, store: pathlib.Path, texts) -> None:
    proc, address = start_server(shards, store)
    try:
        with ServiceClient(address) as client:
            client.check_batch(texts)
            client.shutdown()
        returncode = proc.wait(timeout=60)
        if returncode != 0:
            raise RuntimeError(f"server exited with {returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="campaign store directory (default: a "
                             "temporary one)")
    parser.add_argument("--survey-json", default="benchmarks/results/"
                        "smoke_store_survey.json", metavar="PATH")
    args = parser.parse_args(argv)

    quirks = config_by_name(CONFIG)
    traces = [execute_script(quirks, script)
              for script in gen_handwritten_tests()]
    texts = [print_trace(t) for t in traces]
    half = len(texts) // 2

    # The single-shot baseline: one in-process pass over everything.
    expected = {"total": len(traces), "accepted": {}}
    oracle = get_oracle(MODEL)
    for trace in traces:
        for profile in oracle.check(trace).profiles:
            counts = expected["accepted"]
            counts.setdefault(profile.platform, 0)
            if profile.accepted:
                counts[profile.platform] += 1

    tmp = None
    if args.store is None:
        tmp = tempfile.TemporaryDirectory(prefix="smoke-store-")
        store_dir = pathlib.Path(tmp.name) / "campaign"
    else:
        store_dir = pathlib.Path(args.store)

    try:
        print(f"server 1: serving {half} of {len(texts)} traces into "
              f"{store_dir}")
        serve_once(args.shards, store_dir, texts[:half])
        print(f"server 2: restarted, serving all {len(texts)} "
              f"traces (first {half} must dedup)")
        serve_once(args.shards, store_dir, texts)

        with CampaignStore(store_dir, create=False) as store:
            survey = store.refresh_view("survey")
            survey_json = store.view_json("survey")
            rows = store.rows
        partition = f"serve:{MODEL}"
        got = survey["partitions"].get(partition, {})

        out = pathlib.Path(args.survey_json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(survey_json)
        print(f"survey JSON written to {out}")
    finally:
        if tmp is not None:
            tmp.cleanup()

    print(f"\ncampaign: {rows} rows after 2 server processes "
          f"({len(texts)} distinct traces served, "
          f"{half} re-submitted)")
    print(f"single-shot : total={expected['total']} "
          f"accepted={expected['accepted']}")
    print(f"store survey: total={got.get('total')} "
          f"accepted={got.get('accepted')}")

    failed = False
    if rows != len(texts):
        print(f"FAIL: expected {len(texts)} rows, store has {rows} "
              f"(dedup across the restart is broken)")
        failed = True
    if got.get("total") != expected["total"] or \
            got.get("accepted") != expected["accepted"]:
        print("FAIL: folded survey differs from the single-shot "
              "in-process pass")
        failed = True
    if not failed:
        print("OK: folded survey matches the single-shot run "
              "bit-for-bit")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
