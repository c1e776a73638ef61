#!/usr/bin/env python3
"""CI smoke for the checking service: `repro serve` end to end.

Starts a real ``repro serve`` subprocess (fresh interpreter, its own
shard workers), submits the handwritten suite over the line-JSON
socket through :class:`~repro.service.ServiceClient`, and asserts every
served per-platform conformance profile is **bit-for-bit** identical to
what an in-process :class:`~repro.api.SerialBackend` computes for the
same traces.  Between the suite's two halves it sends a trace whose
check raises (``OverflowError``) and one that does not parse, which the
server passes to its shard unparsed (``ParseError``): those two requests
must get the only error replies, one naming each exception, and the
second half must still be served exactly, by the same pool.  Then
it sends the whole suite again: every repeat must get the first pass's
verdict from the pool's verdict memo (``verdict_hits`` rises by the
suite's size), with both passes counted in ``traces_submitted`` and no
restart of the pool.  Also exercises ``status`` and the clean
``shutdown`` path, and checks the server wrote its final stats JSON
(uploaded as a CI artifact).

Usage::

    PYTHONPATH=src python benchmarks/smoke_serve.py \
        [--shards N] [--stats-json OUT.json]

Exit codes: 0 = parity + lifecycle clean; 1 = any mismatch or a server
that failed to start/stop.
"""

import argparse
import json
import os
import pathlib
import re
import subprocess
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.executor import execute_script  # noqa: E402
from repro.fsimpl import config_by_name  # noqa: E402
from repro.harness.backends import SerialBackend  # noqa: E402
from repro.oracle import ConformanceProfile  # noqa: E402
from repro.script import print_trace  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.testgen.generator import gen_handwritten_tests  # noqa: E402

MODEL = "all"
CONFIG = "linux_sshfs_tmpfs"  # quirky: served deviations under test
READY_RE = re.compile(r"repro serve: listening on (\S+)")
#: Parses, but checking it raises: the model stores file content
#: densely, so a truncate past index size overflows.
OVERFLOWING = ('@type trace\n# Test overflowing\n'
               'open "f" [O_CREAT;O_RDWR] 0o644\nRV_num(3)\n'
               'truncate "f" 999999999999999999999999\nRV_none\n')
#: Does not parse: its one line is neither a call nor a return.
MANGLED = "@type trace\nmangled"


def start_server(shards: int, stats_json: pathlib.Path):
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--model", MODEL, "--shards", str(shards),
         "--stats-json", str(stats_json)],
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--stats-json", default="benchmarks/results/"
                        "smoke_serve_stats.json", metavar="PATH")
    args = parser.parse_args(argv)

    stats_json = pathlib.Path(args.stats_json)
    stats_json.parent.mkdir(parents=True, exist_ok=True)
    if stats_json.exists():
        stats_json.unlink()

    quirks = config_by_name(CONFIG)
    traces = [execute_script(quirks, script)
              for script in gen_handwritten_tests()]
    want = [outcome.profiles
            for outcome in SerialBackend().check_iter(MODEL, traces)]

    texts = [print_trace(t) for t in traces]
    half = len(texts) // 2
    proc, address = start_server(args.shards, stats_json)
    mismatches = repeat_mismatches = 0
    errors = []
    try:
        with ServiceClient(address) as client:
            verdicts, done = client.check_batch(texts[:half])
            for bad in (OVERFLOWING, MANGLED):
                try:
                    client.check(bad)
                except RuntimeError as exc:
                    errors.append(str(exc))
            rest, done = client.check_batch(texts[half:])
            verdicts += rest
            for trace, verdict, profiles in zip(traces, verdicts,
                                                want):
                got = tuple(ConformanceProfile.from_dict(row)
                            for row in verdict["profiles"])
                if got != profiles or verdict["name"] != trace.name:
                    mismatches += 1
                    print(f"MISMATCH: {trace.name}")
            first = client.status()["engine_stats"]
            repeats, done = client.check_batch(texts)
            for trace, verdict, again in zip(traces, verdicts, repeats):
                if again != dict(verdict, id=again["id"]):
                    repeat_mismatches += 1
                    print(f"REPEAT MISMATCH: {trace.name}")
            status = client.status()["engine_stats"]
            client.shutdown()
        returncode = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()

    print(f"\nserved {len(traces)} traces from {CONFIG} "
          f"(model={MODEL}, {args.shards} shards) via {address}")
    print(f"parity vs SerialBackend: {mismatches} mismatches")
    print(f"second pass vs first: {repeat_mismatches} mismatches")
    print(f"error replies: {errors}")
    memo_hits = status.get("verdict_hits", 0) - first.get("verdict_hits", 0)
    print(f"server stats: submitted={status.get('traces_submitted')}, "
          f"cold starts={status.get('pool_cold_starts')}, "
          f"second-pass memo hits={memo_hits}, "
          f"last batch_done count={done.get('count')}")

    failed = False
    if mismatches or len(verdicts) != len(traces):
        print("FAIL: served profiles differ from the serial backend")
        failed = True
    if len(errors) != 2 or "OverflowError" not in errors[0] \
            or "ParseError" not in errors[1]:
        print("FAIL: the raising and the malformed trace must get "
              "exactly one error reply each, naming OverflowError and "
              "ParseError")
        failed = True
    if returncode != 0:
        print(f"FAIL: server exited with {returncode}")
        failed = True
    if status.get("pool_cold_starts") != 1:
        print("FAIL: the shard pool was restarted")
        failed = True
    if repeat_mismatches or len(repeats) != len(traces):
        print("FAIL: a repeated trace got a different verdict")
        failed = True
    if memo_hits != len(traces):
        print(f"FAIL: the second pass made {memo_hits} verdict-memo "
              f"hits, not {len(traces)}")
        failed = True
    if status.get("traces_submitted") != 2 * len(traces) + 2:
        print("FAIL: server did not account for every submitted trace")
        failed = True
    if not stats_json.exists():
        print(f"FAIL: server wrote no stats JSON at {stats_json}")
        failed = True
    else:
        final = json.loads(stats_json.read_text())
        print(f"final stats JSON at {stats_json}: "
              f"{final.get('traces_submitted')} traces, "
              f"{final.get('shards')} shards")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
