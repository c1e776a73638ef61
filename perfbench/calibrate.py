"""How fast the machine runs right now, against its usual speed.

A shared machine's speed drifts by up to 1.7 times over minutes, as
other tenants come and go, and sometimes by 3 times for a minute or two,
so two runs of the same code can read far apart.  :func:`slowdown`
times a fixed piece of work that uses the machine the way a workload
does, and none of the program's code:

* ``pair``: two processes computing at once, as shard workers beside
  their parent do;
* ``ping``: one-byte round trips over pipes between two processes, as a
  client, its server and the server's workers make.

The probe's time is divided by its time at this machine's usual speed,
so 1.0 is the usual speed and 1.5 half as fast again.  Neither probe
slows in proportion to every workload: the ratio is raised to the power
that best held each workload's numbers steady over records of ten-run
sets, both calm and with a contended spell in them (see ``README.md``).
The runner calibrates before every unit and scales that unit's times.
"""

from __future__ import annotations

import os
import time

#: The probes' times at the usual speed of the 2-CPU machine the
#: benchmark was built on (medians over an hour of runs, Python 3.11).
PAIR_REF_S = 0.14
PING_REF_S = 0.026
SPIN_ROUNDS = 150_000
PING_ROUNDS = 1500

#: Per workload: the probe that tracks it, and the power of its ratio.
#: ``serve_stream`` is a chain of round trips and slows with ``ping``;
#: the plan lanes compute, and slow about as the square root of ``pair``
#: (``plan_serial`` and ``random_check`` were not fitted).
PROBES = {"plan_serial": ("pair", 0.5), "plan_sharded": ("pair", 0.5),
          "random_check": ("pair", 0.5), "serve_stream": ("ping", 1.0)}


def spin() -> int:
    table: dict = {}
    total = 0
    for i in range(SPIN_ROUNDS):
        key = (i % 997, str(i % 31))
        table[key] = table.get(key, 0) + 1
        total += len(key[1]) * (i & 7)
    return total


def fork(body) -> int:
    """Run ``body`` in a child process; return its pid."""
    pid = os.fork()
    if pid == 0:
        try:
            body()
        finally:
            os._exit(0)
    return pid


def pair_s() -> float:
    """Seconds until two processes have each run :func:`spin`."""
    start = time.perf_counter()
    pids = []
    try:
        for _ in range(2):
            pids.append(fork(spin))
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
    return time.perf_counter() - start


def ping_s() -> float:
    """Seconds for ``PING_ROUNDS`` one-byte round trips to a child."""
    down_r, down_w = os.pipe()
    up_r, up_w = os.pipe()

    def echo():
        os.close(down_w)
        os.close(up_r)
        while os.read(down_r, 1):
            os.write(up_w, b".")

    pid = fork(echo)
    os.close(down_r)
    os.close(up_w)
    try:
        start = time.perf_counter()
        for _ in range(PING_ROUNDS):
            os.write(down_w, b".")
            os.read(up_r, 1)
        return time.perf_counter() - start
    finally:
        os.close(down_w)  # the child reads end of file and exits
        os.waitpid(pid, 0)
        os.close(up_r)


def slowdown(workload: str) -> float:
    """How much slower than usual ``workload`` should run right now."""
    probe, power = PROBES[workload]
    ratio = pair_s() / PAIR_REF_S if probe == "pair" \
        else ping_s() / PING_REF_S
    return ratio ** power
