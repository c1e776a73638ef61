"""Section 7.3.5: the posixovl/VFAT storage leak.

The paper's probe program repeatedly creates files with hard links and
deletes them using rename; posixovl fails to decrement the displaced
link count, so the volume fills even though it is empty — eventually
``open(O_CREAT)`` fails and the space never returns, "even through an
unmount cycle".  The bench replays that loop on the leaking
configuration until the volume is exhausted, and on a healthy ext4-like
configuration where it runs forever (bounded here), and reports the
rounds-to-exhaustion.
"""

import dataclasses

from conftest import record_table

from repro.core import commands as C
from repro.core.errors import Errno
from repro.core.values import Err
from repro.core.flags import OpenFlag
from repro.fsimpl import KernelFS, Quirks, config_by_name

MAX_ROUNDS = 200


def churn_until_enospc(quirks: Quirks, chunk_size: int = 4000):
    """One paper-style churn round: create + fill a file, create a
    second name, rename over the first, unlink.  Returns the round at
    which ENOSPC struck, or None."""
    k = KernelFS(quirks)
    k.create_process(1, 0, 0)
    fd = 2
    for round_no in range(1, MAX_ROUNDS + 1):
        ret = k.call(1, C.Open("victim",
                               OpenFlag.O_CREAT | OpenFlag.O_WRONLY,
                               0o644))
        if ret == Err(Errno.ENOSPC):
            return round_no, k
        fd = ret.value.value
        if k.call(1, C.Write(fd, b"x" * chunk_size)) == \
                Err(Errno.ENOSPC):
            return round_no, k
        k.call(1, C.Close(fd))
        ret = k.call(1, C.Open("tmp",
                               OpenFlag.O_CREAT | OpenFlag.O_WRONLY,
                               0o644))
        if ret == Err(Errno.ENOSPC):
            return round_no, k
        fd = ret.value.value
        k.call(1, C.Close(fd))
        k.call(1, C.Rename("tmp", "victim"))
        k.call(1, C.Unlink("victim"))
    return None, k


def test_sec735_posixovl_storage_leak(benchmark):
    leaky = config_by_name("linux_posixovl_vfat")
    healthy = dataclasses.replace(
        leaky, name="vfat_fixed", rename_link_count_leak=False)

    leak_round, leak_kernel = benchmark.pedantic(
        lambda: churn_until_enospc(leaky), rounds=1, iterations=1)
    ok_round, ok_kernel = churn_until_enospc(healthy)

    record_table(
        "sec735_posixovl_leak",
        f"volume capacity: {leaky.capacity_bytes} bytes; churn chunk "
        f"4000 bytes\n"
        f"posixovl/VFAT (leaking): ENOSPC after {leak_round} rounds; "
        f"used={leak_kernel.used_bytes()} bytes with an empty tree\n"
        f"fixed overlay          : no ENOSPC in {MAX_ROUNDS} rounds; "
        f"leaked={ok_kernel.leaked_bytes} bytes\n"
        "paper: 64 MB-file loop SEGFAULTs (3.14) / fails with ENOENT "
        "(3.19); space not reclaimed even through an unmount cycle")

    assert leak_round is not None, "the leak never exhausted the volume"
    assert ok_round is None, "the healthy overlay leaked"
    # The 'volume' is full although no user file remains.
    assert leak_kernel.used_bytes() >= leaky.capacity_bytes - 4000
    assert ok_kernel.leaked_bytes == 0
