"""Randomized test generation (paper sections 8-9).

The paper notes SibylFS "also supports" randomized testing as a
low-cost alternative to combinatorial generation: because the oracle
decides conformance, random scripts need no per-test expected outcomes.
:func:`random_script` produces seeded, reproducible scripts whose calls
are biased toward name collisions (a small name pool) so that the
interesting error paths are actually hit.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.core import commands as C
from repro.core.flags import OpenFlag, SeekWhence
from repro.script.ast import CreateEvent, Script, ScriptItem, ScriptStep

#: The name pool: few names => frequent collisions => frequent error
#: paths (the same bias equivalence partitioning builds in manually).
NAMES = ("a", "b", "c", "d", "f", "s")
MODES = (0o777, 0o755, 0o700, 0o644, 0o000)
DATA = (b"", b"x", b"hello", b"0123456789")


def _random_path(rng: random.Random) -> str:
    depth = rng.choice((1, 1, 1, 2, 2, 3))
    path = "/".join(rng.choice(NAMES) for _ in range(depth))
    if rng.random() < 0.15:
        path = "/" + path
    if rng.random() < 0.15:
        path += "/"
    return path


def _random_flags(rng: random.Random) -> OpenFlag:
    flags = rng.choice((OpenFlag.O_RDONLY, OpenFlag.O_WRONLY,
                        OpenFlag.O_RDWR))
    for extra in (OpenFlag.O_CREAT, OpenFlag.O_EXCL, OpenFlag.O_TRUNC,
                  OpenFlag.O_APPEND, OpenFlag.O_DIRECTORY,
                  OpenFlag.O_NOFOLLOW):
        if rng.random() < 0.2:
            flags |= extra
    return flags


def _random_command(rng: random.Random) -> C.OsCommand:
    path = _random_path(rng)
    fd = rng.randint(1, 8)
    choice = rng.randrange(20)
    if choice == 0:
        return C.Mkdir(path, rng.choice(MODES))
    if choice == 1:
        return C.Rmdir(path)
    if choice == 2:
        return C.Unlink(path)
    if choice == 3:
        return C.Open(path, _random_flags(rng), rng.choice(MODES))
    if choice == 4:
        return C.Close(fd)
    if choice == 5:
        return C.Link(path, _random_path(rng))
    if choice == 6:
        return C.Rename(path, _random_path(rng))
    if choice == 7:
        return C.Symlink(_random_path(rng), path)
    if choice == 8:
        return C.Readlink(path)
    if choice == 9:
        return C.StatCmd(path)
    if choice == 10:
        return C.LstatCmd(path)
    if choice == 11:
        return C.Truncate(path, rng.randint(-1, 40))
    if choice == 12:
        return C.Read(fd, rng.randint(0, 32))
    if choice == 13:
        return C.Write(fd, rng.choice(DATA))
    if choice == 14:
        return C.Lseek(fd, rng.randint(-8, 40),
                       rng.choice(list(SeekWhence)))
    if choice == 15:
        return C.Opendir(path)
    if choice == 16:
        return C.Readdir(rng.randint(1, 3))
    if choice == 17:
        return C.Chdir(path)
    if choice == 18:
        return C.Chmod(path, rng.choice(MODES))
    return C.Pwrite(fd, rng.choice(DATA), rng.randint(-1, 30))


def random_script(seed: int, length: int = 25,
                  multi_process: bool = False) -> Script:
    """A reproducible random script (same seed, same script)."""
    rng = random.Random(seed)
    items: List[ScriptItem] = []
    pids: Sequence[int] = (1,)
    if multi_process:
        items.append(CreateEvent(pid=2, uid=1000, gid=1000))
        pids = (1, 1, 2)
    for _ in range(length):
        items.append(ScriptStep(pid=rng.choice(pids),
                                cmd=_random_command(rng)))
    return Script(name=f"random___seed{seed}", items=tuple(items))


def random_suite(count: int, *, base_seed: int = 0, length: int = 25,
                 multi_process: bool = False) -> List[Script]:
    """``count`` reproducible random scripts."""
    return [random_script(base_seed + i, length=length,
                          multi_process=multi_process)
            for i in range(count)]
