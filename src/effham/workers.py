"""Independent calls run on several cores by forked children.

`run(calls)` returns `[call() for call in calls]`, with `calls[0]` run in
this process and each later call in a child forked for it, which sends its
result (or its exception) back pickled over a pipe and leaves by
`os._exit`.  A child's exception is raised here with its type and message;
one that does not pickle comes back as a `RuntimeError` that names it.
Signals are blocked across each fork and its bookkeeping, so no handler
runs before the child's pid is recorded; whatever leaves `run`, a signal
handler's exception during the parent's own call included, every child not
yet reaped is killed and reaped first.  Each child moves to a core of the
affinity mask other than the one this process runs on, in turn: on a host
whose cpuset turns load balancing off, a child would otherwise stay on its
parent's core and the two would share it.

Children are forked, not spawned: a spawned worker re-imports numpy and
effham, about 0.14 s per command.  The calls run in process, one after
another, with one core (`_cores`), where `os.fork` or `os.sched_getaffinity`
is missing, and on Python 3.12 and later: there `os.fork()` warns with a
DeprecationWarning in a process with more than one thread, native BLAS
workers included, and a warning raised as an error would leave a child
whose pid the parent never learns.  The concentration experiment's path
shards and a large sweep's two momentum halves run here.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
from typing import Callable, List, Sequence


def _cores() -> int:
    """The number of cores this process may run on, or 1 where `run` does
    not fork (see the module docstring)."""
    if (sys.version_info >= (3, 12) or not hasattr(os, "fork")
            or not hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _core() -> int:
    """The core this process runs on (field 39 of `/proc/self/stat`), or
    -1 where that cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return -1


def _serve(call: Callable, write: int, mask, core: int) -> None:
    """A forked child's part of `run`: restore the signal mask, move to
    `core` (where the kernel lets it), run `call`, write `(True, result)` or
    `(False, exception)` pickled to `write` and leave by `os._exit`, so it
    never returns into its caller, runs no atexit handler and flushes no
    buffer it inherited."""
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, {core})
        try:
            result = True, call()
        except BaseException as exc:
            result = False, exc
        try:
            payload = pickle.dumps(result)
            if not result[0]:
                pickle.loads(payload)
        except Exception:       # an exception that does not pickle
            error = result[1]
            payload = pickle.dumps((False, RuntimeError(
                f"{type(error).__name__}: {error}")))
        view = memoryview(payload)
        while view:
            view = view[os.write(write, view):]
    finally:
        os._exit(0)


def run(calls: Sequence[Callable]) -> List:
    """The results of `calls`, in order: `calls[0]` run here, each later
    call in a forked child, unless `_cores()` is 1 (then all run here)."""
    if len(calls) == 1 or _cores() == 1:
        return [call() for call in calls]
    # the children's cores (see the module docstring)
    allowed = os.sched_getaffinity(0)
    cores = sorted(allowed - {_core()} or allowed)
    children = {}       # pid: the read end of its pipe, until it is reaped
    try:
        for j, call in enumerate(calls[1:], 1):
            read, write = os.pipe()
            # no signal handler runs between the fork and the bookkeeping
            mask = signal.pthread_sigmask(signal.SIG_BLOCK,
                                          signal.valid_signals())
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(call, write, mask, cores[(j - 1) % len(cores)])
                children[pid] = read
            except OSError:     # no child
                os.close(read)
                raise
            finally:
                os.close(write)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = [calls[0]()]
        for pid, read in list(children.items()):
            # unpickled from the pipe as it arrives: a payload read whole
            # first raised the peak RSS of a sweep_1d run by about 0.5 MB
            try:
                with open(read, "rb", closefd=False) as pipe:
                    done, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):  # a cut-off payload
                done = None
            _, status = os.waitpid(pid, 0)
            del children[pid]
            os.close(read)
            if status or done is None:
                raise RuntimeError(f"a worker process ended with wait "
                                   f"status {status} before its result")
            if not done:
                raise value
            results.append(value)
    finally:
        for pid, read in children.items():
            # a signal may land between a reap and its bookkeeping
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            os.close(read)
    return results
