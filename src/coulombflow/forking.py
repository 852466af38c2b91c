"""Forked child processes, for simulate's snapshot writers and verify's suite tasks.

A child runs one callable on its share of the work and leaves by os._exit,
never unwinding into the caller: exit code 0 if the callable returned, 1 if
it raised, after printing the traceback.  The parent reaps every child,
also when it fails itself.  Where os.fork or os.sched_getaffinity is
missing there is one usable core, and callers do their work in the main
process.
"""

from __future__ import annotations

import os
import signal
import sys
import warnings

__all__ = ["Children", "usable_cores"]


def usable_cores() -> int:
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


class Children:
    """The children forked so far and not yet reaped, each with its share."""

    def __init__(self):
        self.shares = {}  # pid -> share

    def __len__(self) -> int:
        return len(self.shares)

    def spawn(self, work, share) -> None:
        """Fork a child that runs work(share)."""
        with warnings.catch_warnings():
            # Python >= 3.12 warns on a fork while other threads exist.
            # numpy's bundled OpenBLAS stops its pool threads before a fork
            # (a pthread_atfork handler) and starts them again at its next
            # call, and the forking thread makes no BLAS call meanwhile, so
            # a child's matrix products find no lock held by a thread that
            # did not survive the fork.
            warnings.filterwarnings("ignore", "This process .* is multi-threaded")
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                work(share)
                code = 0
            except BaseException:
                # os._exit below drops the exception: print it here
                sys.excepthook(*sys.exc_info())
                sys.stderr.flush()
            finally:
                os._exit(code)
        self.shares[pid] = share

    def reap(self, flags: int = 0) -> list:
        """Reap the children that have exited, or all of them when flags is 0.

        Returns the shares of those that exited nonzero.
        """
        failed = []
        for pid in list(self.shares):
            done, status = os.waitpid(pid, flags)
            if done:
                share = self.shares.pop(pid)
                if status != 0:
                    failed.append(share)
        return failed

    def close(self, kill: bool) -> None:
        """Reap every child left, after killing it if kill is set."""
        for pid in self.shares:
            if kill:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        self.shares.clear()
