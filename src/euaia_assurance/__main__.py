"""The process entry of ``python -m euaia_assurance`` and the ``euaia-assure`` script."""

import atexit
import os
import sys

from .cli import main


def run() -> None:
    """Run the command line's command and end the process with its status.

    The process ends with ``os._exit``, skipping the interpreter's teardown,
    whose final collections and freeing of every module's objects cost a
    command several milliseconds and show nothing. What an exit shows stays:
    the ``atexit`` handlers run once, in order, and stdout and then stderr
    are flushed. A flush that fails, an attached profiler, tracer or
    ``sys.monitoring`` tool, or a second thread gets the interpreter's own
    exit, so their output and the exit status are what they always were.
    In-process callers use ``cli.main``, which returns the status.
    """
    status = main()
    if _needs_teardown():
        raise SystemExit(status)
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # whatever it is, the interpreter's exit reports it as it always has
        raise SystemExit(status) from None
    os._exit(status)


def _needs_teardown() -> bool:
    """Whether something in the process acts at the interpreter's exit: a
    profiler or tracer, a ``sys.monitoring`` tool (Python 3.12+), or a
    thread the interpreter would join first."""
    monitoring = getattr(sys, "monitoring", None)
    threading = sys.modules.get("threading")
    return bool(
        sys.getprofile()
        or sys.gettrace()
        or (monitoring and any(map(monitoring.get_tool, range(6))))  # every tool id
        or (threading and threading.active_count() > 1)
    )


if __name__ == "__main__":
    run()
