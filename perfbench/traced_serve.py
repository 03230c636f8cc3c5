"""Run ``repro serve`` with the benchmark's tracer, armed by SIGUSR1.

    python3 perfbench/traced_serve.py SPANS_PATH serve --port 0 ...

Everything after ``SPANS_PATH`` is passed to the ``repro.cli`` entry
point unchanged, so while the tracer is disarmed the daemon runs exactly
as ``python -m repro.cli serve`` does.  SIGUSR1 installs the planning,
execution, serving and storage wrappers of :class:`spans.Tracer` and
SIGUSR2 removes them; when the daemon shuts down its spans are written
to ``SPANS_PATH``.
"""

from __future__ import annotations

import signal
import sys

from spans import Tracer


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()

    def arm(_signum, _frame) -> None:
        if not tracer.installed:
            tracer.install(serving=True)

    def disarm(_signum, _frame) -> None:
        if tracer.installed:
            tracer.uninstall()

    signal.signal(signal.SIGUSR1, arm)
    signal.signal(signal.SIGUSR2, disarm)

    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        for signum in (signal.SIGUSR1, signal.SIGUSR2):
            signal.signal(signum, signal.SIG_IGN)
        disarm(None, None)
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
