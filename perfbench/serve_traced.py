"""``python perfbench/serve_traced.py DUMP.json [serve flags]``: a traced server.

Runs exactly what ``python -m repro serve [serve flags]`` runs, with the
benchmark's timing wrappers (:mod:`tracer`) installed first. ``SIGUSR1``
resets the records; ``SIGUSR2`` writes them, with the process's CPU
seconds since the reset, to ``DUMP.json``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

from tracer import Tracer


def main() -> int:
    dump_path = sys.argv[1]
    tracer = Tracer().install()
    cpu = [time.process_time()]

    def reset(signum, frame) -> None:
        tracer.reset()
        cpu[0] = time.process_time()

    def dump(signum, frame) -> None:
        summary = tracer.summary()
        summary["cpu_s"] = time.process_time() - cpu[0]
        partial = dump_path + ".part"
        with open(partial, "w", encoding="utf-8") as handle:
            json.dump(summary, handle)
        os.replace(partial, dump_path)

    signal.signal(signal.SIGUSR1, reset)
    signal.signal(signal.SIGUSR2, dump)

    from repro.cli import main as repro_main

    return repro_main(["serve", *sys.argv[2:]])


if __name__ == "__main__":
    sys.exit(main())
