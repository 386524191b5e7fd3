"""One set-up measurement in a fresh interpreter.

    python3 bench/setup_probe.py <workload> <config.json|-> <t0> [--small]

`t0` is the CLOCK_MONOTONIC reading the parent took just before starting
this process.  The probe imports snls from the checkout's `src`, runs the
workload's set-up (import, config load, materialize, first get_plan) and
prints the seconds from `t0` to the end of set-up.
"""

import os
import sys
import time


def main(argv) -> int:
    name, config_path, t0 = argv[0], argv[1], float(argv[2])
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)
    import workloads

    workloads.make(name, small="--small" in argv).setup(None if config_path == "-" else config_path)
    print(repr(time.monotonic() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
