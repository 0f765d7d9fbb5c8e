"""Run the suite from a checkout's root without setting ``PYTHONPATH``.

    python3 benchmarks/suite/run.py --workload W --seed N --seconds S \
        --trace 0|1

Puts the checkout's ``src`` and root on ``sys.path`` and hands the
arguments to :func:`benchmarks.suite.cli.main`.  Exits 2, printing no
result, when the checkout has no ``src/repro`` to measure.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def main():
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("run.py: no src/repro under %s; nothing to measure" % ROOT,
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from benchmarks.suite.cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
