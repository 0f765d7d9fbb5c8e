"""``python -m benchmarks.suite``: see :mod:`benchmarks.suite.cli`."""

import sys

from benchmarks.suite.cli import main

if __name__ == "__main__":
    sys.exit(main())
