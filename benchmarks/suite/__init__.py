"""The benchmark suite: four workloads, end-to-end and per-layer metrics.

See ``README.md`` in this directory for the workloads, the metrics, the
layer map, and how the bounds were derived; ``cli.py`` for the command
line.
"""
