"""perfbench: host-time performance benchmark of the ``repro`` stack.

Five workloads, each answered in a fresh single-threaded worker
process; end-to-end metrics from untraced iterations, a per-layer
ledger from traced ones.  See ``perfbench/README.md`` and
``python -m perfbench --help``.
"""
