"""Profile the CompCpy micro-simulation: thin wrapper over repro.profiling.

Usage (repo root)::

    PYTHONPATH=src python benchmarks/perf/profile_micro.py [--size N]
        [--top N] [--sort KEY]

Equivalent to ``python -m repro profile`` — kept next to the benchmarks so
the perf workflow (profile -> optimise -> datapath_bench -> gate) lives in
one directory.
"""

import sys

from repro.profiling import main

if __name__ == "__main__":
    sys.exit(main())
