"""cProfile harness for the CompCpy micro-simulation hot path.

The batched line-op fast path was tuned off exactly this view: one warmed
``tls_encrypt`` call profiled end to end, sorted by cumulative or internal
time.  Exposed as ``python -m repro profile`` and
``benchmarks/perf/profile_micro.py`` so the next optimisation round starts
from the same instrument instead of re-deriving it.
"""

from __future__ import annotations

import cProfile
import io
import pstats


def run_profile(
    size: int = 65536,
    top: int = 25,
    sort: str = "cumulative",
) -> str:
    """Profile one warmed TLS offload of `size` bytes; returns the report.

    `sort` is any :mod:`pstats` sort key (``cumulative``, ``tottime``, …).
    """
    from repro.core.offload_api import SessionConfig, SmartDIMMSession

    key, nonce, aad = bytes(range(16)), bytes(range(12)), b"\x17\x03\x03"
    payload = bytes((7 * i + 3) & 0xFF for i in range(size))
    session = SmartDIMMSession(SessionConfig())
    session.tls_encrypt(key, nonce, payload, aad)  # warm: tables, caches
    profiler = cProfile.Profile()
    profiler.enable()
    session.tls_encrypt(key, nonce, payload, aad)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats(sort).print_stats(top)
    return stream.getvalue()


def main(argv=None) -> int:
    """CLI entry shared by ``python -m repro profile`` and profile_micro.py."""
    import argparse

    parser = argparse.ArgumentParser(
        description="profile one TLS offload through the micro-simulation"
    )
    parser.add_argument("--size", type=int, default=65536,
                        help="record bytes (default 65536)")
    parser.add_argument("--top", type=int, default=25,
                        help="rows to print (default 25)")
    parser.add_argument("--sort", default="cumulative",
                        help="pstats sort key (default cumulative)")
    args = parser.parse_args(argv)
    print(run_profile(size=args.size, top=args.top, sort=args.sort))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
