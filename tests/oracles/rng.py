"""The per-byte :meth:`~repro.sim.rng.RngStream.randbytes` the one-draw
version replaced, checked by ``tests/test_sim_rng.py``."""

from __future__ import annotations


def randbytes(stream, n: int) -> bytes:
    """``n`` bytes from ``n`` calls of ``getrandbits(8)`` on the stream."""
    return bytes(stream.getrandbits(8) for _ in range(n))
