"""Reference versions of :mod:`repro.sim.rng` helpers, checked by
``tests/test_sim_rng.py``: the per-byte
:meth:`~repro.sim.rng.RngStream.randbytes` the one-draw version replaced,
and the name-by-name :func:`~repro.sim.rng.derive_seed` the one-pass
version replaced."""

from __future__ import annotations

import hashlib


def randbytes(stream, n: int) -> bytes:
    """``n`` bytes from ``n`` calls of ``getrandbits(8)`` on the stream."""
    return bytes(stream.getrandbits(8) for _ in range(n))


def derive_seed(root_seed: int, *names: str) -> int:
    """The first 8 bytes of SHA-256 fed the root seed, then ``/`` and each
    name in turn, one ``update`` at a time."""
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode("ascii"))
    for name in names:
        digest.update(b"/")
        digest.update(name.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")
