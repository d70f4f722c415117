"""Named, independently seeded random streams.

Every experiment takes a single integer seed. Subsystems pull their own
stream by name so that, e.g., adding more domains to the web population does
not perturb the blockchain simulation — a property the tests rely on.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(root_seed: int, *names: str) -> int:
    """Derive a stable 64-bit sub-seed from a root seed and a name path.

    Uses SHA-256 over the root seed and the names joined by ``/``, so
    derivation is stable across Python versions and processes (unlike
    ``hash()``). One encode and one hash call per seed: the streamed
    population derives several per site.
    """
    key = "/".join((str(int(root_seed)),) + names)
    return int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")


def hash_unit(root_seed: int, *names: str) -> float:
    """A uniform draw in ``[0, 1)`` that is a pure function of its key.

    Unlike consuming an :class:`RngStream`, the value does not depend on
    how many draws happened before it — which is what lets the fault plan
    make identical decisions no matter the order in which shards, threads,
    or resumed campaigns ask.
    """
    return derive_seed(root_seed, *names) / 2**64


class RngStream:
    """A named random stream rooted at an experiment seed.

    Wraps :class:`random.Random` and adds the distribution helpers the
    population generators need (Zipf/power-law, bounded Pareto, exponential
    inter-arrivals).
    """

    def __init__(self, root_seed: int, *names: str) -> None:
        self.root_seed = int(root_seed)
        self.names = tuple(names)
        self._rng = random.Random(derive_seed(root_seed, *names))

    def substream(self, *names: str) -> "RngStream":
        """A child stream; independent of the parent's consumption order."""
        return RngStream(self.root_seed, *(self.names + names))

    # -- thin wrappers ------------------------------------------------------

    def random(self) -> float:
        return self._rng.random()

    def randint(self, a: int, b: int) -> int:
        return self._rng.randint(a, b)

    def uniform(self, a: float, b: float) -> float:
        return self._rng.uniform(a, b)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def choices(self, population: Sequence[T], weights: Sequence[float], k: int = 1) -> list:
        return self._rng.choices(population, weights=weights, k=k)

    def sample(self, population: Sequence[T], k: int) -> list:
        return self._rng.sample(population, k)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def expovariate(self, lambd: float) -> float:
        return self._rng.expovariate(lambd)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    def randbytes(self, n: int) -> bytes:
        """``n`` bytes, each the top byte of one 32-bit Mersenne Twister
        output: the bytes ``n`` calls of ``getrandbits(8)`` would give, and
        the same generator state afterwards, in one draw."""
        if n <= 0:
            return b""
        return self._rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]

    def getrandbits(self, k: int) -> int:
        return self._rng.getrandbits(k)

    # -- distribution helpers ------------------------------------------------

    def zipf_rank_weights(self, n: int, alpha: float) -> list:
        """Normalized Zipf weights for ranks 1..n with exponent ``alpha``."""
        if n <= 0:
            raise ValueError("n must be positive")
        weights = [1.0 / (rank ** alpha) for rank in range(1, n + 1)]
        total = sum(weights)
        return [w / total for w in weights]

    def bounded_pareto(self, alpha: float, lo: float, hi: float) -> float:
        """Draw from a Pareto distribution truncated to ``[lo, hi]``.

        Inverse-CDF sampling of the bounded Pareto; heavy upper tails model
        e.g. the 1e19-hash short links of Figure 4.
        """
        if not (0 < lo < hi):
            raise ValueError("require 0 < lo < hi")
        u = self._rng.random()
        la, ha = lo ** alpha, hi ** alpha
        return (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / alpha)

    def exponential_interarrivals(self, rate: float, horizon: float) -> Iterator[float]:
        """Yield absolute event times of a Poisson process on ``[0, horizon)``."""
        if rate <= 0:
            return
        t = 0.0
        while True:
            t += self._rng.expovariate(rate)
            if t >= horizon:
                return
            yield t
