"""Seeded random-number streams.

Every stochastic component of a simulation (network delay, workload
inter-arrival times, clock drift draws, fault injection) pulls from its
own named stream derived from a single master seed.  This gives two
properties the experiments rely on:

* **Reproducibility** — the same master seed always produces the same
  run, regardless of how many components exist.
* **Variance isolation** — changing one parameter (say, the internal
  message rate) does not perturb the random draws of unrelated
  components, which sharpens paired comparisons such as
  E[D_co] vs E[D_wt] in Figure 7.

Per name, one consumer and draws fixed by seed and name alone.  A
stream only drawn at build time (workload action lists) is a local
``random.Random(derive_seed(master_seed, name))``, never registered,
so forked systems do not carry it.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name.

    Uses SHA-256 so the mapping is stable across Python versions and
    platforms (unlike ``hash()``).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngRegistry:
    """A factory of named, independently-seeded :class:`random.Random` streams.

    >>> reg = RngRegistry(master_seed=42)
    >>> a = reg.stream("network")
    >>> b = reg.stream("clock.N2")
    >>> a is reg.stream("network")
    True
    """

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream called ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.master_seed, name))
        return self._streams[name]


class BatchedUniform:
    """Amortized ``uniform(lo, hi)`` draws from one dedicated stream.

    Hot consumers (the network draws one delivery delay per message and
    one more per acknowledgement) pay attribute lookups and method
    dispatch per :meth:`random.Random.uniform` call.  This helper
    prefetches a block of draws with a single bound ``random()`` method
    in a tight comprehension and hands them out one at a time.

    The produced value sequence is **bit-for-bit** the sequence the
    equivalent ``rng.uniform(lo, hi)`` call sequence would produce:
    CPython's ``uniform(a, b)`` is exactly ``a + (b - a) * random()``,
    one underlying draw per value, and this helper computes the same
    expression with the same precomputed ``b - a``.  That equivalence —
    and therefore campaign determinism — only holds while the wrapped
    stream has no other consumer, which is the registry's per-name
    stream contract anyway.

    A degenerate range (``lo == hi``) consumes nothing from the stream,
    matching the short-circuit the network always had.
    """

    __slots__ = ("_random", "_lo", "_span", "_block", "_buf", "_idx")

    def __init__(self, rng: random.Random, lo: float, hi: float,
                 block: int = 256) -> None:
        if hi < lo:
            raise ValueError(f"invalid uniform range [{lo}, {hi}]")
        self._random = rng.random
        self._lo = lo
        self._span = hi - lo
        self._block = block
        self._buf: List[float] = []
        self._idx = 0

    def next(self) -> float:
        """The next draw (refilling the block buffer as needed)."""
        if self._span == 0.0:
            return self._lo
        idx = self._idx
        buf = self._buf
        if idx >= len(buf):
            r, lo, span = self._random, self._lo, self._span
            buf = [lo + span * r() for _ in range(self._block)]
            self._buf = buf
            idx = 0
        self._idx = idx + 1
        return buf[idx]
