"""Deterministic random number generation for Datagen.

The spec (section 2.3.3) requires Datagen to be *deterministic regardless
of the number of cores/machines used*.  The original generator achieves
this by seeding every MapReduce task from (master seed, task id).  We
reproduce the property with stream derivation: every generation stage and
every per-entity decision draws from a ``random.Random`` seeded by a
stable 64-bit hash of ``(master_seed, *labels)``, so the output never
depends on iteration order, process count or Python hash randomization.

The hash is SHA-256 over ``str(master_seed)`` followed by ``b"\\x1f" +
str(label)`` per label (:func:`label_digest`); a sub-seed is its first 8
bytes.  A decision that needs only one or two uniforms per entity — the
delete streams' coin and deletion-time fraction — reads them straight
from that digest with :func:`unit` instead of seeding a Mersenne Twister
per entity: :func:`digests_under` hashes the shared label prefix once and
extends a copy of it per entity, so each decision costs one hash.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Any, Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")

_SEPARATOR = b"\x1f"
_WORD = struct.Struct(">Q")


def _hasher(master_seed: int, labels: Iterable[object]) -> Any:
    hasher = hashlib.sha256(str(master_seed).encode())
    for label in labels:
        hasher.update(_SEPARATOR + str(label).encode())
    return hasher


def label_digest(master_seed: int, *labels: object) -> bytes:
    """The 32-byte SHA-256 digest of ``(master_seed, *labels)``.

    Labels may be strings or integers; each is folded in as its ``str``
    behind a ``\\x1f`` separator, so distinct label tuples (including
    ``("ab", "c")`` and ``("a", "bc")``) yield independent digests.
    """
    return bytes(_hasher(master_seed, labels).digest())


def derive_seed(master_seed: int, *labels: object) -> int:
    """A stable 64-bit sub-seed: the first 8 bytes of :func:`label_digest`."""
    return int.from_bytes(label_digest(master_seed, *labels)[:8], "big")


def digests_under(master_seed: int, *prefix: object) -> Callable[[object], bytes]:
    """``digest(label) == label_digest(master_seed, *prefix, label)``.

    The prefix is hashed once here; each call copies that state and
    folds in only its own label.
    """
    base = _hasher(master_seed, prefix)

    def digest(label: object) -> bytes:
        hasher = base.copy()
        hasher.update(_SEPARATOR + str(label).encode())
        return bytes(hasher.digest())

    return digest


def unit(digest: bytes, offset: int = 0) -> float:
    """A uniform float in [0, 1) from the 8 bytes at ``offset``.

    Like ``random.random()`` it keeps the top 53 bits, so every value is
    exact and the largest is ``1 - 2**-53``; scaling all 64 bits by
    ``2**-64`` instead could round up to 1.0.
    """
    word: int = _WORD.unpack_from(digest, offset)[0]
    return (word >> 11) * 2.0 ** -53


class DeterministicRng:
    """A labelled random stream, plus helpers used throughout Datagen."""

    def __init__(self, master_seed: int, *labels: object) -> None:
        self.seed = derive_seed(master_seed, *labels)
        self._rng = random.Random(self.seed)

    # -- thin wrappers ---------------------------------------------------
    def random(self) -> float:
        return self._rng.random()

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._rng.randint(low, high)

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        return self._rng.sample(seq, k)

    def shuffle(self, seq: list[Any]) -> None:
        self._rng.shuffle(seq)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    # -- distributions used by the spec ----------------------------------
    def geometric(self, p: float) -> int:
        """Number of failures before the first success, support {0, 1, ...}.

        Used for the sorted-window edge picking of section 2.3.3.2: the
        probability of connecting to a person *k* positions away in the
        similarity ranking decays geometrically.
        """
        if not 0.0 < p <= 1.0:
            raise ValueError("p must be in (0, 1]")
        u = self._rng.random()
        if p == 1.0:
            return 0
        # Inverse CDF of the geometric distribution.
        import math

        return int(math.log(1.0 - u) / math.log(1.0 - p))

    def zipf_rank(self, n: int, exponent: float = 1.0) -> int:
        """A rank in [0, n) drawn from a Zipf-like distribution.

        Implements the probability function F of the property-dictionary
        model (section 2.3.3.1): low ranks are much more likely.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        # Rejection-free approximation via inverse CDF of the continuous
        # bounded Pareto; adequate for dictionary value picking.
        u = self._rng.random()
        if exponent == 1.0:
            import math

            rank = int((n + 1) ** u) - 1
        else:
            import math

            h = (n + 1) ** (1.0 - exponent)
            rank = int((u * (h - 1.0) + 1.0) ** (1.0 / (1.0 - exponent))) - 1
        return min(max(rank, 0), n - 1)

    def weighted_index(self, weights: Sequence[float]) -> int:
        """Pick an index proportionally to ``weights``."""
        total = sum(weights)
        if total <= 0:
            raise ValueError("weights must have a positive sum")
        target = self._rng.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if target < acc:
                return i
        return len(weights) - 1

    def subset(self, seq: Iterable[T], probability: float) -> list[T]:
        """Independent Bernoulli selection of elements."""
        return [x for x in seq if self._rng.random() < probability]
