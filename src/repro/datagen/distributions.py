"""Statistical distributions used by Datagen (spec section 2.3.3.2).

* The number of friends of a person follows a *Facebook-like* degree
  distribution [31].  The original Datagen targets a mean degree of
  ``n ** (0.512 - 0.028 * log10(n))`` — the empirical fit from Ugander
  et al.'s "Anatomy of the Facebook social graph" — and draws individual
  degrees from a heavy-tailed distribution around that mean.  We keep
  the same mean-degree law and draw degrees from a discrete power law
  with exponential cutoff, which reproduces both the long tail and the
  bounded maximum degree of the Facebook data.

* Edge endpoints in the sorted similarity ranking are picked at
  geometrically distributed distances (``DeterministicRng.geometric``),
  implemented in :mod:`repro.datagen.knows`.

* Flashmob post volume around an event decays in time, the shape of the
  post-volume spikes of [17]; implemented in :mod:`repro.datagen.activity`.
"""

from __future__ import annotations

import math

from repro.util.rng import DeterministicRng


def mean_degree(num_persons: int) -> float:
    """Facebook-like mean degree for a network of ``num_persons``.

    Clamped to ``num_persons - 1`` so micro networks stay simple graphs.
    """
    if num_persons <= 1:
        return 0.0
    exponent = 0.512 - 0.028 * math.log10(num_persons)
    return min(num_persons ** exponent, float(num_persons - 1))


def max_degree(num_persons: int) -> int:
    """Degree cap — Facebook caps at 5000; micro networks scale it down."""
    return max(1, min(5000, num_persons - 1, int(10 * mean_degree(num_persons)) + 1))


#: Shape of the degree distribution.  With sigma = 0.9 the lognormal has
#: median ~= 0.67 * mean and a long right tail — the qualitative shape of
#: the Facebook degree data (median 100 vs mean 190 in [31]).
_DEGREE_SIGMA = 0.9


def sample_degree(rng: DeterministicRng, num_persons: int) -> int:
    """Draw one person's target friend count.

    A lognormal multiplier around :func:`mean_degree`, normalized to
    unit mean (``mu = -sigma^2 / 2``) and capped at :func:`max_degree`,
    so the realized mean tracks the Facebook-like law within a few
    percent (checked by tests) while keeping the heavy tail.
    """
    target = mean_degree(num_persons)
    if target <= 0:
        return 0
    cap = max_degree(num_persons)
    mu = -0.5 * _DEGREE_SIGMA ** 2
    multiplier = math.exp(rng.gauss(mu, _DEGREE_SIGMA))
    return max(1, min(cap, round(target * multiplier)))
