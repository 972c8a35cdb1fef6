"""Datagen configuration (spec section 2.3.3).

Three parameters determine the generated data: the number of persons,
the number of years simulated, and the starting year of the simulation.
Defaults follow the spec: a period of three years starting from 2010.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.dates import DateTime, make_date, make_datetime


@dataclass(frozen=True)
class DatagenConfig:
    """Parameters of one generation run."""

    num_persons: int = 1000
    start_year: int = 2010
    num_years: int = 3
    seed: int = 42
    #: Fraction of the simulated period whose events form the bulk-load
    #: dataset; the remainder becomes the update streams (spec 2.3.4:
    #: "roughly the 90% of the total generated network").
    bulk_load_fraction: float = 0.9
    #: Number of flashmob events per simulated year (section 2.3.3.2).
    flashmob_events_per_year: int = 12
    #: Multiplier on per-person activity volume (posts, albums, group
    #: posts, comments, likes).  1.0 keeps the fast defaults used by the
    #: micro-scale benchmarks; ~2.8 calibrates SF 0.1 to Table 2.12's
    #: node/edge counts (see benchmarks/test_sf01_official.py).
    activity_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.num_persons <= 0:
            raise ValueError("num_persons must be positive")
        if self.num_years <= 0:
            raise ValueError("num_years must be positive")
        if not 0.0 < self.bulk_load_fraction <= 1.0:
            raise ValueError("bulk_load_fraction must be in (0, 1]")
        if self.activity_scale <= 0:
            raise ValueError("activity_scale must be positive")

    @property
    def start_date(self) -> int:
        """First simulated day (Date ordinal)."""
        return make_date(self.start_year, 1, 1)

    @property
    def end_date(self) -> int:
        """Day after the last simulated day (exclusive)."""
        return make_date(self.start_year + self.num_years, 1, 1)

    @property
    def start_millis(self) -> DateTime:
        return make_datetime(self.start_year, 1, 1)

    @property
    def end_millis(self) -> DateTime:
        return make_datetime(self.start_year + self.num_years, 1, 1)
