"""The rule registry: every enabled benchmark-invariant rule."""

from __future__ import annotations

from repro.lint.base import Rule
from repro.lint.rules_determinism import check_clock_and_random
from repro.lint.rules_engine import check_engine_discipline
from repro.lint.rules_obs import check_obs_discipline
from repro.lint.rules_ordering import check_total_order_sorts

#: All rules, in report order.  Each is a pure function of one
#: :class:`repro.lint.base.FileContext`; suppression filtering happens
#: afterwards in the checker, so rules never consult the index.
ALL_RULES: tuple[Rule, ...] = (
    check_clock_and_random,
    check_engine_discipline,
    check_total_order_sorts,
    check_obs_discipline,
)
