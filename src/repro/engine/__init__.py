"""The shared query-operator layer (scan / expand / aggregate / top-k).

See :mod:`repro.engine.operators` for the operator inventory and
:mod:`repro.engine.stats` for the per-operator instrumentation the BI
driver surfaces in its run metrics.
"""

from repro.engine.operators import (
    ScanPlan,
    expand,
    group_agg,
    group_count,
    morsel_ranges,
    plan_messages,
    scan_forum_morsel,
    scan_message_morsel,
    scan_person_morsel,
    scan_tag_morsel,
    scan_forum_posts,
    scan_forums,
    scan_likes,
    scan_messages,
    scan_persons,
    sort_key,
    top_k,
)
from repro.engine.stats import (
    COUNTER_NAMES,
    OperatorCounters,
    counters,
    merge_counters,
    reset_counters,
)

__all__ = [
    "COUNTER_NAMES",
    "OperatorCounters",
    "ScanPlan",
    "counters",
    "expand",
    "group_agg",
    "group_count",
    "merge_counters",
    "morsel_ranges",
    "plan_messages",
    "reset_counters",
    "scan_forum_morsel",
    "scan_message_morsel",
    "scan_person_morsel",
    "scan_tag_morsel",
    "scan_forum_posts",
    "scan_forums",
    "scan_likes",
    "scan_messages",
    "scan_persons",
    "sort_key",
    "top_k",
]
