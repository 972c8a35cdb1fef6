"""Spec transcriptions the contract rule (R3) checks declarations against.

These tables are deliberately *copies* of what the implementation
declares elsewhere (``repro.analysis.chokepoints``, ``repro.params.files``,
each query module's ``INFO``) rather than imports of it: double-entry
bookkeeping in the LDBC-audit sense.  An edit that changes only one side
— a query's declared limit, a parameter rename, a new choke-point id —
fails the lint until both sides agree.  ``tests/test_lint.py`` holds the
meta-tests keeping these copies synchronized with the runtime modules.
"""

from __future__ import annotations

import re

#: Choke-point identifiers of spec Appendix A (Table A.1 row set).
VALID_CHOKE_POINTS: frozenset[str] = frozenset(
    {
        "1.1", "1.2", "1.3", "1.4",
        "2.1", "2.2", "2.3", "2.4",
        "3.1", "3.2", "3.3",
        "4.1", "4.2", "4.3", "4.4",
        "5.1", "5.2", "5.3",
        "6.1",
        "7.1", "7.2", "7.3", "7.4",
        "8.1", "8.2", "8.3", "8.4", "8.5", "8.6",
    }
)

#: Result-row limits of the BI reads (spec chapter 5 query definitions).
#: ``None`` means the query returns all groups (BI 1, 18) or a fixed
#: small row set (BI 17's single count).
SPEC_BI_LIMITS: dict[int, int | None] = {
    1: None, 2: 100, 3: 100, 4: 20, 5: 100,
    6: 100, 7: 100, 8: 100, 9: 100, 10: 100,
    11: 100, 12: 100, 13: 100, 14: 100, 15: 100,
    16: 100, 17: None, 18: None, 19: 100, 20: 100,
    21: 100, 22: 100, 23: 100, 24: 100, 25: 100,
}

#: Result-row limits of the Interactive complex reads (spec chapter 4).
SPEC_IC_LIMITS: dict[int, int | None] = {
    1: 20, 2: 20, 3: 20, 4: 10, 5: 20, 6: 10, 7: 20,
    8: 20, 9: 20, 10: 10, 11: 10, 12: 20, 13: None, 14: None,
}

#: Substitution-parameter names per BI read, camelCase as in the spec's
#: *params* sections (must equal ``repro.params.files.BI_PARAM_NAMES``).
SPEC_BI_PARAMS: dict[int, tuple[str, ...]] = {
    1: ("date",),
    2: ("startDate", "endDate", "country1", "country2", "endOfSimulation"),
    3: ("year", "month"),
    4: ("tagClass", "country"),
    5: ("country",),
    6: ("tag",),
    7: ("tag",),
    8: ("tag",),
    9: ("tagClass1", "tagClass2", "threshold"),
    10: ("tag", "date"),
    11: ("country", "blacklist"),
    12: ("date", "likeThreshold"),
    13: ("country",),
    14: ("begin", "end"),
    15: ("country",),
    16: ("personId", "country", "tagClass", "minPathDistance",
         "maxPathDistance"),
    17: ("country",),
    18: ("date", "lengthThreshold", "languages"),
    19: ("date", "tagClass1", "tagClass2"),
    20: ("tagClasses",),
    21: ("country", "endDate"),
    22: ("country1", "country2"),
    23: ("country",),
    24: ("tagClass",),
    25: ("person1Id", "person2Id", "startDate", "endDate"),
}

#: Substitution-parameter names per Interactive complex read (must equal
#: ``repro.params.files.INTERACTIVE_PARAM_NAMES``).
SPEC_IC_PARAMS: dict[int, tuple[str, ...]] = {
    1: ("personId", "firstName"),
    2: ("personId", "maxDate"),
    3: ("personId", "countryXName", "countryYName", "startDate",
        "durationDays"),
    4: ("personId", "startDate", "durationDays"),
    5: ("personId", "minDate"),
    6: ("personId", "tagName"),
    7: ("personId",),
    8: ("personId",),
    9: ("personId", "maxDate"),
    10: ("personId", "month"),
    11: ("personId", "countryName", "workFromYear"),
    12: ("personId", "tagClassName"),
    13: ("person1Id", "person2Id"),
    14: ("person1Id", "person2Id"),
}

#: Raw collection attributes of ``SocialGraph`` that query modules must
#: not iterate directly (must stay a subset of the store's actual entity
#: and relation tables, plus the ``messages()`` full-scan accessor).
RAW_STORE_COLLECTIONS: frozenset[str] = frozenset(
    {
        "places", "organisations", "tag_classes", "tags",
        "persons", "forums", "posts", "comments",
        "knows_edges", "likes_edges", "memberships",
        "study_at", "work_at",
        "messages",
    }
)


def camel_to_snake(name: str) -> str:
    """The spec's camelCase parameter names as Python argument names."""
    return re.sub(r"([A-Z])", r"_\1", name).lower().lstrip("_")
