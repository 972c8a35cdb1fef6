"""Choke points (spec Appendix A) and the coverage matrix (Table A.1).

The registry lists every choke point with its category; the coverage
matrix is *derived from the query metadata* (each query module carries
its CP list), which the Table A.1 benchmark cross-checks against the
appendix's own per-CP query lists transcribed in ``APPENDIX_COVERAGE``.

The supplied spec's CP-8.2 query list did not survive text extraction
(figure); ``APPENDIX_COVERAGE["8.2"]`` is reconstructed from the
readable per-query pages and marked partial.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.queries.bi import ALL_QUERIES as ALL_BI
from repro.queries.interactive.complex import ALL_COMPLEX


@dataclass(frozen=True)
class ChokePoint:
    """One choke point of Appendix A."""

    identifier: str
    category: str  # QOPT / QEXE / STORAGE / LANG
    title: str


CHOKE_POINTS: tuple[ChokePoint, ...] = (
    ChokePoint("1.1", "QOPT", "Interesting orders"),
    ChokePoint("1.2", "QEXE", "High cardinality group-by performance"),
    ChokePoint("1.3", "QOPT", "Top-k pushdown"),
    ChokePoint("1.4", "QEXE", "Low cardinality group-by performance"),
    ChokePoint("2.1", "QOPT", "Rich join order optimization"),
    ChokePoint("2.2", "QOPT", "Late projection"),
    ChokePoint("2.3", "QOPT", "Join type selection"),
    ChokePoint("2.4", "QOPT", "Sparse foreign key joins"),
    ChokePoint("3.1", "QOPT", "Detecting correlation"),
    ChokePoint("3.2", "STORAGE", "Dimensional clustering"),
    ChokePoint("3.3", "QEXE", "Scattered index access patterns"),
    ChokePoint("4.1", "QOPT", "Common subexpression elimination"),
    ChokePoint("4.2", "QOPT", "Complex boolean expression joins and selections"),
    ChokePoint("4.3", "QEXE", "Low overhead expressions interpretation"),
    ChokePoint("4.4", "QEXE", "String matching performance"),
    ChokePoint("5.1", "QOPT", "Flattening sub-queries"),
    ChokePoint("5.2", "QEXE", "Overlap between outer and sub-query"),
    ChokePoint("5.3", "QEXE", "Intra-query result reuse"),
    ChokePoint("6.1", "QEXE", "Inter-query result reuse"),
    ChokePoint("7.1", "QEXE", "Incremental path computation"),
    ChokePoint("7.2", "QOPT", "Cardinality estimation of transitive paths"),
    ChokePoint("7.3", "QEXE", "Execution of a transitive step"),
    ChokePoint("7.4", "QEXE", "Efficient evaluation of termination criteria"),
    ChokePoint("8.1", "LANG", "Complex patterns"),
    ChokePoint("8.2", "LANG", "Complex aggregations"),
    ChokePoint("8.3", "LANG", "Ranking-style queries"),
    ChokePoint("8.4", "LANG", "Query composition"),
    ChokePoint("8.5", "LANG", "Dates and times"),
    ChokePoint("8.6", "LANG", "Handling paths"),
)

#: Appendix A per-CP "Queries" lists from the readable spec text, used to
#: cross-check the query metadata.  Query labels: "BI n" / "IC n".
APPENDIX_COVERAGE: dict[str, frozenset[str]] = {
    "1.1": frozenset({"BI 2", "BI 4", "BI 11", "BI 17", "BI 18", "BI 19",
                      "IC 2", "IC 9"}),
    "1.2": frozenset({"BI 1", "BI 2", "BI 4", "BI 5", "BI 6", "BI 7", "BI 9",
                      "BI 10", "BI 12", "BI 13", "BI 14", "BI 15", "BI 16",
                      "BI 18", "BI 21", "BI 25", "IC 9"}),
    "1.3": frozenset({"BI 2", "BI 4", "BI 5", "BI 9", "BI 16", "BI 19",
                      "BI 22", "IC 11"}),
    "1.4": frozenset({"BI 8", "BI 18", "BI 20", "BI 22", "BI 23", "BI 24"}),
    "2.1": frozenset({"BI 2", "BI 4", "BI 5", "BI 9", "BI 10", "BI 11",
                      "BI 19", "BI 20", "BI 21", "BI 22", "BI 24", "BI 25",
                      "IC 1", "IC 3"}),
    "2.2": frozenset({"BI 4", "BI 5", "BI 11", "BI 12", "BI 13", "BI 14",
                      "BI 25", "IC 2", "IC 7", "IC 9"}),
    "2.3": frozenset({"BI 2", "BI 5", "BI 6", "BI 7", "BI 9", "BI 10",
                      "BI 11", "BI 13", "BI 14", "BI 15", "BI 16", "BI 19",
                      "BI 21", "BI 23", "BI 24", "IC 2", "IC 4", "IC 5",
                      "IC 7", "IC 9", "IC 10"}),
    "2.4": frozenset({"BI 3", "BI 4", "BI 5", "BI 9", "BI 16", "BI 19",
                      "BI 21", "BI 23", "BI 24", "BI 25", "IC 8", "IC 11"}),
    "3.1": frozenset({"BI 2", "BI 3", "BI 11", "BI 12", "BI 22", "IC 3"}),
    "3.2": frozenset({"BI 1", "BI 2", "BI 3", "BI 7", "BI 10", "BI 11",
                      "BI 13", "BI 14", "BI 15", "BI 18", "BI 21", "BI 24",
                      "IC 2", "IC 8", "IC 9"}),
    "3.3": frozenset({"BI 4", "BI 5", "BI 7", "BI 8", "BI 15", "BI 16",
                      "BI 19", "BI 21", "BI 22", "BI 23", "BI 25", "IC 5",
                      "IC 7", "IC 8", "IC 9", "IC 10", "IC 11", "IC 12",
                      "IC 13", "IC 14"}),
    "4.1": frozenset({"BI 1", "BI 3", "IC 10"}),
    "4.2": frozenset({"BI 18", "IC 10"}),
    "4.3": frozenset({"BI 3", "BI 18", "BI 23", "BI 24"}),
    "4.4": frozenset(),
    "5.1": frozenset({"BI 19", "BI 21", "BI 22", "BI 25", "IC 3", "IC 6",
                      "IC 7", "IC 10"}),
    "5.2": frozenset({"BI 8", "BI 22", "IC 10"}),
    "5.3": frozenset({"BI 3", "BI 5", "BI 15", "BI 16", "BI 21", "BI 22",
                      "BI 25", "IC 1", "IC 8"}),
    "6.1": frozenset({"BI 3", "BI 5", "BI 7", "BI 11", "BI 12", "BI 13",
                      "BI 15", "BI 20", "IC 10"}),
    "7.1": frozenset({"BI 16", "IC 10"}),
    "7.2": frozenset({"BI 14", "BI 16", "BI 25", "IC 12", "IC 13", "IC 14"}),
    "7.3": frozenset({"BI 14", "BI 16", "BI 19", "BI 25", "IC 12", "IC 13",
                      "IC 14"}),
    "7.4": frozenset({"BI 14", "BI 19"}),
    "8.1": frozenset({"BI 8", "BI 11", "BI 14", "BI 16", "BI 18", "BI 19",
                      "BI 20", "BI 25", "IC 7", "IC 13", "IC 14"}),
    # Partially reconstructed: the spec's CP-8.2 list is a lost figure;
    # built from the readable per-query pages.
    "8.2": frozenset({"BI 18", "BI 21", "IC 1", "IC 3", "IC 4", "IC 5",
                      "IC 12", "IC 14"}),
    "8.3": frozenset({"BI 11", "BI 13", "BI 18", "BI 22", "BI 25", "IC 7",
                      "IC 14"}),
    "8.4": frozenset({"BI 5", "BI 10", "BI 15", "BI 18", "BI 21", "BI 22",
                      "BI 25"}),
    "8.5": frozenset({"BI 1", "BI 2", "BI 3", "BI 10", "BI 12", "BI 13",
                      "BI 14", "BI 18", "BI 19", "BI 21", "BI 23", "BI 24",
                      "BI 25", "IC 2", "IC 3", "IC 4", "IC 5", "IC 9"}),
    "8.6": frozenset({"BI 16", "BI 25", "IC 10", "IC 13", "IC 14"}),
}


#: Engine operator counter -> the spec choke point it instruments.
#: ``repro.engine.stats.OperatorCounters`` fields must all appear here
#: (checked by tests/test_engine.py), so every number the BI driver
#: reports is attributable to a CP of Appendix A.
OPERATOR_COUNTER_CPS: dict[str, str] = {
    "rows_scanned": "2.2",      # late projection: rows surviving pushdown
    "index_scans": "3.3",       # scattered secondary/adjacency index access
    "full_scans": "3.2",        # dimensional clustering: unpruned scans
    "edges_expanded": "2.3",    # index-based join traversal work
    "groups_created": "1.2",    # high-cardinality group-by
    "heap_inserts": "1.3",      # top-k pushdown: rows offered
    "heap_rejections": "1.3",   # top-k pushdown: threshold short-cuts
    "heap_evictions": "1.3",    # top-k pushdown: compaction drops
}


def coverage_matrix() -> dict[str, frozenset[str]]:
    """CP identifier -> set of query labels, derived from query metadata."""
    matrix: dict[str, set[str]] = {cp.identifier: set() for cp in CHOKE_POINTS}
    for number, (_, info) in ALL_BI.items():
        for cp in info.choke_points:
            matrix[cp].add(f"BI {number}")
    for number, (_, info) in ALL_COMPLEX.items():
        for cp in info.choke_points:
            matrix[cp].add(f"IC {number}")
    return {cp: frozenset(queries) for cp, queries in matrix.items()}


def queries_covering(cp_identifier: str) -> frozenset[str]:
    """Queries whose metadata declares the choke point."""
    return coverage_matrix().get(cp_identifier, frozenset())


def format_coverage_table() -> str:
    """Render the Table A.1-style matrix (rows: CPs, columns: queries)."""
    matrix = coverage_matrix()
    bi_labels = [f"BI {n}" for n in sorted(ALL_BI)]
    ic_labels = [f"IC {n}" for n in sorted(ALL_COMPLEX)]
    labels = bi_labels + ic_labels
    header = "CP    " + " ".join(f"{label.split()[1]:>3s}" for label in labels)
    group_row = "      " + " ".join(
        f"{label.split()[0]:>3s}" for label in labels
    )
    lines = [group_row, header]
    for cp in CHOKE_POINTS:
        cells = " ".join(
            f"{'  x' if label in matrix[cp.identifier] else '  .'}"
            for label in labels
        )
        lines.append(f"{cp.identifier:5s} {cells}")
    return "\n".join(lines)
