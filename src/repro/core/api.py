"""High-level facade over datagen, the graph store, the workloads, the
parameter curation and the driver.

Typical use::

    from repro import SocialNetworkBenchmark

    bench = SocialNetworkBenchmark.generate(num_persons=1000, seed=42)
    rows = bench.bi.run(12)                  # BI 12 with curated params
    rows = bench.bi.run(13, "India")         # or explicit params
    report = bench.run_driver()              # the Interactive workload
    print(report.format_table())

    # or through the unified envelope (what the CLI ``run`` command uses):
    report = bench.run(RunRequest(workload="bi", mode="power", workers=4))
    report.write_results_dir("results/")
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from repro.core.run import DEFAULT_STREAMS, RunReport, RunRequest
from repro.datagen.config import DatagenConfig
from repro.datagen.generator import SocialNetworkData, generate
from repro.datagen.scale import approximate_scale_factor, persons_for_scale_factor
from repro.datagen.serializers import serialize_csv, serialize_turtle
from repro.datagen.delete_streams import build_delete_streams
from repro.datagen.update_streams import build_update_streams, write_update_streams
from repro.driver.bi_driver import (
    build_microbatches,
    concurrent_read_test,
    power_test,
    throughput_test,
)
from repro.driver.mix import frequencies_for_scale_factor
from repro.driver.runner import Driver, DriverReport
from repro.driver.scheduler import Scheduler
from repro.driver.validation import create_validation_set, validate
from repro.graph.store import SocialGraph
from repro.obs.exporters import telemetry_document
from repro.obs.spans import span
from repro.params.curation import ParameterGenerator
from repro.queries.bi import ALL_QUERIES as ALL_BI
from repro.queries.interactive.complex import ALL_COMPLEX
from repro.queries.interactive.short import ALL_SHORT


class BiWorkload:
    """The Business Intelligence workload bound to a graph."""

    def __init__(self, graph: SocialGraph, params: ParameterGenerator):
        self.graph = graph
        self.params = params

    def run(self, number: int, *params: Any) -> list:
        """Run BI ``number`` once and return its rows.

        Without explicit ``params`` this executes **only the first
        curated binding** — one representative parameter set, not the
        whole curated pool.  To cover every curated binding of a query
        (or of all queries), use :meth:`run_all`.
        """
        query, _ = ALL_BI[number]
        if not params:
            bindings = self.params.bi(number, count=1)
            if not bindings:
                raise RuntimeError(f"no curated parameters for BI {number}")
            params = bindings[0]
        return query(self.graph, *params)

    def run_all(
        self,
        number: int | None = None,
        bindings_per_query: int | None = None,
    ) -> dict[int, list] | list[list]:
        """Run curated bindings exhaustively.

        With ``number`` given, run BI ``number`` once per curated
        binding (all of them unless ``bindings_per_query`` caps the
        pool) and return the list of per-binding result rows — the
        exhaustive counterpart to :meth:`run`'s single-binding default.

        With ``number`` omitted, run every BI query
        (``bindings_per_query`` defaults to 1 binding each) and return
        results keyed by query number (last binding's rows).
        """
        if number is not None:
            query, _ = ALL_BI[number]
            return [
                query(self.graph, *params)
                for params in self.params.bi(number, count=bindings_per_query)
            ]
        if bindings_per_query is None:
            bindings_per_query = 1
        results: dict[int, list] = {}
        for num in sorted(ALL_BI):
            for params in self.params.bi(num, count=bindings_per_query):
                results[num] = ALL_BI[num][0](self.graph, *params)
        return results


class InteractiveWorkload:
    """The Interactive workload (reads only) bound to a graph."""

    def __init__(self, graph: SocialGraph, params: ParameterGenerator):
        self.graph = graph
        self.params = params

    def run_complex(self, number: int, *params: Any) -> list:
        query, _ = ALL_COMPLEX[number]
        if not params:
            bindings = self.params.interactive(number, count=1)
            if not bindings:
                raise RuntimeError(f"no curated parameters for IC {number}")
            params = bindings[0]
        return query(self.graph, *params)

    def run_short(self, number: int, entity_id: int) -> list:
        return ALL_SHORT[number][0](self.graph, entity_id)


class SocialNetworkBenchmark:
    """One generated network plus everything needed to benchmark it."""

    def __init__(self, network: SocialNetworkData):
        self.network = network
        load_start = time.perf_counter()
        #: Graph holding the bulk-load (pre-cutoff) dataset.
        self.graph = SocialGraph.from_data(network, until=network.cutoff)
        self.load_seconds = time.perf_counter() - load_start
        self.params = ParameterGenerator(self.graph, network.config)
        self.bi = BiWorkload(self.graph, self.params)
        self.interactive = InteractiveWorkload(self.graph, self.params)

    # -- construction ------------------------------------------------------

    @classmethod
    def generate(
        cls,
        num_persons: int | None = None,
        scale_factor: float | None = None,
        seed: int = 42,
        **config_kwargs: Any,
    ) -> "SocialNetworkBenchmark":
        """Generate a network and load it.

        Exactly one of ``num_persons`` / ``scale_factor`` must be given;
        a scale factor is translated via the Table 2.12 scaling law.
        """
        if (num_persons is None) == (scale_factor is None):
            raise ValueError("pass exactly one of num_persons / scale_factor")
        if num_persons is None:
            num_persons = persons_for_scale_factor(scale_factor)
        config = DatagenConfig(num_persons=num_persons, seed=seed, **config_kwargs)
        return cls(generate(config))

    @property
    def scale_factor(self) -> float:
        """Approximate SF of this network per the Table 2.12 law."""
        return approximate_scale_factor(self.network.config.num_persons)

    # -- dataset artefacts ---------------------------------------------------

    def export(self, output_dir: Path | str, variant: str = "CsvBasic") -> Path:
        """Write the bulk-load dataset and the update streams."""
        if variant == "Turtle":
            root = serialize_turtle(self.network, output_dir)
        else:
            root = serialize_csv(self.network, output_dir, variant)
        write_update_streams(build_update_streams(self.network), output_dir)
        return root

    # -- workload execution ----------------------------------------------

    def run_driver(
        self,
        time_compression_ratio: float = 0.0,
        seed: int = 1234,
        max_updates: int | None = None,
        include_deletes: bool = False,
    ) -> DriverReport:
        """Run the Interactive workload: replay the update streams with
        frequency-interleaved complex reads and short-read sequences.

        ``include_deletes`` interleaves the DEL 1-8 delete stream (the
        insert/delete mix of spec section 5.2 / the VLDB 2022 BI
        workload) at its own timestamps.

        The replay is serial, in schedule order.  A negative
        ``max_updates``, or a time compression ratio that is negative,
        infinite or NaN, is a ``ValueError`` before any work.
        """
        if max_updates is not None and max_updates < 0:
            raise ValueError(f"max_updates must be >= 0, got {max_updates}")
        driver = Driver(self.graph, time_compression_ratio, seed=seed)
        updates = build_update_streams(self.network)
        if max_updates is not None:
            updates = updates[:max_updates]
        deletes = None
        if include_deletes:
            deletes = build_delete_streams(self.network)
            if updates:
                horizon = updates[-1].timestamp
                deletes = [op for op in deletes if op.timestamp <= horizon]
        frequencies = frequencies_for_scale_factor(max(self.scale_factor, 1.0))
        parameters = {
            number: self.params.interactive(number)
            for number in sorted(ALL_COMPLEX)
        }
        schedule = Scheduler(updates, frequencies, parameters, deletes).build()
        return driver.run(schedule)

    def run(self, request: RunRequest) -> RunReport:
        """Execute one benchmark run described by a :class:`RunRequest`.

        The single dispatch point behind the CLI ``run`` command: every
        workload/mode combination accepts the same envelope and returns
        a :class:`RunReport`, with ``request.workers`` / ``request.timeout``
        threaded to the :mod:`repro.exec` pool identically in every BI
        mode (the Interactive driver is serial and has no pool).

        The whole run executes under one ``run`` span, and the report
        leaves with the telemetry document attached
        (:meth:`~repro.core.run.RunReport.telemetry`): the global span
        tree plus the metrics-registry snapshot as of run end.
        """
        with span(
            f"{request.workload}:{request.mode}",
            kind="run",
            workload=request.workload,
            mode=request.mode,
        ):
            report = self._dispatch(request)
        report.attach_telemetry(
            telemetry_document(configuration=request.configuration_dict())
        )
        return report

    def _dispatch(self, request: RunRequest) -> RunReport:
        opts = dict(request.options)
        if request.workload == "interactive":
            return self.run_driver(
                time_compression_ratio=opts.get("time_compression_ratio", 0.0),
                seed=request.seed,
                max_updates=opts.get("max_updates"),
                include_deletes=opts.get("include_deletes", False),
            )
        if request.mode == "power":
            return power_test(
                self.graph,
                self.params,
                self.scale_factor,
                bindings_per_query=opts.get("bindings_per_query", 1),
                workers=request.workers,
                timeout=request.timeout,
                snapshot=request.snapshot,
            )
        if request.mode == "throughput":
            batches = build_microbatches(
                self.network,
                include_deletes=opts.get("include_deletes", True),
            )
            return throughput_test(
                self.graph,
                self.params,
                batches,
                reads_per_batch=opts.get("reads_per_batch", 5),
                workers=request.workers,
                timeout=request.timeout,
                snapshot=request.snapshot,
            )
        return concurrent_read_test(
            self.graph,
            self.params,
            streams=opts.get("streams", DEFAULT_STREAMS),
            queries_per_stream=opts.get("queries_per_stream", 25),
            workers=request.workers,
            timeout=request.timeout,
            snapshot=request.snapshot,
        )

    # -- validation ----------------------------------------------------------

    def create_validation_set(self, bindings_per_query: int = 2) -> dict:
        """Expected results for every read query (spec 6.2)."""
        bindings: dict[tuple[str, int], list[tuple]] = {}
        for number in sorted(ALL_BI):
            bindings[("bi", number)] = self.params.bi(
                number, count=bindings_per_query
            )
        for number in sorted(ALL_COMPLEX):
            bindings[("complex", number)] = self.params.interactive(
                number, count=bindings_per_query
            )
        return create_validation_set(self.graph, bindings)

    def validate(self, validation_set: dict) -> list[dict]:
        """Check this graph against a validation dataset."""
        return validate(self.graph, validation_set)
