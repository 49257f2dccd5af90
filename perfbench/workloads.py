"""The benchmark's three workloads.

Each workload is built from a workload seed and a work directory and
exposes:

* ``inputs()`` — the op stream, a pure function of the seed;
* ``setup(rep)`` — one set-up repetition; every run performs
  ``setup_reps`` of them, each in its own fresh process;
* ``prepare()`` — what a measuring process that did not run a set-up
  repetition itself needs before its first op;
* ``op(item)`` — one op, every call into the program going through the
  :class:`~perfbench.harness.Probe`;
* ``check(item, output)`` — ``None`` when the op's output holds its
  relation, else a message.  Relations, never golden values.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import random
from itertools import count
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from perfbench.harness import Probe

#: Pipeline stage -> the layer its compute belongs to (span name).
STAGE_LAYERS = {
    "topology": "topology.generate",
    "irr": "irr.build",
    "scenario": "datasets.scenario",
    "compress": "topology.compress",
    "propagation_v4": "bgp.propagate_v4",
    "propagation_v6": "bgp.propagate_v6",
    "archive": "collectors.archive",
    "store": "analysis.extract",
    "ground_truth": "datasets.ground_truth",
    "snapshot": "datasets.snapshot",
    "inference": "core.inference",
    "views": "analysis.views",
    "section3": "analysis.report",
    "correction": "core.correction",
}

#: The CLI's default dataset seed (``repro section3 --seed``).
CLI_SEED = 7
#: The CLI's default Figure-2 budget (``--top``, ``--max-sources``).
CLI_BUDGET = (20, 60)


def stage_layer(stage: str) -> str:
    return STAGE_LAYERS.get(stage, f"pipeline.stage.{stage}")


def _count_propagation(probe: Probe, result) -> None:
    probe.count("bgp.events", result.events)
    probe.count("bgp.prefixes", len(result.origins))


STAGE_COUNTERS = {
    "propagation_v4": _count_propagation,
    "propagation_v6": _count_propagation,
    "archive": lambda probe, archive: probe.count("collectors.records", len(archive)),
    "store": lambda probe, extraction: probe.count(
        "core.store.observations", len(extraction.observations)
    ),
}


def probed_stages(probe: Probe, stages: Sequence) -> List:
    """The stage list with every compute wrapped as a call into its layer.

    Only ``compute`` changes, so fingerprints, caching and the DAG are
    those of the production pipeline.
    """

    def wrap(spec):
        layer = stage_layer(spec.name)
        counter = STAGE_COUNTERS.get(spec.name)
        compute = spec.compute

        def probed(run):
            value = probe.call(layer, compute, run)
            if counter is not None:
                counter(probe, value)
            return value

        return dataclasses.replace(spec, compute=probed)

    return [wrap(spec) for spec in stages]


def probed_cache(probe: Probe, root: Path):
    """An on-disk artifact cache whose public verify/load/store are
    calls into the ``pipeline.artifacts`` layer."""
    # Imported here: run.py imports this module without ``src`` on its path.
    from repro.pipeline import ArtifactCache

    class ProbedCache(ArtifactCache):
        def verify(self, stage, fingerprint):
            record = probe.call("pipeline.artifacts.verify", super().verify, stage, fingerprint)
            probe.count("pipeline.artifacts.verifies", 1)
            if record is not None:
                probe.count("pipeline.artifacts.hits", 1)
                probe.count("pipeline.artifacts.bytes_read", record.size_bytes)
            return record

        def load(self, stage, fingerprint):
            loaded = probe.call("pipeline.artifacts.load", super().load, stage, fingerprint)
            if loaded is not None:
                probe.count("pipeline.artifacts.bytes_read", loaded[1].size_bytes)
            return loaded

        def store(self, stage, fingerprint, value, code_version):
            record = probe.call(
                "pipeline.artifacts.store", super().store, stage, fingerprint, value, code_version
            )
            probe.count("pipeline.artifacts.bytes_written", record.size_bytes)
            return record

    return ProbedCache(root)


class Workload:
    name = ""
    #: Watchdog limit for one op, seconds.
    op_limit_s = 60.0
    #: Set-up repetitions per run, each in a fresh process.
    setup_reps = 1
    #: The last set-up repetition goes on to measure (it holds in-memory
    #: state the checks need); otherwise a separate process measures.
    measure_in_last_rep = True
    #: An input can run twice with the same cost (traced runs pair them).
    repeatable = True

    def __init__(self, seed: int, workdir: Path, probe: Probe, stages=None) -> None:
        from repro.pipeline import full_stages

        self.seed = seed
        self.workdir = Path(workdir)
        self.probe = probe
        self.stages = probed_stages(probe, stages if stages is not None else full_stages())

    def rng(self) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}")

    def inputs(self) -> Iterator:
        raise NotImplementedError

    def setup(self, rep: int) -> None:
        """One set-up repetition (default: nothing beyond the imports)."""

    def prepare(self) -> None:
        """Set-up of a measuring process that ran no repetition itself."""

    def op(self, item):
        raise NotImplementedError

    def check(self, item, output) -> Optional[str]:
        raise NotImplementedError

    def runner(self, cache=None):
        from repro.pipeline import PipelineRunner

        return PipelineRunner(self.stages, cache)


def _dataset_seeds(seed: int, rng: random.Random) -> Iterator[int]:
    """``seed`` first (so the default workload seed starts on the CLI's
    default dataset seed), then distinct draws."""
    seen = {seed}
    yield seed
    while True:
        drawn = rng.randrange(1, 1_000_000)
        if drawn not in seen:
            seen.add(drawn)
            yield drawn


class PaperCold(Workload):
    """Cold, cache-free ``repro section3 --paper-scale``, a new seed per op."""

    name = "paper_cold"
    op_limit_s = 25.0
    setup_reps = 3

    def inputs(self) -> Iterator[int]:
        return _dataset_seeds(self.seed, self.rng())

    def dataset(self, seed: int):
        from repro.datasets import paper_scale_config

        return paper_scale_config(seed)

    def op(self, seed: int):
        from repro.pipeline import PipelineConfig

        run = self.runner().run(PipelineConfig(dataset=self.dataset(seed)), targets=("section3",))
        run.value("section3")
        return run

    def check(self, seed: int, run) -> Optional[str]:
        from repro.analysis.reference import reference_pipeline

        expected = reference_pipeline(run.value("archive"), run.value("irr")).as_dict()
        got = run.value("section3").as_dict()
        if got != expected:
            return f"seed {seed}: section3 report differs from the reference pipeline"
        return None


class Figure2Warm(Workload):
    """Figure-2 what-ifs: new correction budgets over a warm artifact cache."""

    name = "figure2_warm"
    op_limit_s = 20.0
    setup_reps = 2
    measure_in_last_rep = False
    repeatable = False
    REFERENCE = "reference-views-inference.pickle"
    #: Budgets keep ``(top + 1) * max_sources`` (customer-tree passes)
    #: near the CLI default's so every op does similar work.
    work = (CLI_BUDGET[0] + 1) * CLI_BUDGET[1]
    tops = range(17, 23)
    jitter = range(-3, 4)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cache = None

    def inputs(self) -> Iterator[Tuple[int, int]]:
        budgets = sorted(
            {
                (top, round(self.work / (top + 1)) + delta)
                for top in self.tops
                for delta in self.jitter
            }
            - {CLI_BUDGET}
        )
        self.rng().shuffle(budgets)
        return iter(budgets)

    def config(self, budget: Tuple[int, int]):
        from repro.datasets import paper_scale_config
        from repro.pipeline import PipelineConfig

        top, max_sources = budget
        return PipelineConfig(
            dataset=paper_scale_config(CLI_SEED), top=top, max_sources=max_sources
        )

    def setup(self, rep: int) -> None:
        """Fill a fresh cache cold; keep the in-memory views and inference
        (pickled by the benchmark itself, not through the cache) for the
        checks."""
        cache = probed_cache(self.probe, self.workdir / f"cache-{rep}")
        run = self.runner(cache).run(self.config(CLI_BUDGET), targets=("correction",))
        reference = (run.value("views"), run.value("inference"))
        with open(self.workdir / f"{rep}-{self.REFERENCE}", "wb") as handle:
            pickle.dump(reference, handle, protocol=pickle.HIGHEST_PROTOCOL)

    def prepare(self) -> None:
        # Measure on the last repetition's cache, in a fresh process, so
        # that set-up's cold fill is not resident while ops run.
        self.cache = probed_cache(self.probe, self.workdir / f"cache-{self.setup_reps - 1}")

    def op(self, budget: Tuple[int, int]):
        run = self.runner(self.cache).run(self.config(budget), targets=("correction",))
        return run.value("correction")

    def check(self, budget: Tuple[int, int], series) -> Optional[str]:
        from repro.core.correction import run_correction_sweep
        from repro.core.relationships import AFI

        # Loaded in the check's own (forked) process, never the measured one.
        with open(self.workdir / f"{self.setup_reps - 1}-{self.REFERENCE}", "rb") as handle:
            views, inference = pickle.load(handle)
        top, max_sources = budget
        expected = run_correction_sweep(
            inference.annotation(AFI.IPV4),
            inference.annotation(AFI.IPV6),
            views.hybrid.hybrid_link_set(),
            views.visibility,
            top=top,
            max_sources=max_sources,
        )
        if series != expected:
            return f"budget {budget}: cached correction differs from the uncached sweep"
        return None


def _tree_bytes(root: Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


class SnapshotSection3(Workload):
    """``repro section3 --from-snapshot`` over a pool of paper-scale snapshots."""

    name = "snapshot_section3"
    op_limit_s = 15.0
    setup_reps = 2
    measure_in_last_rep = False
    REFERENCE = "reference-section3.json"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.references: Dict[int, dict] = {}
        self.sizes: Dict[int, int] = {}

    def pool_seeds(self) -> List[int]:
        seeds = _dataset_seeds(self.seed, self.rng())
        return [next(seeds) for _ in range(self.setup_reps)]

    def entry(self, index: int) -> Path:
        return self.workdir / "pool" / f"entry-{index}"

    def inputs(self) -> Iterator[int]:
        return (index % self.setup_reps for index in count())

    def setup(self, rep: int) -> None:
        """Build, save and measure in memory one pool snapshot."""
        from repro.datasets import paper_scale_config
        from repro.datasets.snapshot_io import save_snapshot
        from repro.pipeline import PipelineConfig

        config = PipelineConfig(dataset=paper_scale_config(self.pool_seeds()[rep]))
        run = self.runner().run(config, targets=("snapshot", "section3"))
        directory = self.entry(rep)
        self.probe.call(
            "datasets.snapshot_io.save", save_snapshot, run.value("snapshot"), directory
        )
        report = run.value("section3").as_dict()
        (directory / self.REFERENCE).write_text(json.dumps(report), encoding="utf-8")

    def prepare(self) -> None:
        for index in range(self.setup_reps):
            directory = self.entry(index)
            reference = directory / self.REFERENCE
            self.references[index] = json.loads(reference.read_text(encoding="utf-8"))
            self.sizes[index] = _tree_bytes(directory) - reference.stat().st_size

    def op(self, index: int):
        from repro.analysis.paths import extract_from_archive
        from repro.analysis.stats import assemble_report, build_views, run_inference
        from repro.datasets.snapshot_io import load_snapshot

        call, probe = self.probe.call, self.probe
        loaded = call("datasets.snapshot_io.load", load_snapshot, self.entry(index))
        probe.count("datasets.snapshot_io.bytes", self.sizes[index])
        probe.count("collectors.records", len(loaded.archive))
        extraction = call("analysis.extract", extract_from_archive, loaded.archive)
        probe.count("core.store.observations", len(extraction.observations))
        inference = call("core.inference", run_inference, extraction.store, loaded.registry)
        views = call("analysis.views", build_views, extraction.store, inference)
        return call("analysis.report", assemble_report, views, inference)

    def check(self, index: int, report) -> Optional[str]:
        # Through JSON, as the reference was stored.
        if json.loads(json.dumps(report.as_dict())) != self.references[index]:
            return (
                f"pool entry {index}: report from disk differs from the "
                "in-memory pipeline report"
            )
        return None


WORKLOADS = {
    workload.name: workload for workload in (PaperCold, Figure2Warm, SnapshotSection3)
}
