"""The four seeded workloads: job lists, the timed loop, output checks.

Every workload turns ``(seed, seconds)`` into a fixed job list, so the
same seed and run length always give the same inputs (and the same job
list digest).  The list is a number of rounds, each the workload's fixed
ladder of job shapes; the count comes from ``seconds`` and the nominal
seconds of one round, measured on a 2-core x86 container.  The seed
draws the order within each round and the inputs' content, never the
share of large and small jobs, so every round loads the program alike.

A job's time covers only the call into the program.  Its output is kept
and checked after the timed phase, so checking costs nothing in the
metrics; a failed check counts the job as failed, it never aborts the
run.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import cli, compact
from repro.compact import TECH_A, check_layout
from repro.layout import cif, database
from repro.multiplier import (
    DESIGN_FILE,
    MULTIPLIER_SAMPLE,
    PARAMETER_FILE,
    generate_via_language,
)
from repro.pla import TruthTable, generate_pla_via_language
from repro.service import jobs as service_jobs
from repro.service.client import ServiceClient
from repro.service.server import LayoutServer
import repro.verify

import speed


@dataclass
class Record:
    """One attempted job: its input, wall time and raw output."""

    job: Dict[str, Any]
    seconds: float
    output: Any = None
    error: Optional[str] = None
    failures: List[str] = field(default_factory=list)
    boxes: int = 0
    #: host speed factor from the probes around the job (``speed.py``)
    scale: float = 1.0

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failures)

    @property
    def scaled(self) -> float:
        """The job's seconds at the reference host speed."""
        return self.seconds * self.scale


@dataclass
class Phase:
    """The records of one timed pass over a job list."""

    records: List[Record]
    #: wall seconds of the pass; in-process workloads count their jobs'
    #: seconds at the reference host speed
    wall_s: float = 0.0
    skipped: int = 0
    #: service-mix only: /stats totals over the phase's sessions
    stats: Dict[str, int] = field(default_factory=dict)


@dataclass
class Reference:
    """The uncompacted multiplier a compaction is checked against."""

    counts: Dict[str, int]
    width: int
    height: int
    boxes: int
    layers: Dict[str, list]

    @functools.cached_property
    def drc(self) -> int:
        return len(check_layout(self.layers, TECH_A))


def digest(data: Any) -> str:
    """sha256 of text, bytes, or a JSON-ready value."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    elif not isinstance(data, bytes):
        data = json.dumps(data, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def layer_counts(layers: Dict[str, list]) -> Dict[str, int]:
    return {layer: len(boxes) for layer, boxes in layers.items() if boxes}


def extent(layers: Dict[str, list]) -> Tuple[int, int]:
    boxes = [box for group in layers.values() for box in group]
    if not boxes:
        return 0, 0
    return (
        max(b.xmax for b in boxes) - min(b.xmin for b in boxes),
        max(b.ymax for b in boxes) - min(b.ymin for b in boxes),
    )


class Ledger:
    """Output digests per job key, shared by every run of one source tree.

    A job key seen before must give the same digest: a compaction or a
    generator that is not deterministic shows up as a failed check.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        try:
            self.digests: Dict[str, str] = json.loads(path.read_text())
        except (OSError, ValueError):
            self.digests = {}

    def check(self, key: str, value: str) -> List[str]:
        known = self.digests.setdefault(key, value)
        if known != value:
            return [f"{key}: output digest {value[:12]} differs from {known[:12]}"]
        return []

    def save(self) -> None:
        temporary = self.path.with_suffix(f".tmp{os.getpid()}")
        temporary.write_text(json.dumps(self.digests, sort_keys=True))
        os.replace(temporary, self.path)


class Workload:
    """Base: an in-process, single-client closed loop."""

    name = ""
    #: nominal seconds of one round on the reference machine: sizes the list
    round_s = 1.0
    #: the job shapes of one round
    LADDER: List[Dict[str, Any]] = []

    def __init__(self, work: Path, ledger: Ledger) -> None:
        self.work = work
        self.ledger = ledger
        self._references: Dict[Tuple[int, int], Reference] = {}
        self.area_in = 0
        self.area_out = 0

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def job_list(self, seed: int, seconds: float) -> List[Dict[str, Any]]:
        """The ladder once per round, shuffled within each round."""
        rng = random.Random(seed)
        jobs = []
        for number in range(self.rounds(seconds)):
            batch = [dict(self.content(rng, shape), round=number) for shape in self.LADDER]
            rng.shuffle(batch)
            jobs += batch
        return jobs

    def content(self, rng: random.Random, shape: Dict[str, Any]) -> Dict[str, Any]:
        """One job of ``shape``; the default has no seeded content."""
        return shape

    def prepare(self) -> None:
        """Untimed warm-up: imports and lazy set-up finish here."""

    def execute(self, job: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def check(self, record: Record) -> None:
        raise NotImplementedError

    def reference(self, xsize: int, ysize: int) -> Reference:
        key = (xsize, ysize)
        if key not in self._references:
            cell, _ = generate_via_language(xsize, ysize)
            flat = database.flatten_cell(cell)
            bbox = flat.bounding_box()
            self._references[key] = Reference(
                layer_counts(flat.layers), bbox.width, bbox.height,
                flat.box_count(), flat.layers,
            )
        return self._references[key]

    def run(self, jobs: List[Dict[str, Any]], deadline: float,
            recorder=None) -> Phase:
        """Run ``jobs`` back to back; stop starting jobs at ``deadline``.

        The host speed probe runs between jobs, outside their timing.  The
        pass's wall is its jobs' scaled seconds: the closed loop's wall
        time without the probes.
        """
        phase = Phase([])
        before = speed.probe()
        for index, job in enumerate(jobs):
            if time.perf_counter() > deadline:
                break
            scope = recorder.job(index) if recorder else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with scope:
                    output = self.execute(job)
                error = None
            except Exception as exc:  # noqa: BLE001 — counted, never fatal
                output, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            after = speed.probe()
            record = Record(job, seconds, output, error, scale=speed.scale(before, after))
            phase.records.append(record)
            phase.wall_s += record.scaled
            before = after
        phase.skipped = len(jobs) - len(phase.records)
        return phase

    def check_all(self, phase: Phase) -> None:
        for record in phase.records:
            if record.error is not None:
                continue
            try:
                self.check(record)
            except Exception as exc:  # noqa: BLE001 — a crashing check is a failure
                record.failures.append(f"check raised {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
class MultCompact(Workload):
    """CLI flat ``xy``/``yx`` compaction plus library rubber-band x passes."""

    name = "mult-compact"
    round_s = 5.0
    #: five shapes of distinct cost; with four rounds the median is the
    #: middle of the flat 13 samples.  The rubber bands (the 8x8 one sets
    #: peak RSS) are cheaper and mostly C solver time, which the host
    #: speed probe tracks less closely than Python work.
    LADDER = [
        {"kind": "flat", "size": 13, "axes": "yx"},
        {"kind": "flat", "size": 14, "axes": "xy"},
        {"kind": "flat", "size": 16, "axes": "xy"},
        {"kind": "rubber-band", "size": 4},
        {"kind": "rubber-band", "size": 8},
    ]

    def prepare(self) -> None:
        directory = self.work / "mult-compact"
        directory.mkdir(parents=True, exist_ok=True)
        sample = directory / "mult.sample"
        design = directory / "mult.design"
        self.cif_path = directory / "mult.cif"
        sample.write_text(MULTIPLIER_SAMPLE)
        design.write_text(DESIGN_FILE)
        body = PARAMETER_FILE.split("\n", 1)[1]
        self.parameter_path = directory / "mult.par"
        self.parameter_path.write_text(
            f".example_file:{sample}\n.concept_file:{design}\n"
            f".output_file:{self.cif_path}\n.output_cell:thewholething\n" + body
        )
        for job in ({"kind": "flat", "size": 4, "axes": "xy"},
                    {"kind": "rubber-band", "size": 3}):
            self.check(Record(job, 0.0, self.execute(job)))

    def execute(self, job: Dict[str, Any]) -> Any:
        size = job["size"]
        if job["kind"] == "flat":
            argv = [
                str(self.parameter_path), "--set", f"xsize={size}",
                "--set", f"ysize={size}", "--compact", job["axes"],
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"repro exited {code}")
            return self.cif_path.read_text()
        cell, _ = generate_via_language(size, size)
        layout = database.flatten_cell(cell)
        return compact.compact_layout(layout, TECH_A, rubber_band=True, axis="x")

    def check(self, record: Record) -> None:
        job = record.job
        reference = self.reference(job["size"], job["size"])
        record.boxes = reference.boxes
        if job["kind"] == "flat":
            name = "thewholething" + "_compacted" * len(job["axes"])
            layers = database.flatten_cell(cif.read_cif(record.output).lookup(name)).layers
            key, value = f"flat/{job['size']}/{job['axes']}", digest(record.output)
        else:
            result = record.output
            layers = result.layers
            key = f"rubber-band/{job['size']}"
            value = digest(sorted(
                (layer, b.xmin, b.ymin, b.xmax, b.ymax)
                for layer, boxes in layers.items() for b in boxes
            ))
            if result.jog_after > result.jog_before:
                record.failures.append(
                    f"rubber band raised misalignment {result.jog_before}"
                    f" -> {result.jog_after}"
                )
        record.failures += compaction_failures(reference, layers)
        record.failures += self.ledger.check(key, value)
        width, height = extent(layers)
        self.area_in += reference.width * reference.height
        self.area_out += width * height


def shape_failures(reference: Reference, layers: Dict[str, list]) -> List[str]:
    """Box counts kept per layer and no growth in either direction."""
    failures = []
    counts = layer_counts(layers)
    if counts != reference.counts:
        failures.append(f"box counts per layer {counts} != {reference.counts}")
    width, height = extent(layers)
    if width > reference.width or height > reference.height:
        failures.append(
            f"layout {width}x{height} exceeds input"
            f" {reference.width}x{reference.height}"
        )
    return failures


def compaction_failures(reference: Reference, layers: Dict[str, list]) -> List[str]:
    """:func:`shape_failures` plus DRC no worse than the uncompacted layout."""
    failures = shape_failures(reference, layers)
    violations = len(check_layout(layers, TECH_A))
    if violations > reference.drc:
        failures.append(f"DRC violations {violations} > uncompacted {reference.drc}")
    return failures


# ---------------------------------------------------------------------------
def verification_failures(report: Dict[str, Any], family: str) -> List[str]:
    """Failures of a verification report, including a vacuous PASS."""
    failures = []
    if not report.get("ok"):
        failures.append(f"verification FAIL: {report.get('failures', [])[:3]}")
    if f"({family})" not in report.get("subject", ""):
        failures.append(f"verified as {report.get('subject')!r}, not {family}")
    lvs = report.get("lvs")
    if not lvs or not lvs.get("matched"):
        failures.append("LVS did not match a golden netlist")
    elif min(lvs["net_counts"]) <= 0:
        failures.append(f"LVS compared no nets {lvs['net_counts']}")
    if report.get("vectors_checked", 0) <= 0:
        failures.append("no simulation vectors checked")
    return failures


class MultVerify(Workload):
    """Uncompacted multiplier, ``verify="all"``, through the service pipeline."""

    name = "mult-verify"
    round_s = 4.4
    #: from 6x6 on every size checks 4096 sampled operand pairs, so a job
    #: costs about its cell count: three shapes of about 64 cells give a
    #: median among all the run's samples
    LADDER = [
        {"xsize": 8, "ysize": 8},
        {"xsize": 6, "ysize": 11},
        {"xsize": 11, "ysize": 6},
    ]

    def prepare(self) -> None:
        job = {"xsize": 3, "ysize": 3}
        self.check(Record(job, 0.0, self.execute(job)))

    def execute(self, job: Dict[str, Any]) -> Any:
        spec = service_jobs.JobSpec(
            kind="multiplier", parameters=f"xsize={job['xsize']}\nysize={job['ysize']}",
            verify="all",
        )
        return service_jobs.execute_job(spec)

    def check(self, record: Record) -> None:
        xsize, ysize = record.job["xsize"], record.job["ysize"]
        result = record.output
        record.boxes = self.reference(xsize, ysize).boxes
        record.failures += verification_failures(result.verification, "multiplier")
        record.failures += self.ledger.check(f"verify/{xsize}x{ysize}", digest(result.cif))


# ---------------------------------------------------------------------------
def random_table(rng: random.Random, inputs: int, outputs: int,
                 terms: int) -> Dict[str, List[str]]:
    """A PLA personality with a fixed literal count per product term.

    Fixing the density keeps the simulation cost a function of the
    shape, so two seeds load the simulator alike.
    """
    literals = -(-2 * inputs // 3)
    and_plane, or_plane = [], []
    for _ in range(terms):
        row = ["-"] * inputs
        for position in rng.sample(range(inputs), literals):
            row[position] = rng.choice("01")
        and_plane.append("".join(row))
        out = ["0"] * outputs
        for position in rng.sample(range(outputs), max(1, outputs // 2)):
            out[position] = "1"
        or_plane.append(out)
    for column in range(outputs):  # every output is driven by some term
        if all(row[column] == "0" for row in or_plane):
            or_plane[rng.randrange(terms)][column] = "1"
    return {"and": and_plane, "or": ["".join(row) for row in or_plane]}


class PlaVerify(Workload):
    """Random PLAs through the design-file language, verified and emitted."""

    name = "pla-verify"
    round_s = 3.3
    #: shapes spanning 5-8 inputs, 8-32 terms and 2-8 outputs at a
    #: similar cost each (0.3-0.55 s on the reference machine).  The
    #: median of a run then falls among many jobs of like cost, so one
    #: slow job cannot move it; the heavy shapes (8 inputs with 24-32
    #: terms, 2-5 s) are left out for the same reason.
    LADDER = [
        {"inputs": inputs, "terms": terms, "outputs": outputs}
        for inputs, terms, outputs in [
            (5, 32, 2), (8, 8, 2), (6, 24, 5), (7, 16, 2), (5, 24, 8),
            (7, 8, 8), (6, 32, 2),
        ]
    ]

    def content(self, rng: random.Random, shape: Dict[str, Any]) -> Dict[str, Any]:
        """A fresh seeded personality of ``shape`` every round."""
        return {**shape, **random_table(rng, shape["inputs"], shape["outputs"],
                                        shape["terms"])}

    def prepare(self) -> None:
        job = {"inputs": 3, "outputs": 2, "terms": 4,
               **random_table(random.Random(0), 3, 2, 4)}
        self.check(Record(job, 0.0, self.execute(job)))

    def execute(self, job: Dict[str, Any]) -> Any:
        table = TruthTable(job["and"], job["or"])
        cell, _ = generate_pla_via_language(table)
        report = repro.verify.verify_cell(cell, mode="all", table=table)
        return report.to_dict(), cif.cif_text(cell)

    def check(self, record: Record) -> None:
        report, text = record.output
        job = record.job
        record.failures += verification_failures(report, "pla")
        if not report["exhaustive"] or report["vectors_checked"] != 1 << job["inputs"]:
            record.failures.append(
                f"simulated {report['vectors_checked']} vectors,"
                f" not all {1 << job['inputs']}"
            )
        layout = database.flatten_cell(cif.read_cif(text).lookup("pla"))
        record.boxes = layout.box_count()
        record.failures += self.ledger.check(f"pla/{digest(job)}", digest(text))


# ---------------------------------------------------------------------------
class ServiceMix(Workload):
    """A live layout service, two client threads, deduplicated and fresh specs.

    Each session (a round) starts a server on an empty store and cache
    root, so every session pays its own cold leaf compactions; a run is
    several sessions.
    """

    name = "service-mix"
    SESSION_JOBS = 40
    REPEATS = 10
    round_s = 6.5
    CLIENTS = 2
    MODES = ("hier", "hier:xy")

    def __init__(self, work: Path, ledger: Ledger) -> None:
        super().__init__(work, ledger)
        self.workers = min(2, len(os.sched_getaffinity(0)))
        self._checked: set = set()

    def job_list(self, seed: int, seconds: float) -> List[Dict[str, Any]]:
        rng = random.Random(seed)
        jobs = []
        for session in range(self.rounds(seconds)):
            # The first job is always fresh; REPEATS later positions
            # resubmit a spec this session has already sent.
            repeats = set(rng.sample(range(1, self.SESSION_JOBS), self.REPEATS))
            sent: List[Tuple[int, int, str]] = []
            for position in range(self.SESSION_JOBS):
                if position in repeats:
                    spec = rng.choice(sent)
                else:
                    spec = None
                    while spec is None or spec in sent:
                        spec = (rng.randint(4, 12), rng.randint(4, 12),
                                rng.choice(self.MODES))
                    sent.append(spec)
                jobs.append({"round": session, "xsize": spec[0],
                             "ysize": spec[1], "compact": spec[2]})
        return jobs

    def prepare(self) -> None:
        # Import-time set-up only: the store and cache start empty in
        # every session on purpose.
        service_jobs.JobSpec(kind="multiplier", compact="hier").validate()

    def run(self, jobs: List[Dict[str, Any]], deadline: float,
            recorder=None) -> Phase:
        phase = Phase([], stats={
            "submissions": 0, "executions": 0, "cache_hits": 0, "cache_lookups": 0,
        })
        for session in sorted({job["round"] for job in jobs}):
            batch = [job for job in jobs if job["round"] == session]
            if time.perf_counter() > deadline:
                phase.skipped += len(batch)
                continue
            self._session(batch, recorder, phase)
        return phase

    def _session(self, batch: List[Dict[str, Any]], recorder, phase: Phase) -> None:
        root = self.work / "service-store"
        shutil.rmtree(root, ignore_errors=True)
        records: List[Optional[Record]] = [None] * len(batch)
        pending = iter(enumerate(batch))
        lock = threading.Lock()
        server = LayoutServer(str(root), port=0, workers=self.workers)
        server.start()
        try:
            def client_loop() -> None:
                client = ServiceClient(server.url)
                while True:
                    with lock:
                        index, job = next(pending, (None, None))
                    if job is None:
                        return
                    scope = recorder.job(index) if recorder else contextlib.nullcontext()
                    spec = service_jobs.JobSpec(
                        kind="multiplier", compact=job["compact"],
                        parameters=f"xsize={job['xsize']}\nysize={job['ysize']}",
                    )
                    start = time.perf_counter()
                    try:
                        with scope:
                            submitted = client.submit(spec)
                            payload = client.wait(submitted["job"])
                            layout = client.artifact(submitted["job"], "layout.cif")
                        output, error = (submitted, payload, layout), None
                    except Exception as exc:  # noqa: BLE001 — counted, never fatal
                        output, error = None, f"{type(exc).__name__}: {exc}"
                    records[index] = Record(
                        job, time.perf_counter() - start, output, error
                    )

            threads = [threading.Thread(target=client_loop) for _ in range(self.CLIENTS)]
            begin = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            seconds = time.perf_counter() - begin
            stats = ServiceClient(server.url).stats()
        finally:
            server.stop(drain=True)
            shutil.rmtree(root, ignore_errors=True)
        cache = stats["cache"]
        phase.stats["submissions"] += stats["submissions"]
        phase.stats["executions"] += stats["executions"]
        phase.stats["cache_hits"] += cache.get("cache_hits", 0)
        phase.stats["cache_lookups"] += cache.get("cache_hits", 0) + cache.get("cache_misses", 0)
        phase.records += [record for record in records if record is not None]
        phase.wall_s += seconds

    def check(self, record: Record) -> None:
        submitted, payload, layout = record.output
        job = record.job
        if payload.get("state") != "done" or not payload.get("result"):
            record.failures.append(f"job ended {payload.get('state')}")
            return
        result = payload["result"]
        record.output = (submitted, result)  # keep what the layer metrics read
        reference = self.reference(job["xsize"], job["ysize"])
        record.boxes = reference.boxes
        key = f"service/{job['xsize']}x{job['ysize']}/{job['compact']}"
        value = digest(layout)
        record.failures += self.ledger.check(key, value)
        if (key, value) in self._checked:
            return  # same bytes as a layout already checked
        self._checked.add((key, value))
        text = layout.decode("utf-8")
        layers = database.flatten_cell(cif.read_cif(text).lookup(result["cell_name"])).layers
        record.failures += shape_failures(reference, layers)


WORKLOADS = {cls.name: cls for cls in (MultCompact, MultVerify, PlaVerify, ServiceMix)}
