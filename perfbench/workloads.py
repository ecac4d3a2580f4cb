"""The four benchmark workloads: inputs, one measured pass, correctness checks.

Each workload builds its inputs once (:meth:`BenchWorkload.prepare`, timed
as set-up) and then runs *passes* over them.  A pass returns a
:class:`Pass`: its host CPU and wall time, the simulated instructions it
committed, the host CPU time of every simulated cell, the correctness checks
it made, and a digest of every simulated result.  Simulation is
deterministic, so the digest is identical across passes, across traced and
untraced runs, and across host-only changes to the program.

Host time is measured as CPU time, summed over the benchmark process and the
sweep workers it forks: on a shared host, time the scheduler gives to other
tenants lengthens the wall time of a pass but not its CPU time.  How fast a
CPU second is still drifts with the load on the physical host (by half over
an hour on a 2-vCPU cloud VM), so :func:`calibration_seconds` times a fixed
pure-Python loop between passes, and the reported times are scaled to a
host on which that loop takes :data:`REFERENCE_CALIBRATION_S`.

==================  =========================================================
``paper-grid``      ``Session.sweep`` over 11 configs x 11 kernels x 2 attack
                    models (242 cells, reduced scale, worker pool), then the
                    Figure 6/7/8 and Table III builders of ``repro.eval``
``core-bound``      in-process ``execute()`` of four L1/L2-resident, high-IPC
                    kernels under Unsafe, STT{ld+fp} and Hybrid
``dram-bound``      in-process ``execute()`` of an unwarmed 8192-node pointer
                    chase, mcf_like and xz_like under STT{ld}, DelayOnMiss
                    and Hybrid
``gadget-corpus``   ``scan_program`` over the 38-program corpus, trace-level
                    ``run_dynamic`` under Unsafe and Hybrid, then the
                    sweep-level cross-validation (228 cells, worker pool)
==================  =========================================================
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import repro.sim.engine as sim_engine
from repro.common.config import AttackModel, MachineConfig
from repro.eval import build_figure6, build_figure7, build_figure8
from repro.eval.tables import table3_rows
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.core import Core
from repro.scan import (
    CrossValidation,
    amplified_workload,
    run_dynamic,
    scan_program,
    sweep_signal,
)
from repro.sim import (
    EVALUATED_CONFIGS,
    SDO_CONFIG_NAMES,
    CachePolicy,
    ExecutionPolicy,
    RunMetrics,
    RunRequest,
    Session,
    config_by_name,
    execute,
    make_protection,
)
from repro.sim.events import FAILED, FINISHED, QUEUED, STARTED

from perfbench import inputs

MODELS = (AttackModel.SPECTRE, AttackModel.FUTURISTIC)


def pool_jobs() -> int:
    """Worker processes for the pooled workloads: the CPUs we may run on."""
    return len(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    """CPU time of this process and of every child it has waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


#: CPU seconds :func:`calibration_seconds` takes on the reference host the
#: reported times are scaled to: a 2-vCPU cloud VM with Python 3.11 at a
#: quiet hour.
REFERENCE_CALIBRATION_S = 0.1


class _Line:
    __slots__ = ("tag", "age")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.age = 0

    def touch(self, step: int) -> int:
        self.age = (self.age + step) & 0xFFFF
        return self.age


def calibration_seconds(steps: int = 400_000) -> float:
    """CPU seconds of a fixed pure-Python loop: how fast the host runs now.

    The loop does what the simulator's hot paths do (method calls that update
    attributes, list indexing, dict stores) over a 64k-object working set.
    It calls nothing in ``repro``, so no change to the program moves it.
    """
    lines = [_Line(tag) for tag in range(1 << 16)]
    table: dict[int, int] = {}
    index = 0
    began = time.process_time()
    for step in range(steps):
        index = (index * 1103515245 + 12345) & 0xFFFF
        age = lines[index].touch(step)
        table[index ^ (age & 0xFF)] = age
    return time.process_time() - began


@dataclass
class Pass:
    """What one measured pass did and how long it took."""

    wall_s: float
    #: CPU seconds of the pass, its sweep workers included.
    cpu_s: float
    instructions: int
    #: (config name, committed instructions, host CPU seconds) per simulated cell.
    cells: list[tuple[str, int, float]]
    checks: "Checks"
    #: Every simulated result of the pass, in a deterministic order.
    results: list
    metrics: list[RunMetrics] = field(default_factory=list)
    events: list = field(default_factory=list)
    #: Gadgets the static scan found (gadget-corpus only).
    gadgets: int = 0

    @property
    def cell_seconds(self) -> list[float]:
        return [seconds for _, _, seconds in self.cells]

    def digest(self) -> str:
        blob = json.dumps(self.results, sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


class Checks:
    """Correctness checks made, the failed ones, and mismatches only reported."""

    def __init__(self) -> None:
        self.count = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(message)

    def merge(self, other: "Checks") -> None:
        self.count += other.count
        self.failures.extend(other.failures)
        self.notes.extend(other.notes)

    def halted(self, label: str, outcome) -> None:
        self.expect(
            isinstance(outcome, RunMetrics) and outcome.halted,
            f"{label} did not halt cleanly: {outcome}",
        )

    def same_architecture(self, label: str, outcomes) -> None:
        """Protection must not change architecture: equal committed counts."""
        counts = {o.instructions for o in outcomes if isinstance(o, RunMetrics)}
        self.expect(
            len(counts) <= 1,
            f"{label}: committed instruction counts differ: {sorted(counts)}",
        )


def result_of(outcome) -> list:
    """The deterministic, simulated part of one cell's outcome."""
    if not isinstance(outcome, RunMetrics):
        return ["failure", str(outcome)]
    return [
        outcome.workload, outcome.config, outcome.attack_model.value,
        outcome.cycles, outcome.instructions, outcome.termination,
        sorted(outcome.stats.items()),
    ]


class EventClock:
    """Session observer: every RunEvent with the host time it arrived."""

    def __init__(self) -> None:
        self.events: list = []

    def __call__(self, event) -> None:
        self.events.append((time.perf_counter(), event))


def pooled_session(clock: EventClock) -> Session:
    """Cold, pooled, no wall-clock timeout (the cycle watchdog stays on)."""
    return Session(
        execution=ExecutionPolicy(jobs=pool_jobs()),
        cache=CachePolicy(enabled=False),
        observers=[clock],
    )


def worker_wall(events) -> float:
    """Summed worker wall time of every settled pool cell."""
    return sum(
        event.wall_time for _, event in events
        if event.kind in (FINISHED, FAILED) and event.wall_time is not None
    )


class CellClock:
    """CPU seconds of every cell a sweep executes, in whichever process.

    While :meth:`timing` is active the sweep engine's ``execute`` is
    wrapped; each call appends (config, committed instructions, CPU seconds)
    to ``<out>/cells-<pid>.tsv`` of the process that made it, so the forked
    pool workers report their cells too.  Workers inherit the wrapper
    because the pool forks them after it is installed.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir

    @contextmanager
    def timing(self):
        self.out_dir.mkdir(exist_ok=True)
        self._clear()
        original = sim_engine.execute
        out_dir = self.out_dir

        def timed(request, **kwargs):
            began = time.process_time()
            metrics = original(request, **kwargs)
            seconds = time.process_time() - began
            with (out_dir / f"cells-{os.getpid()}.tsv").open("a") as stream:
                stream.write(f"{request.config.name}\t{metrics.instructions}\t{seconds!r}\n")
            return metrics

        sim_engine.execute = timed
        try:
            yield
        finally:
            sim_engine.execute = original

    def collect(self) -> list[tuple[str, int, float]]:
        """The cells timed since :meth:`timing` began (failed cells have none)."""
        cells = []
        for path in sorted(self.out_dir.glob("cells-*.tsv")):
            for line in path.read_text().splitlines():
                config, instructions, seconds = line.split("\t")
                cells.append((config, int(instructions), float(seconds)))
        self._clear()
        return cells

    def _clear(self) -> None:
        for path in self.out_dir.glob("cells-*.tsv"):
            path.unlink()


class BenchWorkload:
    name = ""
    pooled = False
    #: The share of ``--seconds`` one pass is given: a run makes
    #: ``--seconds / pass_seconds`` passes (at least one).  Set from the pass
    #: length on a 2-vCPU host.
    pass_seconds = 20.0

    def prepare(self, seed: int, out_dir: Path):
        """Generate the inputs (and the session): the timed set-up."""
        raise NotImplementedError

    def run_pass(self, prepared, recorder) -> Pass:
        raise NotImplementedError

    def close(self, prepared) -> None:
        session = getattr(prepared, "session", None)
        if session is not None:
            session.close()


# ------------------------------------------------------------------------- #


@dataclass
class GridInputs:
    workloads: list
    session: Session
    clock: EventClock
    cell_clock: CellClock


class PaperGrid(BenchWorkload):
    """The paper's evaluation grid at reduced scale, then its tables."""

    name = "paper-grid"
    pooled = True
    #: A pass takes about 8 s of wall time (14 s of CPU time over two
    #: workers) on a 2-vCPU host; a run pools two passes.
    pass_seconds = 8.0
    #: Iteration counts (and x264's block) shrink to this share of the
    #: suite's, floored at FLOOR.  Table footprints keep their size, so
    #: mcf_like still re-warms its 41k-line set in each of its 22 cells.
    SCALE = 0.03
    FLOOR = 15

    def prepare(self, seed: int, out_dir: Path) -> GridInputs:
        workloads = inputs.kernels(inputs.KERNEL_NAMES, seed, self.SCALE, self.FLOOR)
        clock = EventClock()
        return GridInputs(workloads, pooled_session(clock), clock, CellClock(out_dir))

    def run_pass(self, prepared: GridInputs, recorder) -> Pass:
        checks = Checks()
        prepared.clock.events.clear()
        start, cpu_start = time.perf_counter(), cpu_seconds()
        with recorder.span("sim.sweep"), prepared.cell_clock.timing():
            outcomes = prepared.session.sweep(
                prepared.workloads, EVALUATED_CONFIGS, MODELS, strict=False
            )
        done = [o for o in outcomes if isinstance(o, RunMetrics)]
        tables, table_error = {}, None
        try:
            with recorder.span("eval.build_figure6"):
                tables["figure6"] = build_figure6(done)
            with recorder.span("eval.build_figure7"):
                tables["figure7"] = build_figure7(done, configs=SDO_CONFIG_NAMES)
            with recorder.span("eval.build_figure8"):
                tables["figure8"] = build_figure8(done, SDO_CONFIG_NAMES)
            with recorder.span("eval.table3_rows"):
                tables["table3"] = table3_rows(done)
        except Exception as exc:  # a table that cannot be built is a failure
            table_error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu_start
        checks.expect(table_error is None, f"eval tables: {table_error}")

        per_group: dict[tuple, list] = {}
        position = 0
        for model in MODELS:
            for workload in prepared.workloads:
                for config in EVALUATED_CONFIGS:
                    outcome = outcomes[position]
                    position += 1
                    label = f"{workload.name}/{config.name}/{model.value}"
                    checks.halted(label, outcome)
                    per_group.setdefault((workload.name, model.value), []).append(outcome)
        for (workload, model), group in per_group.items():
            checks.same_architecture(f"{workload} ({model})", group)
        if "figure6" in tables:
            figure6 = tables["figure6"]
            normalized = {c.name for c in EVALUATED_CONFIGS} - {"Unsafe"}
            checks.expect(
                set(figure6.workloads) == set(inputs.KERNEL_NAMES)
                and set(figure6.configs) == normalized
                and set(figure6.data) == set(MODELS),
                "figure 6 does not cover every kernel, config and attack model",
            )
        return Pass(
            wall_s=wall,
            cpu_s=cpu,
            instructions=sum(m.instructions for m in done),
            cells=prepared.cell_clock.collect(),
            checks=checks,
            results=[result_of(o) for o in outcomes],
            metrics=done,
            events=list(prepared.clock.events),
        )


# ------------------------------------------------------------------------- #


class InProcessCells(BenchWorkload):
    """execute() of every (kernel, config) cell in the benchmark process."""

    CONFIGS: tuple[str, ...] = ()

    def workloads(self, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, seed: int, out_dir: Path) -> list:
        """(workload, one RunRequest per config) for every kernel."""
        configs = [config_by_name(name) for name in self.CONFIGS]
        return [
            (workload, [RunRequest(workload, config) for config in configs])
            for workload in self.workloads(seed)
        ]

    def run_pass(self, prepared: list, recorder) -> Pass:
        checks = Checks()
        outcomes, cells = [], []
        start, cpu_start = time.perf_counter(), cpu_seconds()
        for workload, requests in prepared:
            group = []
            for request in requests:
                label = f"{workload.name}/{request.config.name}"
                with recorder.cell(label), recorder.span("sim.execute"):
                    began = time.process_time()
                    try:
                        outcome = execute(request)
                    except Exception as exc:  # hang, golden mismatch, crash
                        outcome = f"{type(exc).__name__}: {exc}"
                    seconds = time.process_time() - began
                checks.halted(label, outcome)
                committed = outcome.instructions if isinstance(outcome, RunMetrics) else 0
                cells.append((request.config.name, committed, seconds))
                group.append(outcome)
            checks.same_architecture(workload.name, group)
            outcomes.extend(group)
        wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu_start
        done = [o for o in outcomes if isinstance(o, RunMetrics)]
        return Pass(
            wall_s=wall,
            cpu_s=cpu,
            instructions=sum(m.instructions for m in done),
            cells=cells,
            checks=checks,
            results=[result_of(o) for o in outcomes],
            metrics=done,
        )


class CoreBound(InProcessCells):
    """Per-cycle pipeline stages and the per-commit golden ISS dominate."""

    name = "core-bound"
    pass_seconds = 4.0
    CONFIGS = ("Unsafe", "STT{ld+fp}", "Hybrid")
    KERNELS = ("deepsjeng_like", "exchange2_like", "namd_like", "omnetpp_like")
    SCALE = 0.5

    def workloads(self, seed: int) -> list:
        return inputs.kernels(self.KERNELS, seed, self.SCALE)


class DramBound(InProcessCells):
    """Fast-forward skips most cycles; memory and delay polling weigh more."""

    name = "dram-bound"
    pass_seconds = 4.0
    CONFIGS = ("STT{ld}", "DelayOnMiss", "Hybrid")
    KERNELS = ("mcf_like", "xz_like")
    SCALE = 0.6

    def workloads(self, seed: int) -> list:
        return [inputs.pointer_chase(seed, self.SCALE)] + inputs.kernels(
            self.KERNELS, seed, self.SCALE
        )

    def probe_costs(self, prepared: list, checks: Checks) -> dict:
        """Host cost of TaintWindowProbe + MlpProbe on the pointer chase.

        Both sides build the Core directly, as a probe user must; the
        probed run must simulate exactly the cycles the plain run does.
        """
        from repro.analysis.probes import MlpProbe, TaintWindowProbe

        workload, requests = prepared[0]
        seconds = {False: 0.0, True: 0.0}
        cycles = {False: 0, True: 0}
        skipped = {False: 0, True: 0}
        for request in requests:
            outcome = {}
            for probed in (False, True):
                machine = MachineConfig().with_protection(
                    request.config.protection_config(request.attack_model)
                )
                hierarchy = MemoryHierarchy(machine)
                core = Core(
                    workload.program,
                    config=machine,
                    protection=make_protection(request.config, request.attack_model),
                    hierarchy=hierarchy,
                )
                if workload.warm_addresses:
                    hierarchy.warm(workload.warm_addresses)
                if probed:
                    TaintWindowProbe(core)
                    MlpProbe(core)
                began = time.process_time()
                result = core.run(max_cycles=workload.max_cycles)
                seconds[probed] += time.process_time() - began
                cycles[probed] += result.cycles
                skipped[probed] += core.ff_skipped_cycles
                outcome[probed] = (result.cycles, result.instructions)
            checks.expect(
                outcome[False] == outcome[True],
                f"{workload.name}/{request.config.name}: probes changed the "
                f"simulation: {outcome[False]} vs {outcome[True]} (cycles, instructions)",
            )
        return {
            "analysis.probe_slowdown": seconds[True] / seconds[False],
            "analysis.probe_ff_skip_ratio": skipped[True] / max(1, cycles[True]),
            "probe.plain_ff_skip_ratio": skipped[False] / max(1, cycles[False]),
        }


# ------------------------------------------------------------------------- #


@dataclass
class CorpusInputs:
    entries: tuple
    programs: dict
    plain: dict  # (entry name, secret) -> workload
    amplified: list  # entries x secrets
    session: Session
    clock: EventClock
    cell_clock: CellClock


class GadgetCorpus(BenchWorkload):
    """Static scan, trace-level and sweep-level cross-validation."""

    name = "gadget-corpus"
    pooled = True
    #: A pass takes about 9 s of wall time (13 s of CPU time) on a 2-vCPU
    #: host; a run makes two, as one alone spread by a tenth under load.
    pass_seconds = 8.0
    SECRETS = (0, 1)
    TRACE_CONFIGS = ("Unsafe", "Hybrid")
    SWEEP_CONFIGS = ("Unsafe", "STT{ld+fp}", "Hybrid")
    PROTECTED = ("STT{ld+fp}", "Hybrid")

    def prepare(self, seed: int, out_dir: Path) -> CorpusInputs:
        entries = inputs.corpus(seed)
        clock = EventClock()
        return CorpusInputs(
            entries=entries,
            programs={e.name: e.program() for e in entries},
            plain={(e.name, s): e.workload(s) for e in entries for s in self.SECRETS},
            amplified=[amplified_workload(e, s) for e in entries for s in self.SECRETS],
            session=pooled_session(clock),
            clock=clock,
            cell_clock=CellClock(out_dir),
        )

    def run_pass(self, prepared: CorpusInputs, recorder) -> Pass:
        checks = Checks()
        results: list = []
        start, cpu_start = time.perf_counter(), cpu_seconds()

        reports = {}
        for entry in prepared.entries:
            with recorder.cell(entry.name), recorder.span("scan.scan_program"):
                reports[entry.name] = scan_program(
                    prepared.programs[entry.name], path=f"corpus/{entry.name}"
                )
        verdicts = {}
        for entry in prepared.entries:
            def builder(secret, name=entry.name):
                return prepared.plain[(name, secret)]

            for config in self.TRACE_CONFIGS:
                label = f"{entry.name}/{config}"
                with recorder.cell(label), recorder.span("security.run_dynamic"):
                    try:
                        verdicts[label] = run_dynamic(builder, config)
                    except RuntimeError as exc:  # secret-dependent commits
                        checks.expect(False, f"{label}: {exc}")

        prepared.clock.events.clear()
        configs = [config_by_name(name) for name in self.SWEEP_CONFIGS]
        with recorder.span("sim.sweep"), prepared.cell_clock.timing():
            outcomes = prepared.session.sweep(
                prepared.amplified, configs, (AttackModel.SPECTRE,), strict=False
            )
        wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu_start

        cells = {}
        position = 0
        for entry in prepared.entries:
            for secret in self.SECRETS:
                for config in self.SWEEP_CONFIGS:
                    cells[(entry.name, config, secret)] = outcomes[position]
                    position += 1
        instructions = sum(o.instructions for o in outcomes if isinstance(o, RunMetrics))
        for entry in prepared.entries:
            report = reports[entry.name]
            results.append([entry.name, sorted(g.gadget_class for g in report.gadgets),
                             len(report.gadgets)])
            self._check_trace_level(entry, report, verdicts, checks, results)
            per_entry = [cells[(entry.name, c, s)] for c in self.SWEEP_CONFIGS
                         for s in self.SECRETS]
            for config in self.SWEEP_CONFIGS:
                for secret in self.SECRETS:
                    checks.halted(f"{entry.name}/{config}/secret {secret}",
                                  cells[(entry.name, config, secret)])
            checks.same_architecture(entry.name, per_entry)
            if isinstance(per_entry[0], RunMetrics):
                # run_dynamic committed the same stream twice per scheme.
                instructions += 2 * len(self.TRACE_CONFIGS) * per_entry[0].instructions
            self._check_sweep_level(entry, report, cells, checks)

        results.extend(result_of(o) for o in outcomes)
        return Pass(
            wall_s=wall,
            cpu_s=cpu,
            instructions=instructions,
            cells=prepared.cell_clock.collect(),
            checks=checks,
            results=results,
            metrics=[o for o in outcomes if isinstance(o, RunMetrics)],
            events=list(prepared.clock.events),
            gadgets=sum(len(r.gadgets) for r in reports.values()),
        )

    def _check_trace_level(self, entry, report, verdicts, checks, results) -> None:
        unsafe = verdicts.get(f"{entry.name}/Unsafe")
        if unsafe is not None:
            cross = CrossValidation(entry=entry, report=report, unsafe=unsafe)
            checks.expect(not cross.false_negative, f"false negative: {cross.explain()}")
            if cross.unannotated_false_positive or unsafe.leaked != entry.expected_leak:
                checks.notes.append(
                    f"{cross.explain()} (corpus declares expected_leak="
                    f"{entry.expected_leak})"
                )
        for config in self.TRACE_CONFIGS:
            verdict = verdicts.get(f"{entry.name}/{config}")
            if verdict is None:
                continue
            if config in self.PROTECTED:
                checks.expect(
                    not verdict.leaked,
                    f"{entry.name}: {config} is not secret-invariant "
                    f"(cycles {verdict.cycles_by_secret}, divergence {verdict.divergence})",
                )
            divergence = verdict.divergence
            results.append([
                verdict.name, verdict.config, sorted(verdict.cycles_by_secret.items()),
                None if divergence is None else divergence.event_index,
            ])

    def _check_sweep_level(self, entry, report, cells, checks) -> None:
        signals = {}
        for config in self.SWEEP_CONFIGS:
            pair = [cells[(entry.name, config, s)] for s in self.SECRETS]
            if all(isinstance(o, RunMetrics) for o in pair):
                signals[config] = [sweep_signal(o) for o in pair]
        if "Unsafe" in signals:
            differs = signals["Unsafe"][0] != signals["Unsafe"][1]
            checks.expect(
                not differs or report.is_positive,
                f"{entry.name}: sweep-visible Unsafe leak but the static scan "
                "found no gadget (false negative)",
            )
            if differs != entry.expected_leak:
                checks.notes.append(
                    f"{entry.name}: amplified Unsafe sweep signal "
                    f"{'differs' if differs else 'is invariant'} but the corpus "
                    f"declares expected_leak={entry.expected_leak}"
                )
        for config in self.PROTECTED:
            if config in signals:
                checks.expect(
                    signals[config][0] == signals[config][1],
                    f"{entry.name}: {config} sweep signal depends on the secret",
                )


WORKLOADS = {w.name: w for w in (PaperGrid(), CoreBound(), DramBound(), GadgetCorpus())}


def sim_layer(events, jobs: int, wall_s: float) -> dict:
    """repro.sim figures from one pass's RunEvent stream (host receipt times)."""
    queued, started, finished = {}, {}, {}
    busy = 0.0
    for at, event in events:
        if event.kind == QUEUED:
            queued[event.index] = at
        elif event.kind == STARTED:
            started[event.index] = at
        elif event.kind in (FINISHED, FAILED):
            finished[event.index] = (at, event.wall_time or 0.0)
            busy += event.wall_time or 0.0
    dispatch = [
        at - started[index] - wall
        for index, (at, wall) in finished.items() if index in started
    ]
    waits = [started[index] - queued[index] for index in started if index in queued]
    return {
        "sim.dispatch_overhead_s": statistics.median(dispatch) if dispatch else 0.0,
        "sim.pool_utilization": busy / (jobs * wall_s),
        "sim.queue_wait_p50_s": statistics.median(waits) if waits else 0.0,
    }
