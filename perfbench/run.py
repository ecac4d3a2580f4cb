"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics:
set-up is repeated and its median reported, then ``--seconds`` divided by the
workload's ``pass_seconds`` (at least one) whole passes run.  The count is
fixed rather than timed so that every run of one commit pools the same
number of cell samples into its percentiles.  Host times are CPU seconds of
the benchmark process and its sweep workers, scaled by the host speed that
a calibration loop measures before the first pass and after each (see
``perfbench.workloads``).  The raw CPU times and the wall time of each pass
are printed alongside but not reported as metrics: other tenants of a
shared host move wall time by a third and raw CPU time by half.
``--trace 1`` runs one untraced and one traced pass over the same inputs and
prints the per-layer metrics; the traced spans are written to
``.perfbench/trace-<workload>-<seed>.jsonl``.  Either way the command checks
the simulated results, prints a digest of them, ends its output with one
JSON line, and exits 1 if any check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
IMPORTS = "import repro.sim, repro.workloads, repro.scan, repro.eval, repro.analysis"

END_TO_END = {
    "cpu_s": "s",
    "kips": "kinstr/s",
    "cell_p50_s": "s",
    "cell_p95_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

CONFIG_SLUGS = {
    "Unsafe": "unsafe",
    "STT{ld}": "stt-ld",
    "STT{ld+fp}": "stt-ld-fp",
    "Static L1": "static-l1",
    "Static L2": "static-l2",
    "Static L3": "static-l3",
    "Hybrid": "hybrid",
    "Perfect": "perfect",
    "SpecBox": "specbox",
    "DelayOnMiss": "delayonmiss",
    "Fence": "fence",
}

PER_LAYER = {
    "pipeline.self_s": "s",
    "pipeline.stepped_cycles": "count",
    "pipeline.ff_skip_ratio": "ratio",
    "pipeline.us_per_stepped_cycle": "us",
    "pipeline.ipc": "instr/cycle",
    "pipeline.squashed_uop_ratio": "ratio",
    "pipeline.iq_occupancy_mean": "uops",
    "memory.self_s": "s",
    "memory.warm_s": "s",
    "memory.accesses": "count",
    "memory.us_per_access": "us",
    "memory.l1_hit_rate": "ratio",
    "memory.dram_share": "ratio",
    "memory.mshr_stalls": "count",
    "isa.golden_s": "s",
    "isa.golden_share": "ratio",
    "protection.self_s": "s",
    "protection.hook_calls": "count",
    **{f"protection.kips.{slug}": "kinstr/s" for slug in CONFIG_SLUGS.values()},
    "stt.load_delay_cycles": "count",
    "sdo.obl_success_rate": "ratio",
    "sdo.predictor_precision": "ratio",
    "sim.dispatch_overhead_s": "s",
    "sim.pool_utilization": "ratio",
    "sim.queue_wait_p50_s": "s",
    "sim.cell_build_s": "s",
    "security.dynamic_s": "s",
    "security.observer_events": "count",
    "security.compare_s": "s",
    "scan.self_s": "s",
    "scan.gadgets": "count",
    "analysis.probe_slowdown": "ratio",
    "analysis.probe_ff_skip_ratio": "ratio",
    "eval.tables_s": "s",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def time_imports() -> float:
    """CPU seconds a fresh interpreter takes to import the layers the runs use."""
    from perfbench.workloads import cpu_seconds

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = cpu_seconds()
    subprocess.run([sys.executable, "-c", IMPORTS], check=True, env=env, cwd=ROOT,
                   timeout=120)
    return cpu_seconds() - started


def measure(workload, args, tally) -> tuple[dict, list]:
    """The untraced run: end-to-end metrics."""
    from perfbench.tracing import NullRecorder
    from perfbench.workloads import REFERENCE_CALIBRATION_S, calibration_seconds, cpu_seconds

    setups = []
    prepared = None
    for _ in range(SETUP_REPEATS):
        if prepared is not None:
            workload.close(prepared)
        imports = time_imports()
        started = cpu_seconds()
        prepared = workload.prepare(args.seed, OUT)
        setups.append(imports + cpu_seconds() - started)
    # The host's speed before the first pass and after each one; the loop
    # runs slow in a fresh interpreter, so none is taken before the set-ups.
    calibrations = [calibration_seconds()]

    # Only each pass's figures are kept, so memory does not grow with the
    # number of passes and peak RSS is that of one pass.
    walls, cpus, rates, cells, digests = [], [], [], [], []
    started = time.perf_counter()
    try:
        for _ in range(max(1, round(args.seconds / workload.pass_seconds))):
            gc.collect()  # every pass starts from the same heap
            result = workload.run_pass(prepared, NullRecorder())
            tally.merge(result.checks)
            walls.append(result.wall_s)
            cpus.append(result.cpu_s)
            rates.append(result.instructions / result.cpu_s / 1000.0)
            cells.extend(result.cell_seconds)
            digests.append(result.digest())
            del result
            calibrations.append(calibration_seconds())
            if time.perf_counter() - started + walls[-1] > 2.5 * args.seconds:
                break  # a host this slow would run past the time limit
    finally:
        workload.close(prepared)
    for digest in digests[1:]:
        tally.expect(digest == digests[0], "simulated results differ between passes")

    # Seconds on this host now -> seconds on the reference host.
    scale = REFERENCE_CALIBRATION_S / statistics.median(calibrations)
    metrics = {
        "cpu_s": statistics.median(cpus) * scale,
        "kips": statistics.median(rates) / scale,
        "cell_p50_s": statistics.median(cells) * scale,
        "cell_p95_s": statistics.quantiles(cells, n=20)[18] * scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": peak_rss_mb(),
    }
    beyond = len(cells) - int(0.95 * len(cells))
    info = [
        f"{len(walls)} passes, {len(cells)} cell samples (p95 has {beyond} beyond it)",
        f"host speed scale {scale:.4f}: calibration loop "
        f"{', '.join(f'{c:.4f}' for c in calibrations)} s (reference "
        f"{REFERENCE_CALIBRATION_S} s)",
        f"pass CPU times (unscaled): {', '.join(f'{c:.3f}' for c in cpus)} s",
        f"pass wall times: {', '.join(f'{w:.3f}' for w in walls)} s "
        f"(wall_s, not a reported metric: median {statistics.median(walls):.3f} s)",
        f"set-up CPU times (unscaled): {', '.join(f'{s:.3f}' for s in setups)} s",
        f"digest {digests[0]}",
    ]
    return {name: (metrics[name], END_TO_END[name]) for name in END_TO_END}, info


def traced(workload, args, tally) -> tuple[dict, list]:
    """One untraced and one traced pass: per-layer metrics."""
    from perfbench import tracing
    from perfbench.workloads import DramBound, pool_jobs, sim_layer

    for stale in OUT.glob("worker-*.jsonl"):
        stale.unlink()
    prepared = workload.prepare(args.seed, OUT)
    try:
        plain = workload.run_pass(prepared, tracing.NullRecorder())
        probes = {}
        if isinstance(workload, DramBound):
            probes = workload.probe_costs(prepared, tally)
        recorder = tracing.Recorder(OUT)
        patches = tracing.install(recorder)
        try:
            spanned = workload.run_pass(prepared, recorder)
        finally:
            tracing.uninstall(patches)
            recorder.active = False
    finally:
        workload.close(prepared)
    tally.merge(plain.checks)
    tally.merge(spanned.checks)
    tally.expect(plain.digest() == spanned.digest(),
                 "traced simulated results differ from untraced ones")

    records = recorder.collect(OUT / f"trace-{workload.name}-{args.seed}.jsonl")
    metrics = layer_metrics(records, plain, spanned, workload.pooled)
    metrics.update(probes)
    if workload.pooled:
        metrics.update(sim_layer(plain.events, pool_jobs(), plain.wall_s))
    metrics["trace.overhead_ratio"] = spanned.cpu_s / plain.cpu_s
    info = [
        f"untraced pass {plain.cpu_s:.3f} s CPU ({plain.wall_s:.3f} s wall), traced pass "
        f"{spanned.cpu_s:.3f} s CPU ({spanned.wall_s:.3f} s wall), {len(records)} spans",
        f"digest {plain.digest()} (traced {spanned.digest()})",
    ]
    if probes:
        plain_skip = probes.pop("probe.plain_ff_skip_ratio")
        info.append(f"fast-forward skip ratio without probes: {plain_skip:.4f}")
    return {name: (metrics.get(name, 0.0), PER_LAYER[name]) for name in PER_LAYER}, info


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(records, plain, spanned, pooled: bool) -> dict:
    from perfbench.tracing import SpanSummary
    from perfbench.workloads import worker_wall

    spans = SpanSummary(records)
    cell_spans = SpanSummary([r for r in records if r["cell"] and r["cell"].startswith("w")]
                             if pooled else records)
    m: dict[str, float] = {}

    run_total = spans.total["pipeline.run"]
    warm_total = spans.total["memory.warm"]
    cycles = spans.attr["pipeline.run.cycles"]
    skipped = spans.attr["pipeline.run.ff_skipped"]
    stepped = cycles - skipped
    m["pipeline.self_s"] = spans.self_time["pipeline.run"]
    m["pipeline.stepped_cycles"] = stepped
    m["pipeline.ff_skip_ratio"] = _ratio(skipped, cycles)
    m["pipeline.us_per_stepped_cycle"] = _ratio(m["pipeline.self_s"], stepped) * 1e6

    memory_s, accesses = spans.layer("memory.", exclude=("memory.warm",))
    m["memory.self_s"] = memory_s
    m["memory.warm_s"] = warm_total
    m["memory.accesses"] = accesses
    m["memory.us_per_access"] = _ratio(memory_s, accesses) * 1e6

    m["isa.golden_s"] = spans.total["isa.step"]
    m["isa.golden_share"] = _ratio(m["isa.golden_s"], run_total + warm_total)

    m["protection.self_s"], m["protection.hook_calls"] = spans.layer("protection.")

    # Modelled counters, summed over the untraced pass's cells.
    stats: dict[str, float] = {}
    for metrics in plain.metrics:
        for key, value in metrics.stats.items():
            stats[key] = stats.get(key, 0) + value
    sim_cycles = sum(metrics.cycles for metrics in plain.metrics)
    m["pipeline.ipc"] = _ratio(sum(x.instructions for x in plain.metrics), sim_cycles)
    m["pipeline.squashed_uop_ratio"] = _ratio(stats.get("core.squashed_uops", 0),
                                              stats.get("core.fetched", 0))
    m["pipeline.iq_occupancy_mean"] = _ratio(stats.get("core.occ.iq", 0), sim_cycles)
    hits = sum(v for k, v in stats.items() if k.startswith("mem.hits_"))
    m["memory.l1_hit_rate"] = _ratio(stats.get("mem.hits_l1", 0), hits)
    m["memory.dram_share"] = _ratio(stats.get("mem.hits_dram", 0), hits)
    m["memory.mshr_stalls"] = stats.get("mem.mshr_stalls", 0)
    m["stt.load_delay_cycles"] = stats.get("core.load_delay_cycles", 0)
    m["sdo.obl_success_rate"] = _ratio(stats.get("mem.obl_success", 0),
                                       stats.get("mem.obl_loads", 0))
    m["sdo.predictor_precision"] = _ratio(stats.get("stt.sdo.precise", 0),
                                          stats.get("stt.sdo.predictions", 0))

    # kIPS per protection config, untraced host CPU time.
    per_config: dict[str, list[float]] = {}
    for config, instructions, seconds in plain.cells:
        totals = per_config.setdefault(config, [0, 0.0])
        totals[0] += instructions
        totals[1] += seconds
    for config, (instructions, seconds) in per_config.items():
        m[f"protection.kips.{CONFIG_SLUGS[config]}"] = _ratio(instructions, seconds) / 1000.0

    # Building a cell: execute() minus the simulation and the warm-up (wall
    # times, as the spans are).
    cell_time = worker_wall(spanned.events) if pooled else spans.total["sim.execute"]
    if spanned.cells:
        m["sim.cell_build_s"] = (
            cell_time - cell_spans.total["pipeline.run"] - cell_spans.total["memory.warm"]
        ) / len(spanned.cells)

    m["security.dynamic_s"] = spans.total["security.run_dynamic"]
    m["security.observer_events"] = spans.attr["security.normalized.events"]
    m["security.compare_s"] = spans.total["security.first_divergence"]
    m["scan.self_s"] = spans.self_time["scan.scan_program"]
    m["scan.gadgets"] = spanned.gadgets
    m["eval.tables_s"] = sum(v for k, v in spans.total.items() if k.startswith("eval."))
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    OUT.mkdir(exist_ok=True)
    from perfbench import inputs
    from perfbench.workloads import WORKLOADS, Checks

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    tally = Checks()
    run = traced if args.trace else measure
    metrics, info = run(workload, args, tally)
    if args.seed == inputs.DEFAULT_SEED:
        # After the measurement: building the full-scale suite again would
        # raise the peak RSS of seed 0 alone.
        for problem in inputs.check_default_seed():
            tally.expect(False, problem)

    failed = len(tally.failures)
    print(f"perfbench {workload.name}, seed {args.seed}, trace {args.trace}")
    for line in info:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(f"  {'fail_rate':34s} {_ratio(failed, tally.count):14.6g} ratio "
          f"({failed} of {tally.count} checks failed)")
    for note in dict.fromkeys(tally.notes):
        print(f"  note: {note}")
    for failure in tally.failures:
        print(f"  FAIL: {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.count,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
