"""End-to-end benchmark of the `sdae-ivs` CLI.

    python3 perfbench/run.py --workload mnist784 --seed 1 --seconds 30 --trace 0

A cycle runs `sdae-ivs run` and then `sdae-ivs eval` on the same output
directory, each in a fresh process, as a user would. One benchmark seed
stands for several instances, each a master seed with its own inputs (see
workloads.py). Cycles visit the instances in turn while another cycle fits
in --seconds; at least one instance runs twice. Every cycle is checked:

- both processes exit 0;
- report.json is byte-identical to the first run of the same master seed;
- eval reports matches_report: true for every model in the report.

The byte-identical check needs a second run of an instance, so an
untraced run makes it only on the instances it runs twice (at least one);
the first run of every instance is checked by exit codes and eval alone.
A traced run runs every instance it visits twice.

A cycle that breaks any check counts as failed and is left out of the
timings. --trace 0 prints the end-to-end metrics: timings as medians over
cycles, quality as trimmed means over instances. --trace 1 pairs each
untraced cycle with a traced one of the same instance and prints
per-module metrics from the span tree (see spans.py) plus the tracing
overhead.

Every process runs with one BLAS thread, so it is single-threaded, and its
times are CPU seconds (user + system), not wall seconds. On an idle
machine the two agree. On a shared host the wall time also counts the
time the process waits for a CPU that the host or another process holds:
three busy processes on two cores stretch a run's wall time by half and
leave its CPU time as it was. CPU time still follows how fast the host's
cores run, which drifts by a quarter between runs a few minutes apart.
So a reference process (reference.py: fixed work, none of it the
program's) runs before every cycle and once after the last, and each CPU
time is scaled by REFERENCE_S over the CPU time of the reference run
nearest to it: the one before the cycle for run and set-up, the one after
it for eval. The measured medians, wall medians included, are printed
before the scaled ones.

The last stdout line is one JSON object: correct, attempted, failed and
metrics; the exit status is 0 whenever it is printed, and 2 when the
program source is missing. `--workload all` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
LAUNCH = HERE / "launch.py"
REFERENCE = HERE / "reference.py"

# Every process must be gone well before the 180 s a run may take.
HARD_LIMIT_S = 165.0

# One BLAS thread per process, so that each process is single-threaded.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "run_cpu_s": "s",
    "setup_s": "s",
    "eval_cpu_s": "s",
    "peak_rss_mb": "MB",
    "test_error_sdae_ivs_pct": "%",
    "test_error_sdae_pct": "%",
    "ivs_recall": "fraction",
    "ivs_precision": "fraction",
}
TIMINGS = ("run_cpu_s", "setup_s", "eval_cpu_s", "peak_rss_mb")
MEASURED = ("run_cpu_s", "setup_s", "eval_cpu_s", "run_wall_s", "eval_wall_s")

# The reference speed, as the CPU seconds reference.py takes at it. The
# value only fixes the unit: on the 2-core VM where baseline.json was
# measured the reference took a median 0.33 s, so scaled times there read
# about 0.75 of the measured ones.
REFERENCE_S = 0.25


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_s", "s"), ("_ms", "ms"),
                         ("_us", "us"), ("_frac", "fraction"),
                         ("bytes_written", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


@dataclass
class Cycle:
    traced: bool
    run_cpu_s: float
    setup_s: float
    eval_cpu_s: float
    peak_rss_mb: float
    run_wall_s: float
    eval_wall_s: float
    failures: list[str] = field(default_factory=list)
    tables: list | None = None  # span tables of a traced run and its eval


@dataclass
class Proc:
    code: int
    seconds: float  # wall
    cpu_s: float  # user + system
    rss_mb: float


def spawn(work: Path, verb: str, out: str, stamp: Path | str, trace: str,
          timeout: float) -> Proc:
    """Run one CLI verb in a fresh process."""
    return execute([sys.executable, str(LAUNCH), str(SRC), str(stamp), trace,
                    "--", verb, "--config", "config.ini", "--out", out],
                   work, work / f"{verb}.log", timeout)


def execute(cmd: list[str], work: Path, log_path: Path, timeout: float) -> Proc:
    """Run `cmd` in `work` with one BLAS thread; wall time, and CPU time and
    peak RSS from wait4."""
    with open(log_path, "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, stdout=log, stderr=subprocess.STDOUT,
                                env={**os.environ, **THREAD_ENV})
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.monotonic() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, seconds, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)


def last_line(log: Path) -> str:
    lines = log.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def check_cycle(out: Path, run_code: int, eval_code: int,
                reference: bytes | None) -> list[str]:
    """Failure reasons of one run + eval cycle; empty when it passed."""
    if run_code != 0:
        return [f"run exited {run_code}"]
    report_path = out / "report.json"
    if not report_path.is_file():
        return ["run wrote no report.json"]
    failures = []
    body = report_path.read_bytes()
    if reference is not None and body != reference:
        failures.append("report.json differs from the first run of this seed")
    if eval_code != 0:
        failures.append(f"eval exited {eval_code}")
    try:
        evaluated = json.loads((out / "eval.json").read_text())
        results = json.loads(body)["results"]
    except (OSError, ValueError, KeyError) as exc:
        return failures + [f"unreadable report or eval output: {exc}"]
    for variant, depths in results.items():
        for depth_key in depths:
            entry = evaluated.get(variant, {}).get(depth_key, {})
            if entry.get("matches_report") is not True:
                failures.append(f"eval does not reproduce {variant} {depth_key}")
    return failures


def quality(out: Path, depth: int, truth) -> dict[str, float]:
    """Test errors at the deepest depth and the layer-1 IVS mask scored
    against the planted relevant variables."""
    results = json.loads((out / "report.json").read_text())["results"]
    key = f"depth{depth}"
    model = json.loads((out / results["sdae_ivs"][key]["model"]).read_text())
    mask = [c == "1" for c in model["layers"][0]["mask"]]
    if len(mask) != len(truth):
        raise ValueError(f"layer-1 mask has {len(mask)} bits, data has {len(truth)}")
    hits = sum(1 for kept, rel in zip(mask, truth) if kept and rel)
    return {
        "test_error_sdae_ivs_pct": 100.0 * results["sdae_ivs"][key]["test_error_rate"],
        "test_error_sdae_pct": 100.0 * results["sdae"][key]["test_error_rate"],
        "ivs_recall": hits / max(1, int(sum(truth))),
        "ivs_precision": hits / max(1, sum(mask)),
    }


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest of p50..p99 with at least ten samples beyond it."""
    n = len(samples)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
    return None


def blas_info() -> dict:
    """BLAS name, version and thread count of the numpy in this process."""
    import numpy as np
    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(blas=blas.get("name"), blas_version=blas.get("version"))
    except (KeyError, TypeError, ValueError):
        info.update(blas="unknown", blas_version="unknown")
    info["blas_threads"] = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def environment(workload, seed: int, seconds: float) -> dict:
    from workloads import instance_seeds
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **blas_info(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": seed,
        "instance_seeds": instance_seeds(workload, seed),
        "seconds": seconds,
        "workload": workload.params(),
    }


@dataclass
class Instance:
    """One master seed of a workload: its directory, its planted truth, and
    the first report it produced, which every later run must reproduce."""

    seed: int
    work: Path
    truth: object = None
    reference: bytes | None = None
    quality: dict[str, float] | None = None


class Bench:
    """All cycles of one workload at one benchmark seed."""

    def __init__(self, workload, seed: int, work: Path, started: float):
        from workloads import instance_seeds
        self.w = workload
        self.work = work
        self.started = started
        self.instances = [Instance(s, work / f"seed{s}")
                          for s in instance_seeds(workload, seed)]
        self.cycles: list[Cycle] = []
        # CPU seconds of the reference runs: one before each cycle, one
        # after the last.
        self.references: list[float] = []

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def prepare(self) -> None:
        from workloads import prepare
        for inst in self.instances:
            inst.truth = prepare(self.w, inst.seed, inst.work)

    def time_reference(self) -> None:
        log = self.work / "reference.log"
        ref = execute([sys.executable, str(REFERENCE)], self.work, log,
                      self.remaining())
        if ref.code != 0:
            raise RuntimeError(f"reference process exited {ref.code}: "
                               f"{last_line(log)}")
        self.references.append(ref.cpu_s)

    def cycle(self, inst: Instance, traced: bool) -> Cycle:
        from spans import SpanTable
        self.time_reference()
        index = len(self.cycles)
        work, out = inst.work, f"out{index}"
        traces = [work / f"run{index}.npz", work / f"eval{index}.npz"]
        run = spawn(work, "run", out, work / f"stamp{index}",
                    str(traces[0]) if traced else "-", self.remaining())
        evaluated = run if run.code else spawn(
            work, "eval", out, "-", str(traces[1]) if traced else "-",
            self.remaining())
        c = Cycle(traced, run.cpu_s, 0.0, evaluated.cpu_s, run.rss_mb,
                  run.seconds, evaluated.seconds)
        c.failures = check_cycle(work / out, run.code, evaluated.code,
                                 inst.reference)
        if not c.failures:
            try:
                c.setup_s = float((work / f"stamp{index}").read_text())
                if inst.reference is None:
                    inst.quality = quality(work / out, self.w.depth, inst.truth)
                    inst.reference = (work / out / "report.json").read_bytes()
                if traced:
                    c.tables = [SpanTable(p) for p in traces]
            except (OSError, ValueError, KeyError) as exc:
                c.failures.append(f"cannot read cycle outputs: {exc}")
        if c.failures:
            verb = "run" if run.code else "eval"
            print(f"{self.w.name} seed {inst.seed} cycle {index} failed: "
                  f"{'; '.join(c.failures)} (last {verb} output: "
                  f"{last_line(work / f'{verb}.log')})", file=sys.stderr)
        self.cycles.append(c)
        shutil.rmtree(work / out, ignore_errors=True)
        for path in traces:
            path.unlink(missing_ok=True)
        return c


def measure(workload, seed: int, seconds: float, trace: bool) -> Bench:
    """Prepare every instance, then visit the instances in turn while
    another visit fits in `seconds`. A visit is one untraced cycle, or with
    trace an untraced and a traced cycle of the same instance. Untraced, at
    least one instance runs twice, so its report is checked against its
    first."""
    started = time.monotonic()
    work = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(workload, seed, work, started)
    k = len(bench.instances)
    try:
        bench.prepare()
        measuring = time.monotonic()
        visits = 0
        while True:
            begun = time.monotonic()
            inst = bench.instances[visits % k]
            if trace:
                # Alternate the order, so that a slow first cycle (cold
                # caches) does not bias the tracing overhead.
                traced_first = visits % 2 == 1
                bench.cycle(inst, traced=traced_first)
                bench.cycle(inst, traced=not traced_first)
            else:
                bench.cycle(inst, traced=False)
            visits += 1
            took = time.monotonic() - begun
            enough = visits >= (1 if trace else k + 1)
            if enough and time.monotonic() - measuring + took > seconds:
                break
            if bench.remaining() < 1.5 * took + 5:
                break
        bench.time_reference()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return bench


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _print_timing(name: str, samples: list[float]) -> float:
    value = _median(samples)
    tail = tail_percentile(samples)
    tail_text = f"p{tail[0]} {tail[1]:.4f}" if tail else \
        "no percentile has 10 samples beyond it"
    spread = f"min {min(samples):.4f} max {max(samples):.4f}" \
        if samples else "no samples"
    print(f"  {name:<24} median {value:.4f} {END_TO_END[name]:<3} "
          f"{tail_text}; n={len(samples)}, {spread}")
    return value


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and the highest value, when there are three
    or more. The SDAE test error on mnist784 has a long upper tail (59-90%
    on a few seeds in a hundred, against 15-30% on most), and one such seed
    would otherwise move a workload's mean by up to a fifth."""
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) >= 3 else values)


def end_to_end(bench: Bench) -> dict[str, float]:
    """Timings are medians over passing cycles, each CPU time scaled to the
    reference speed by the reference run nearest to it; quality metrics are trimmed means over the instances
    (each is exact for its seed)."""
    refs = bench.references
    passed = [(c, REFERENCE_S / before, REFERENCE_S / after)
              for c, before, after in zip(bench.cycles, refs, refs[1:])
              if not c.failures]
    print("  measured medians: " + ", ".join(
        f"{name} {_median([getattr(c, name) for c, _, _ in passed]):.4f} s"
        for name in MEASURED) + f", reference_s {_median(refs):.4f} s")
    samples = {
        "run_cpu_s": [c.run_cpu_s * before for c, before, _ in passed],
        "setup_s": [c.setup_s * before for c, before, _ in passed],
        "eval_cpu_s": [c.eval_cpu_s * after for c, _, after in passed],
        "peak_rss_mb": [c.peak_rss_mb for c, _, _ in passed],
    }
    metrics = {name: _print_timing(name, samples[name]) for name in TIMINGS}
    scored = [inst.quality for inst in bench.instances if inst.quality]
    for inst in bench.instances:
        if inst.quality:
            print(f"  seed {inst.seed}: " + ", ".join(
                f"{k} {v:.4f}" for k, v in inst.quality.items()))
    for name in END_TO_END:
        if name not in metrics:
            metrics[name] = trimmed_mean([q[name] for q in scored]) \
                if scored else 0.0
            print(f"  {name:<24} trimmed mean {metrics[name]:.4f} "
                  f"{END_TO_END[name]} over {len(scored)} seeds")
    return metrics


def per_module(bench: Bench) -> dict[str, float]:
    """Per-module metrics of each traced cycle (its run and its eval), as
    the low median over traced cycles, so each value is one cycle's; plus
    the tracing overhead, the mean over visits of traced minus untraced
    run CPU seconds."""
    from spans import module_metrics
    pairs = [(a, b) if b.traced else (b, a)
             for a, b in zip(bench.cycles[0::2], bench.cycles[1::2])
             if not a.failures and not b.failures]
    per_cycle = [module_metrics(traced.tables) for _, traced in pairs]
    metrics = {name: statistics.median_low([m[name] for m in per_cycle])
               for name in (per_cycle[0] if per_cycle else {})}
    overhead = statistics.fmean(t.run_cpu_s - p.run_cpu_s for p, t in pairs) \
        if pairs else 0.0
    untraced = statistics.fmean(p.run_cpu_s for p, _ in pairs) if pairs else 0.0
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / untraced if untraced else 0.0
    print(f"  tracing overhead (traced minus untraced run_cpu_s, mean over "
          f"{len(pairs)} visits): {overhead:.4f} s")
    for name, value in metrics.items():
        print(f"  {name:<30} {value:.6g} {per_layer_unit(name)}")
    return metrics


def summarize(bench: Bench, trace: bool) -> dict:
    """Print the human-readable lines; return the result object."""
    failed = sum(1 for c in bench.cycles if c.failures)
    print(f"workload {bench.w.name}: {len(bench.cycles)} cycles over "
          f"{len(bench.instances)} seeds attempted, {failed} failed")
    if trace:
        values = per_module(bench)
        units = {name: per_layer_unit(name) for name in values}
    else:
        values = end_to_end(bench)
        units = END_TO_END
    passed = len(bench.cycles) - failed
    return {"correct": failed == 0 and passed > 0,
            "attempted": len(bench.cycles), "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' for every workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep starting cycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "sdae_ivs" / "__init__.py").is_file():
        print(f"no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    # Before numpy loads here, so that the environment line reports the
    # BLAS thread count every child runs with.
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2

    results = {}
    for name in names:
        workload = WORKLOADS[name]
        print("env " + json.dumps(environment(workload, args.seed, args.seconds),
                                  sort_keys=True))
        bench = measure(workload, args.seed, args.seconds, bool(args.trace))
        results[name] = summarize(bench, bool(args.trace))
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry
                        for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    # A printed result carries its own verdict in "correct"; a non-zero
    # exit is kept for runs that cannot produce one.
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
