#!/usr/bin/env python3
"""pactune benchmark: end-to-end timings, output checks and a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {pretrain,finetune,sweep} --seed N \\
        --seconds S --trace {0,1}

A run sets the workload up, then repeats passes of it (see ``workloads.py``)
until ``--seconds`` have elapsed, at least one pass. Every operation's output
is checked after its pass; a failed check or an exception counts as a failed
operation and never stops the run. Set-up time is measured afterwards, as the
median over fresh interpreters that import pactune and set the workload up.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced passes with one traced pass and reports the per-layer metrics (span
totals and self times, counters, and the tracing overhead) and checks the
call counts against those the config implies. The last line of standard
output is one JSON object; each run also appends a full record, with a
machine block, to ``.perfbench/results.jsonl`` (``--results``), which
``compare.py`` diffs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path(".perfbench")  # relative to ROOT, the working directory of a run
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 7

# End-to-end metrics that only some workloads have, reported beside the
# BENCHMARK.json ones (which every workload reports): name -> (unit, better, bound).
EXTRA_METRICS = {
    "run_s.pac-tuning": ("s", "lower", 0.25),
    "run_s.vanilla": ("s", "lower", 0.25),
    "run_s.noise-injection": ("s", "lower", 0.25),
    "failed_frac": ("ratio", "lower", 0.0),
}

# Per-layer spans; each gives <name>_s (total) and <name>_self_s.
SPANS = (
    "autodiff.backward", "models.forward", "models.pack", "models.unpack",
    "pgd.loss_and_grads", "pgd.pgd_step", "pgd.random_layer_noise_step",
    "bound.pac_objective", "bound.kl", "optim.adam_step", "kernels.adam_update",
    "kernels.apply_noise", "pipeline.pretrain", "pipeline.stage1", "pipeline.stage2",
    "pipeline.vanilla", "pipeline.noise_injection", "pipeline.evaluate",
    "datasets.generate", "datasets.few_shot_sample", "cli.benchmark",
    "cli.load_config", "cli.serial_pretrain", "cli.pool", "cli.write",
)
CALL_COUNTS = (
    "autodiff.backward", "models.forward", "models.pack", "models.unpack",
    "pgd.loss_and_grads", "bound.pac_objective", "optim.adam_step",
    "kernels.adam_update", "pipeline.evaluate",
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {}
    for name in SPANS:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
    for name in CALL_COUNTS:
        units[f"{name}_calls"] = "count"
    units.update({
        "autodiff.tape_nodes": "count", "models.copy_bytes": "B",
        "optim.applied_ratio": "ratio", "kernels.bytes": "B",
        "pipeline.evaluate_rows": "count", "pipeline.divergences": "count",
        "cli.serial_share": "ratio", "trace.overhead_s": "s",
        "trace.overhead_share": "ratio",
    })
    return units


class Tally:
    """Operations and pass times of one run, with their check results."""

    def __init__(self, workload, references: dict | None):
        self.workload = workload
        self.references = references  # None unless the default seed
        self.ops = []
        self.pass_seconds = []
        self.last_pass = []

    def add_pass(self, ops, seconds: float | None = None) -> None:
        wl = self.workload
        for op in ops:
            try:
                wl.check(op)
                op.failures += wl.repeat_failures(op)
                if self.references is not None:
                    op.failures += wl.reference_failures(op, self.references)
            except Exception as e:  # a check that breaks is a failed check
                op.failures.append(f"check raised {type(e).__name__}: {e}")
            if op.error:
                op.failures.insert(0, op.error)
            op.output = None  # keep memory flat across passes
        self.ops += ops
        self.last_pass = ops
        if seconds is not None:
            self.pass_seconds.append(seconds)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.failures)

    def timed_pass(self) -> None:
        start = perf_counter()
        ops = self.workload.run_pass()
        self.add_pass(ops, perf_counter() - start)


def peak_rss_mb(workers: int) -> float:
    """Peak resident set of this process, plus ``workers`` x the largest child's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0  # ru_maxrss is in KiB on Linux


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import pactune and set up."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe",
                        "--workload", workload, "--seed", str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - start)
    return times


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, found through the process maps."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_block(seed: int) -> dict:
    import numpy as np
    from pactune import kernels

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, check=True).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "pactune").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "kernels_backend": kernels.BACKEND,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload_seed": seed,
    }


def end_to_end(wl, tally: Tally, setup_times, rss_mb) -> dict:
    """name -> value, every BENCHMARK.json metric then the workload's extras."""
    values = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(tally.pass_seconds),
        "steps_per_s": wl.steps_per_pass() * len(tally.pass_seconds)
        / sum(tally.pass_seconds),
        "accuracy": wl.accuracy(tally.last_pass),
        "peak_rss_mb": rss_mb,
    }
    for method in ("pac-tuning", "vanilla", "noise-injection"):
        times = [op.seconds for op in tally.ops if op.method == method and not op.traced]
        if times:
            values[f"run_s.{method}"] = statistics.median(times)
    values["failed_frac"] = tally.failed / tally.attempted
    return values


def per_layer(tracer, traced_seconds: float, untraced_seconds: float) -> dict:
    values = {}
    for name in SPANS:
        calls, total, self_time = tracer.spans.get(name, (0, 0.0, 0.0))
        values[f"{name}_s"] = total
        values[f"{name}_self_s"] = self_time
    for name in CALL_COUNTS:
        values[f"{name}_calls"] = tracer.calls(name)
    c = tracer.counters
    adam_calls = tracer.calls("optim.adam_step")
    benchmark_s = values["cli.benchmark_s"]
    values.update({
        "autodiff.tape_nodes": c["autodiff.tape_nodes"],
        "models.copy_bytes": c["models.copy_bytes"],
        "optim.applied_ratio": c["optim.applied"] / adam_calls if adam_calls else 0.0,
        "kernels.bytes": c["kernels.bytes"],
        "pipeline.evaluate_rows": c["pipeline.evaluate_rows"],
        "pipeline.divergences": c["pipeline.divergences"],
        "cli.serial_share": values["cli.serial_pretrain_s"] / benchmark_s
        if benchmark_s else 0.0,
        "trace.overhead_s": traced_seconds - untraced_seconds,
        "trace.overhead_share": (traced_seconds - untraced_seconds) / untraced_seconds,
    })
    return values


def print_shares(tracer, traced_seconds: float) -> None:
    print(f"  {'span':<30} {'calls':>8} {'total s':>9} {'self s':>9} "
          f"{'total %':>8} {'self %':>7}")
    for name, (calls, total, self_time) in sorted(
            tracer.spans.items(), key=lambda kv: -kv[1][1]):
        if calls:
            print(f"  {name:<30} {calls:>8} {total:>9.3f} {self_time:>9.3f} "
                  f"{100 * total / traced_seconds:>7.1f}% "
                  f"{100 * self_time / traced_seconds:>6.1f}%")
    modules = {}
    for name, (_, _, self_time) in tracer.spans.items():
        module = name.split(".")[0]
        modules[module] = modules.get(module, 0.0) + self_time
    print("  self time by module: " + ", ".join(
        f"{m} {100 * t / traced_seconds:.1f}%" for m, t in
        sorted(modules.items(), key=lambda kv: -kv[1]) if t))


def run(args) -> int:
    from tracer import Tracer
    from workloads import DEFAULT_SEED, REFERENCES, SWEEP_WORKERS, WORKLOADS

    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    wl = WORKLOADS[args.workload](args.seed, OUT)
    references = json.loads(REFERENCES.read_text(encoding="utf-8")) \
        if args.seed == DEFAULT_SEED else None
    tally = Tally(wl, references)
    tracer = Tracer()

    if args.trace:
        tracer.install(("datasets",))
    try:
        wl.setup()
    finally:
        tracer.uninstall()

    start = perf_counter()
    traced_seconds = None
    while True:
        tally.timed_pass()
        if args.trace and traced_seconds is None:
            tracer.install(wl.trace_layers)
            try:
                pass_start = perf_counter()
                traced_ops = wl.run_pass()
                traced_seconds = perf_counter() - pass_start
            finally:
                tracer.uninstall()
            for op in traced_ops:
                op.traced = True
            tally.add_pass(traced_ops)  # end-to-end figures use untraced passes only
            tracer.counters["pipeline.divergences"] = sum(op.diverged for op in traced_ops)
        if perf_counter() - start >= args.seconds:
            break

    workers = SWEEP_WORKERS if args.workload == "sweep" else 0
    rss_mb = peak_rss_mb(workers)
    setup_times = measure_setup(args.workload, args.seed)
    machine = machine_block(args.seed)
    e2e = end_to_end(wl, tally, setup_times, rss_mb)
    e2e_spec = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]}
    e2e_units = {**e2e_spec, **EXTRA_METRICS}

    correct = tally.failed == 0
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for key, value in machine.items():
        print(f"  machine.{key} = {value}")
    for op in tally.ops:
        for failure in op.failures:
            print(f"  FAILED {op.key}: {failure}")
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed, "
          f"{len(tally.pass_seconds)} untraced passes "
          f"({', '.join(f'{s:.3f}' for s in tally.pass_seconds)} s)")
    for name, value in e2e.items():
        unit = e2e_units[name][0]
        note = ""
        if name.startswith("run_s."):
            n = sum(1 for op in tally.ops if op.method == name[6:] and not op.traced)
            note = f"  (median of {n} runs)"
        elif name == "failed_frac":
            note = f"  ({tally.failed} of {tally.attempted} operations)"
        elif name == "setup_s":
            note = f"  (median of {len(setup_times)} fresh set-ups)"
        print(f"  {name} = {value} {unit}{note}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed, "pass_seconds": tally.pass_seconds,
        "setup_seconds": setup_times, "machine": machine,
        "failures": [f"{op.key}: {f}" for op in tally.ops for f in op.failures][:50],
        "digests": {op.key: op.digest for op in tally.ops},
        "metrics": {name: {"value": v, "unit": e2e_units[name][0],
                           "better": e2e_units[name][1], "bound": e2e_units[name][2]}
                    for name, v in e2e.items()},
    }
    if references is not None:
        recorded = references["digests"]
        same = [k for k, d in record["digests"].items() if recorded.get(k) == d]
        print(f"  digests: {len(same)} of {len(record['digests'])} match the recorded "
              "references (a changed digest alone is not a failure)")
        record["digests_matching_reference"] = len(same)

    if args.trace:
        untraced = statistics.median(tally.pass_seconds)
        layers = per_layer(tracer, traced_seconds, untraced)
        units = per_layer_units()
        print(f"traced pass {traced_seconds:.3f} s, untraced median {untraced:.3f} s")
        print_shares(tracer, traced_seconds)
        for name, expected in wl.expected_calls().items():
            got = tracer.calls(name)
            ok = got == expected
            correct &= ok
            print(f"  calls {name}: {got} (config implies {expected}) "
                  f"{'ok' if ok else 'MISMATCH'}")
            if not ok:
                record["failures"].append(f"trace: {name} called {got} times, "
                                          f"config implies {expected}")
        for name, value in layers.items():
            print(f"  {name} = {value} {units[name]}")
        record["per_layer"] = {name: {"value": v, "unit": units[name]}
                               for name, v in layers.items()}
        record["correct"] = correct
        metrics = {name: {"value": layers[name], "unit": units[name]}
                   for name in (m["name"] for m in spec["per_layer"])}
    else:
        metrics = {name: {"value": e2e[name], "unit": e2e_spec[name][0]}
                   for name in e2e_spec}

    results = Path(args.results)
    results.parent.mkdir(parents=True, exist_ok=True)
    with results.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pretrain", "finetune", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(OUT / "results.jsonl"),
                        help="JSONL file each run appends its full record to, "
                        "relative to the checkout root")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "pactune" / "__init__.py").is_file():
        print(f"perfbench: no pactune sources under {SRC}; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)  # outputs, and the paths the sweep's report echoes, are relative
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed, OUT).setup()
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
