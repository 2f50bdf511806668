"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload synth-train --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the end-to-end metrics of BENCHMARK.json; with ``--trace 1``
they are the per-layer metrics.  The lines before it hold the full report
(machine record, timing summaries, checks, computed counts), which is also
written to ``.perfbench-out/`` beside the spans of a traced run.  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

# The benchmark's own modules and the program it imports leave no
# bytecode caches behind in the checkout.
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
MIN_OPS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test scale: same code paths, tiny shapes")
    return parser.parse_args(argv)


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy is imported.

    On a shared two-core machine the same inference took 2.0 s in one
    process and 2.8 s in the next with two OpenBLAS threads; with one
    thread the spread between processes was about a third of that.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"


def _openblas_threads():
    """Thread count OpenBLAS reports, when numpy bundles a known OpenBLAS."""
    import ctypes
    import glob

    import numpy

    libs_dir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy

    cpu_model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as source:
            for line in source:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def summary(samples: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered) if ordered else None,
           "samples": samples}
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            rank = max(1, -(-int(p * n) // 100))  # nearest-rank percentile
            out[f"p{p:g}"] = ordered[rank - 1]
            break
    return out


def ratio(numerator: float, denominator: float) -> dict:
    value = numerator / denominator if denominator else 0.0
    return {"value": value, "numerator": numerator, "denominator": denominator}


class Runner:
    """Runs one workload's set-ups, operations and checks; counts failures."""

    def __init__(self, workload, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.reference = None
        self.state = None

    def _fail(self, label: str, problems: list[str]) -> None:
        self.failures.extend(f"{label}: {p}" for p in problems)

    def setup(self, tracer=None) -> float:
        """Time one set-up.  The first one's state is used by every
        operation; later ones must build the same inputs from the seed."""
        from workloads import inputs_digest

        self.attempted += 1
        start = time.perf_counter()
        with tracer.installed("setup") if tracer else contextlib.nullcontext():
            state = self.workload.setup(self.seed, self.workdir)
        seconds = time.perf_counter() - start
        digest = inputs_digest(state.inputs)
        if self.state is None:
            self.state, self.inputs_sha256 = state, digest
        elif digest != self.inputs_sha256:
            self._fail(f"setup {self.attempted}", ["the same seed built different inputs"])
        return seconds

    def op(self, tracer=None, op_index: int = 0):
        """One checked operation; returns its result, or None if it raised."""
        self.attempted += 1
        label = f"op {op_index}{' traced' if tracer else ''}"
        try:
            if tracer is None:
                result = self.workload.op(self.state)
            else:
                tracer.op_index = op_index
                with tracer.installed("op"):
                    result = self.workload.op(self.state)
        except Exception as err:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            self._fail(label, [f"{type(err).__name__}: {err}"])
            return None
        problems = list(result.failures)
        if self.reference is None:
            self.reference = result.output
        elif result.output != self.reference:
            problems.append("output differs from the first operation's")
        self._fail(label, problems)
        return result

    def verify(self) -> None:
        self.attempted += 1
        try:
            problems = self.workload.verify(self.state, self.reference, self.workdir)
        except Exception as err:
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(err).__name__}: {err}"]
        self._fail("verify", problems)


def output_stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"


def run(args) -> tuple[dict, dict]:
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workloads.tiny(workload)
    tracer = Tracer() if args.trace else None

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "config": {k: v for k, v in vars(workload).items() if k != "name"},
        "machine": machine_record(),
    }
    report["config"]["shape"] = vars(workload.shape)

    workdir = tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT)
    try:
        runner = Runner(workload, args.seed, workdir)
        setup_s = [runner.setup(tracer)]
        warm = runner.op()  # fills caches and fixes the reference outputs
        untraced, traced = [], []
        spent = 0.0
        while warm is not None and (len(untraced) < MIN_OPS or spent < args.seconds):
            start = time.perf_counter()
            result = runner.op(op_index=len(untraced) + len(traced) + 1)
            if result is None:
                break
            untraced.append(result)
            if tracer is not None:
                result = runner.op(tracer, op_index=len(untraced) + len(traced) + 1)
                if result is None:
                    break
                traced.append(result)
            spent += time.perf_counter() - start
            # Set-ups are spread over the run, so that their median samples
            # the machine as the operations' median does.
            setup_s.append(runner.setup())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if warm is not None and runner.reference is not None:
            runner.verify()
            report.update(workload.describe(runner.state, runner.reference))
            report["inputs_sha256"] = runner.inputs_sha256

        op_seconds = [r.seconds for r in untraced]
        median_op = statistics.median(op_seconds) if op_seconds else 0.0
        report["setup_s"] = summary(setup_s)
        report["op_s"] = summary(op_seconds)
        report["phases_s"] = {
            phase: summary([r.phases[phase] for r in untraced])
            for phase in (untraced[0].phases if untraced else {})
        }
        report["clips_per_op"] = workload.clips_per_op
        report["ops_attempted"] = runner.attempted
        report["ops_failed"] = len({f.split(":", 1)[0] for f in runner.failures})
        report["failures"] = runner.failures

        if tracer is None:
            metrics = {
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "clips_per_s": {
                    "value": workload.clips_per_op / median_op if median_op else 0.0,
                    "unit": "clips/s",
                },
                "peak_rss_MB": {"value": peak_rss_mb, "unit": "MB"},
            }
            report["end_to_end_detail"] = _phase_rates(workload, runner, report)
        else:
            metrics = _per_layer(workload, runner, tracer, untraced, traced, report)
            spans_path = OUT_DIR / f"{output_stem(args)}.spans.jsonl"
            tracer.write_spans(spans_path)
            report["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": report["ops_failed"],
        "metrics": metrics,
    }
    return report, result


def _phase_rates(workload, runner, report) -> dict:
    """Workload-specific end-to-end figures from the untraced operations."""
    phases = report["phases_s"]
    detail = {}
    if "fit" in phases and phases["fit"]["median"]:
        detail["train_clips_per_s"] = ratio(workload.clips_per_op, phases["fit"]["median"])
    if "infer" in phases:
        mb = workload.main_file_bytes(runner.state) / 1e6
        detail["infer_clips_per_s"] = ratio(workload.clips_per_op, phases["infer"]["median"])
        detail["evaluate_s"] = phases["evaluate"]["median"]
        detail["read_MB_per_s"] = ratio(mb, phases["read"]["median"])
        detail["write_MB_per_s"] = ratio(mb, phases["write"]["median"])
    return detail


def _per_layer(workload, runner, tracer, untraced, traced, report) -> dict:
    """Per-function calls and self-time shares, plus the tracer's own figures.

    A function's absolute self time is in the report (``per_function``);
    the metric is its share of traced time, because a workload that never
    calls a function would otherwise report a time of exactly zero.
    """
    from tracer import REPORTED
    from workloads import gemm_flops_per_clip

    n_ops = len(traced)
    table = tracer.per_function(n_ops, n_setups=1)
    report["per_function"] = table
    report["absent"] = tracer.absent
    metrics = {}
    for name in REPORTED:
        metrics[f"{name}.calls"] = {"value": table[name]["calls"], "unit": "count"}
        metrics[f"{name}.self_pct"] = {"value": table[name]["self_pct"], "unit": "%"}

    untraced_median = statistics.median([r.seconds for r in untraced]) if untraced else 0.0
    traced_median = statistics.median([r.seconds for r in traced]) if traced else 0.0
    overhead = ratio(traced_median, untraced_median)
    overhead["value"] -= 1.0
    report["trace_overhead_ratio"] = overhead

    traced_ms = tracer.traced_ns.get("op", 0) / 1e6 / max(n_ops, 1)
    covered_ms = tracer.covered_ns.get("op", 0) / 1e6 / max(n_ops, 1)
    report["unattributed_ms"] = {"value": traced_ms - covered_ms, "traced_ms_per_op": traced_ms,
                                 "covered_by_spans_ms_per_op": covered_ms}

    def gflops(names):
        flops = sum(table[n]["flops"] for n in names)
        ms = sum(table[n]["self_ms"] for n in names)
        out = ratio(flops / 1e9, ms / 1e3)
        out["base"] = "GEMM FLOPs counted from call shapes / traced self seconds, per op"
        return out

    report["gflop_per_s"] = {
        "nn.dense": gflops(["nn.dense_forward", "nn.dense_backward"]),
        "attention": gflops(["attention.forward_batch", "attention.backward_batch"]),
    }
    flops = gemm_flops_per_clip(workload.shape)
    metrics.update({
        "trace_overhead_ratio": {"value": overhead["value"], "unit": "ratio"},
        "traced_op_ms": {"value": traced_ms, "unit": "ms"},
        "unattributed_ms": {"value": report["unattributed_ms"]["value"], "unit": "ms"},
        "nn.dense.gflop_per_s": {"value": report["gflop_per_s"]["nn.dense"]["value"],
                                 "unit": "GFLOP/s"},
        "attention.gflop_per_s": {"value": report["gflop_per_s"]["attention"]["value"],
                                  "unit": "GFLOP/s"},
        "computed.gemm_mflop_per_train_clip": {"value": flops["train"] / 1e6, "unit": "MFLOP"},
        "computed.gemm_mflop_per_infer_clip": {"value": flops["infer"] / 1e6, "unit": "MFLOP"},
        "computed.wlad_bytes": {"value": workload.main_file_bytes(runner.state), "unit": "B"},
    })
    return metrics



def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wlat" / "__init__.py").is_file():
        print(f"perfbench: no wlat sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import wlat

    if Path(wlat.__file__).resolve().parent != SRC / "wlat":
        print(f"perfbench: imported wlat from {wlat.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    report, result = run(args)
    text = json.dumps(report, indent=1, sort_keys=True)
    (OUT_DIR / f"{output_stem(args)}.json").write_text(text + "\n", encoding="utf-8")
    print(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
