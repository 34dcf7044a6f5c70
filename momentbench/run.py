"""Closed-loop benchmark of the sdemoments moment engine.

One caller runs one workload's operations back to back, each waiting for
the previous result, for ``--seconds`` seconds of whole passes, and
checks every result against a reference computed apart from the package
(``reference.py``, in a child process whose time and memory stay out of
the metrics). The last line of standard output is the result:

    python3 momentbench/run.py --workload sysid_fit --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics pass_ms (the sum over the
pass's operations of each one's fastest time in the run), setup_s and
peak_rss_mb; ``--trace 1`` wraps the package's public functions and
reports per-layer counts and self times per pass instead. Each run also
writes a record, ``BENCH_<workload>_seed<seed>_trace<0|1>.json``, in the
checkout's root.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, fixed before numpy loads; the reference process inherits it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
#: the reference of the largest workload takes a few seconds
REFERENCE_TIMEOUT_S = 150
#: problems kept in the record; the count of failed checks is kept whole
MAX_PROBLEMS = 20


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of sdemoments.")
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def compute_references(workload: str, seed: int, n_cases: int) -> list[dict]:
    """Per-case reference arrays, from a child process running reference.py."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "reference.py"),
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, timeout=REFERENCE_TIMEOUT_S, cwd=inputs.ROOT)
    if proc.returncode != 0:
        raise RuntimeError("reference process failed:\n"
                           + proc.stderr.decode(errors="replace"))
    with np.load(io.BytesIO(proc.stdout), allow_pickle=False) as archive:
        return [{key: archive[f"{i}.{key}"] for key in ("mean", "secmom", "gnorm")}
                for i in range(n_cases)]


def p90(samples: list[float]) -> float | None:
    """The 90th percentile, once at least ten samples lie beyond it."""
    return statistics.quantiles(samples, n=10)[-1] if len(samples) >= 100 else None


def quartiles(samples: list[float]) -> list[float]:
    return statistics.quantiles(samples, n=4) if len(samples) >= 2 else samples * 3


#: a fixed small matrix whose products time the machine's current speed
GAUGE_MATRIX = np.random.default_rng(0).standard_normal((30, 30))


def gauge_sample_s() -> float:
    """One timing of 100 small products, a machine-speed gauge for the record.

    The shared box runs this loop at about 0.22 ms uncontended and about
    0.42 ms contended, switching many times a second; the median of the
    gauge, sampled after every pass, shows the mix a run saw. It never
    divides a reported time.
    """
    start = time.perf_counter()
    for _ in range(100):
        float((GAUGE_MATRIX @ GAUGE_MATRIX)[0, 0])
    return time.perf_counter() - start


@dataclass
class Tally:
    """What the timed passes of one run produced."""

    pass_s: list = field(default_factory=list)
    op_s: list = field(default_factory=list)  # per operation, its times
    gauge_s: list = field(default_factory=list)
    layers: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failed_checks: int = 0
    problems: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def fastest_pass_s(self) -> float:
        """Each operation at its fastest over the run, summed over one pass.

        The shared box switches between a contended and an uncontended speed
        many times a second, in a mix that drifts over minutes. The median
        pass follows that mix; each operation's fastest time follows the
        uncontended speed, which every run reaches.
        """
        return sum(min(times) for times in self.op_s)

    @property
    def correct(self) -> bool:
        """No failed check, and no operation that raised instead of returning."""
        return self.failed_checks == 0 and self.failed == 0

    def add_problems(self, found: list[str]) -> None:
        self.failed_checks += len(found)
        self.problems += found[:MAX_PROBLEMS - len(self.problems)]

    def check(self, workloads, case, outcome, ref) -> None:
        self.attempted += 1
        if isinstance(outcome, Exception):
            self.failed += 1
            if len(self.errors) < MAX_PROBLEMS:
                self.errors.append(f"{case.label}: {type(outcome).__name__}: {outcome}")
            return
        self.add_problems(workloads.check_case(case, outcome, ref))


def run_passes(workloads, cases, refs, scratch, seconds, tracer, tally) -> None:
    """Whole passes until ``seconds`` have gone; checks run between passes."""
    clock = time.perf_counter
    tally.op_s = [[] for _ in cases]
    deadline = clock() + seconds
    while clock() < deadline:
        outcomes = []
        if tracer is not None:
            tracer.reset()
        start = clock()
        for case, times in zip(cases, tally.op_s):
            op_start = clock()
            try:
                outcomes.append(workloads.run_case(case, scratch))
            except Exception as exc:  # a failed operation is counted, not fatal
                outcomes.append(exc)
            times.append(clock() - op_start)
        tally.pass_s.append(clock() - start)
        if tracer is not None:
            tally.layers.append(tracer.layer_metrics())
        for case, outcome, ref in zip(cases, outcomes, refs):
            tally.check(workloads, case, outcome, ref)
        tally.gauge_s.append(gauge_sample_s())


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(), "cpu": cpu,
            "cpus": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "clients": 1, "loop": "closed"}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cases = inputs.cases_for(args.workload, args.seed)
    scratch = tempfile.mkdtemp(prefix=".momentbench-", dir=inputs.ROOT)
    tracer = None
    try:
        workloads.write_model_files(cases, scratch)
        first = workloads.run_case(cases[0], scratch)
        setup_s = time.perf_counter() - _START

        refs = compute_references(args.workload, args.seed, len(cases))
        tally = Tally()
        tally.add_problems(workloads.check_case(cases[0], first, refs[0]))
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        run_passes(workloads, cases, refs, scratch, args.seconds, tracer, tally)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s = tally.pass_s
    pass_ms = 1e3 * tally.fastest_pass_s
    end_to_end = {"pass_ms": (pass_ms, "ms"), "setup_s": (setup_s, "s"),
                  "peak_rss_mb": (peak_rss_mb, "MB")}
    per_layer = {}
    if tracer is not None:
        for name in tally.layers[0]:
            per_layer[name] = (statistics.median(p[name] for p in tally.layers),
                               "ms" if name.endswith("_ms") else "count")
        per_layer["trace.pass_ms"] = (pass_ms, "ms")
    p90_s = p90(pass_s)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed, "failed_checks": tally.failed_checks,
        "problems": tally.problems, "errors": tally.errors,
        "passes": len(pass_s), "operations_per_pass": len(cases),
        "pass_ms_median": 1e3 * statistics.median(pass_s),
        "pass_ms_quartiles": [1e3 * q for q in quartiles(pass_s)],
        "pass_ms_p90": 1e3 * p90_s if p90_s is not None else None,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "gauge_ms": 1e3 * statistics.median(tally.gauge_s),
        "environment": environment(),
    }
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(inputs.ROOT, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)

    for line in tally.problems + tally.errors:
        print(line, file=sys.stderr)
    metrics = per_layer if args.trace else end_to_end
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
