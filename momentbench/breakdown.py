"""Per-layer breakdown of single evaluations on the Hilbert systems.

    python3 momentbench/breakdown.py

Prints, as medians of repeated traced calls, the share of ``assemble`` in
one ``moments_at`` at d = 2 for each class, and the time of the dense and
the Krylov exponential in ``moments_at`` at d = 12..24 with the route
forced through ``ExpmOptions(method=...)``. The README's reference
figures come from this script.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import statistics  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

import sdemoments  # noqa: E402
from sdemoments import ExpmOptions  # noqa: E402


def traced_calls(tracer, call, reps):
    """Medians over ``reps`` calls of each span's total time, in ms."""
    samples = []
    for _ in range(reps):
        tracer.reset()
        call()
        samples.append(dict(tracer.total_s))
    return {k: 1e3 * statistics.median(s.get(k, 0.0) for s in samples)
            for k in samples[0]}


def main() -> None:
    # calls go through the package namespace, where the tracer's wrappers sit
    tracer = Tracer()
    tracer.install()
    try:
        print("d = 2, moments_at at t = 1 (medians of 200 calls)")
        for kind in inputs.KINDS:
            sde, state = workloads.build_model(inputs.hilbert_spec(2, kind))
            ms = traced_calls(
                tracer, lambda: sdemoments.moments_at(sde, state, 1.0), 200)
            total, asm = ms["moments.moments_at"], ms["moments.assemble"]
            print(f"  {kind:26s} moments_at {total:.3f} ms, assemble {asm:.3f} ms "
                  f"({100 * asm / total:.0f}%), expm {ms['expm.expm']:.3f} ms, "
                  f"make_result {ms['moments.make_result']:.3f} ms")
        print("d = 12..24, exponential time in moments_at at t = 1 (medians of 5 calls)")
        for kind in inputs.KINDS[:2]:
            for d in (12, 16, 20, 24):
                sde, state = workloads.build_model(inputs.hilbert_spec(d, kind))
                n = d * d + (2 * d + 7 if kind == "non_autonomous" else d + 2)
                dense = traced_calls(tracer, lambda: sdemoments.moments_at(
                    sde, state, 1.0, ExpmOptions(method="dense")), 5)
                action = traced_calls(tracer, lambda: sdemoments.moments_at(
                    sde, state, 1.0, ExpmOptions(method="action")), 5)
                print(f"  {kind:26s} d = {d:2d} n = {n:3d}  dense "
                      f"{dense['expm.expm']:7.2f} ms  action "
                      f"{action['expm.expm_action']:7.2f} ms")
    finally:
        tracer.uninstall()


if __name__ == "__main__":
    main()
