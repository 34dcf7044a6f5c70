"""Show the augmented matrix behind each model class.

Both moments of dx = (Ax + a(t))dt + sum_i (B_i x + b_i(t))dw^i solve
linear ODEs, so one block matrix M can carry vec(P_t), the mean flow,
and the forcing polynomial together: everything is read off e^{M tau}.
The block layout (and its size) depends on how much structure the
model has.
"""

import numpy as np

from sdemoments import (Formulation, assemble, classify, hilbert_systems,
                        moments_at, rk4_moments)


def blocks(formulation: Formulation, d: int) -> list[tuple[str, int]]:
    """Names and sizes of the diagonal blocks of M, in order."""
    if formulation is Formulation.ADDITIVE:
        return [("state", d), ("one", 1), ("adjoint", d), ("shift", 1)]
    if formulation is Formulation.AUTONOMOUS:
        return [("secmom", d * d), ("one", 1), ("mean_flow", d + 1)]
    return [("secmom", d * d), ("mean_ramp", d + 2), ("mean_flow", d + 2),
            ("time_sq", 1), ("time", 1), ("one", 1)]


for label, sde, state in hilbert_systems(3):
    aug = assemble(sde, state)
    print(f"{label}  (narrowest formulation: {classify(sde).name})")
    print(f"  augmented size n = {aug.n} for d = {sde.d}")
    layout = blocks(aug.formulation, sde.d)
    offsets = np.cumsum([0] + [size for _, size in layout])
    assert offsets[-1] == aug.n
    print("  blocks: " + ", ".join(f"{name}@{off}(size {size})"
                                   for (name, size), off in zip(layout, offsets)))

    res = moments_at(sde, state, 1.0)
    ref = rk4_moments(sde, state, 1.0, 4000)
    err = np.abs(res.secmom - ref.secmom).max() / np.abs(ref.secmom).max()
    print(f"  mean(1.0)        = {np.array2string(res.mean, precision=6)}")
    print(f"  secmom rel err vs RK4 reference: {err:.2e}")
    print()

print("sizes grow as d^2+2d+7 / d^2+d+2 / 2d+2:")
print("%4s %18s %18s %18s" % ("d", "non-autonomous", "autonomous mult",
                              "additive"))
for d in (1, 2, 4, 8):
    row = [assemble(sde, state).n for _, sde, state in hilbert_systems(d)]
    print("%4d %18d %18d %18d" % (d, *row))
