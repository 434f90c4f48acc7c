"""Rank-3 arrays: a 7-point 3-D Laplacian through the outer loop.

The paper's run-time library "provides the outer loop structure for
strip-mining and for handling multidimensional arrays"; this example
shows that outer structure on a 3-D diffusion problem.  The first two
dimensions are block-decomposed over the node grid (Figure 1 style),
the depth axis is node-local, and the two out-of-plane neighbors of the
7-point Laplacian ride as *fused* terms inside the microcode loop's
multiply-add chains -- the fusion extension and the multidimensional
outer loop composing.

Run:  python examples/laplacian3d.py
"""

import numpy as np

from repro import CM2, MachineParams
from repro.runtime.multidim import (
    CMArray3D,
    DepthTap,
    apply_stencil_3d,
    compile_3d,
)
from repro.stencil.offsets import BoundaryMode
from repro.stencil.pattern import Coefficient, StencilPattern, Tap


def laplacian_kernel(lam):
    """u' = u + lam * Laplacian(u): in-plane part and depth taps."""
    offsets = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    taps = [
        Tap(
            offset=o,
            coeff=Coefficient.scalar(lam if o != (0, 0) else 1.0 - 6.0 * lam),
        )
        for o in offsets
    ]
    pattern = StencilPattern(taps, name="lap7_inplane")
    depth = [
        DepthTap(-1, Coefficient.scalar(lam)),
        DepthTap(+1, Coefficient.scalar(lam)),
    ]
    return pattern, depth


def main():
    machine = CM2(MachineParams(num_nodes=16))
    lam = 0.1  # diffusion number; stable for explicit 3-D at <= 1/6
    pattern, depth_taps = laplacian_kernel(lam)
    compiled = compile_3d(pattern, depth_taps, machine.params)
    print(f"compiled 3-D Laplacian: widths {compiled.widths}")
    print(f"(in-plane pattern + {len(depth_taps)} fused depth taps)")
    print()

    shape = (64, 64, 16)
    rows, cols, depth = shape
    u = CMArray3D("U", machine, shape)
    # A hot ball in the middle of a cold block.
    yy, xx, zz = np.mgrid[0:rows, 0:cols, 0:depth]
    ball = (
        (yy - rows // 2) ** 2
        + (xx - cols // 2) ** 2
        + (4 * (zz - depth // 2)) ** 2
    ) <= 36
    field = np.where(ball, 100.0, 0.0).astype(np.float32)
    u.set(field)

    total = float(field.sum())
    print(f"initial total heat: {total:10.1f}, peak {field.max():.1f}")
    scratch = u.like("UNEXT")
    steps = 20
    run = None
    for step in range(steps):
        run = apply_stencil_3d(
            compiled,
            u,
            {},
            scratch,
            depth_boundary=BoundaryMode.FILL,
        )
        u, scratch = scratch, u
        # Re-point the statement's source name at the new current field:
        # the next apply reads whatever array we hand it, so a plain
        # Python swap is all the "time-step shuffle" this loop needs.
    final = u.to_numpy()
    print(
        f"after {steps} sweeps:   total heat {final.sum():10.1f}, "
        f"peak {final.max():.2f}"
    )
    center_profile = final[rows // 2, cols // 2, :]
    print("depth profile through the center:")
    print("  " + " ".join(f"{v:6.2f}" for v in center_profile))
    print()
    print(
        f"last sweep: {run.total_compute_cycles} node cycles over {depth} planes, "
        f"{run.mflops:.1f} Mflops sustained on {machine.num_nodes} nodes"
    )


if __name__ == "__main__":
    main()
