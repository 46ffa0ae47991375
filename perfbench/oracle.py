"""Reference values the benchmark checks the program against.

Kept loop-shaped and independent of voxseg's implementation on purpose: the
surface-distance oracle transcribes the metric definitions voxel by voxel, and
the convolution FLOP count is derived from the built net's layer shapes.
"""

from __future__ import annotations

import math

_NEIGHBOURS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def surface_points(mask) -> list[tuple[int, int, int]]:
    """(x, y, z) of foreground voxels with a background or out-of-volume 6-neighbour.

    ``mask`` is indexed (z, y, x).
    """
    nz, ny, nx = mask.shape
    points = []
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                if not mask[z, y, x]:
                    continue
                for dx, dy, dz in _NEIGHBOURS:
                    qx, qy, qz = x + dx, y + dy, z + dz
                    inside = 0 <= qx < nx and 0 <= qy < ny and 0 <= qz < nz
                    if not inside or not mask[qz, qy, qx]:
                        points.append((x, y, z))
                        break
    return points


def _nearest(src, dst, spacing) -> list[float]:
    sx, sy, sz = spacing
    out = []
    for ax, ay, az in src:
        best = min(((ax - bx) * sx) ** 2 + ((ay - by) * sy) ** 2 + ((az - bz) * sz) ** 2
                   for bx, by, bz in dst)
        out.append(math.sqrt(best))
    return out


def surface_distances(mask_a, mask_b, spacing=(1.0, 1.0, 1.0)) -> tuple[float, float]:
    """(average surface distance, Hausdorff distance) in mm, by brute force."""
    sa, sb = surface_points(mask_a), surface_points(mask_b)
    d_ab, d_ba = _nearest(sa, sb, spacing), _nearest(sb, sa, spacing)
    return math.fsum(d_ab + d_ba) / (len(sa) + len(sb)), max(max(d_ab), max(d_ba))


def conv_layers(net, patch) -> list[tuple[object, tuple[int, int, int]]]:
    """Every Conv3d of a ShuffleUNet3d with the spatial extents it runs at."""
    spec = net.spec
    levels = [tuple(p // f for p, f in zip(patch, spec.factors))]
    for _ in range(spec.depth - 1):
        levels.append(tuple(e // p for e, p in zip(levels[-1], spec.pool)))
    layers = [(net.stem.conv, levels[0])]
    layers += [(conv, levels[i]) for i, conv in enumerate(net.enc)]
    for j, (up, dec) in enumerate(zip(net.ups, net.dec)):
        level = spec.depth - 2 - j
        layers += [(up.conv, levels[level + 1]), (dec, levels[level])]
    layers.append((net.head.conv, levels[0]))
    return layers


def conv_flops_per_forward(net, patch) -> int:
    """2 * multiply-adds of every direct convolution in one forward pass.

    All convolutions use stride 1 and 'same' padding, so each output has the
    extents of its input.
    """
    return sum(2 * math.prod(extents) * conv.c_in * conv.c_out * math.prod(conv.kernel)
               for conv, extents in conv_layers(net, patch))
