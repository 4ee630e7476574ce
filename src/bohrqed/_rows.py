"""The body rows of a field file, from the standard library alone.

:func:`bohrqed.lattice.write_field` formats its first part of slabs with
:func:`rows` in its own process.  Run as a script by a fresh interpreter
(``python -I -S _rows.py width start stop step n1 n2 n3``), this module
formats a later part: the sites of time slices ``start..stop`` of a
lattice whose axes 1-3 are ``n1 n2 n3``, ``step`` slices per slab.  The
part's raw native doubles (re, im of ``width`` components per site, in C
order) come on standard input, and its rows go to standard output.  Both
ways run the same ``%`` of the same interpreter on the same doubles, so
the bytes are the same.
"""

import math
import sys


def rows(values, start: int, shape, width: int) -> str:
    """The rows of a slab of ``shape`` (time slices from ``start``, then axes
    1-3): each site's index quadruple, then its ``width`` complex components,
    ``values`` holding their ``2 * width`` real and imaginary parts per site.
    One ``%`` formats the whole slab."""
    sites, stride = math.prod(shape), 4 + 2 * width
    args = [0] * (sites * stride)
    inner = sites
    for axis, size in enumerate(shape):
        inner //= size
        first = start if axis == 0 else 0
        column = [i for i in range(first, first + size) for _ in range(inner)]
        args[axis::stride] = column * (sites // (size * inner))
    for k in range(2 * width):
        args[4 + k::stride] = values[k::2 * width]
    row = "%d %d %d %d " + " ".join(["%.17g%+.17gj"] * width) + "\n"
    return (row * sites) % tuple(args)


def main(argv) -> None:
    width, start, stop, step, *axes = map(int, argv)
    for t in range(start, stop, step):
        shape = (min(step, stop - t), *axes)
        size = 16 * width * math.prod(shape)
        raw = sys.stdin.buffer.read(size)
        if len(raw) != size:
            sys.exit(f"{len(raw)} bytes of input for slices {t}.., expected {size}")
        sys.stdout.buffer.write(
            rows(memoryview(raw).cast("d").tolist(), t, shape, width).encode())


if __name__ == "__main__":
    main(sys.argv[1:])
