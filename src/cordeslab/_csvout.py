"""The text of ``solution.csv``, formatted level by level in a helper
interpreter while the march solves the next levels.

``cordeslab solve`` starts this file by path as ``python -I -S _csvout.py
OUT`` and streams the solution into its standard input as the march
solves it.  The module imports only the standard library, so the helper
starts in milliseconds and loads no numpy.  The stream, in native byte
order:

- ``HEAD`` (the space dimension ``n``, the node count ``N``, the length of
  the header), the header (the file's first two lines, its complex flag
  left as ``%d``), then the node coordinates: ``x1`` of every node, then
  ``x2``, ..., as doubles;
- per level, in any order (the march sends ``nt`` down to 0): ``LEVEL``
  (the level ``k``, the length of its ``t`` text, 1 for complex values),
  the ``t`` text, then the level's ``N`` doubles, or ``2N`` interleaved
  real and imaginary parts;
- ``LEVEL`` with ``k = -1`` to end it.

The helper appends each level's rows to ``OUT.part``, so it holds one
level's text at a time.  At the end it writes the header, with the flag
set when any level was complex (a real level prints an imaginary part of
``0``, as a widened level prints it), and the levels in time order into
``OUT``, and deletes ``OUT.part``.  On any fault it deletes the part
file and any ``OUT`` it began, and exits with the fault's traceback on
standard error.
"""

import os
import struct
import sys

HEAD = struct.Struct("=3q")
LEVEL = struct.Struct("=3q")


def _row_template(columns, cells: str, lead: str = "") -> str:
    """One printf template for a block of CSV rows, one row per node:
    ``lead``, the node's coordinates ``x1,..,xn`` (``columns`` holds the
    ``x1`` of every node, then the ``x2``, ...) formatted as ``{:.12g}``,
    then ``cells``, ended by ``\\r\\n`` as ``csv.writer`` ends them (no
    cell here needs quoting).  ``%.12g`` and ``%.3e`` give the same
    strings as the f-string specs of the same name."""
    coords = zip(*(map("{:.12g}".format, col) for col in columns))
    return "".join(f"{lead}{','.join(c)},{cells}\r\n" for c in coords)


def _read(stream, size: int) -> bytes:
    data = stream.read(size)
    if len(data) != size:
        raise EOFError("the stream of levels ended early")
    return data


def _doubles(stream, count: int) -> tuple:
    return struct.unpack(f"={count}d", _read(stream, 8 * count))


def write(stream, out: str):
    """Read the stream from ``stream`` and write ``out`` (see above)."""
    n, N, size = HEAD.unpack(_read(stream, HEAD.size))
    header = _read(stream, size).decode()
    columns = [_doubles(stream, N) for _ in range(n)]
    rows, kind = None, None     # the template of the current kind of level
    spans = {}                  # level -> (offset, length) in the part file
    is_complex = False
    with open(out + ".part", "wb") as part:
        while True:
            k, size, cplx = LEVEL.unpack(_read(stream, LEVEL.size))
            if k < 0:
                break
            t = _read(stream, size).decode()
            if cplx != kind:
                # "\0" stands for the time cell of each row
                rows = _row_template(columns, "%.12g,%.12g" if cplx
                                     else "%.12g,0", lead="\0,")
                kind = cplx
            text = (rows.replace("\0", t)
                    % _doubles(stream, N * (1 + cplx))).encode()
            spans[k] = (part.tell(), len(text))
            part.write(text)
            is_complex |= bool(cplx)
    with open(out + ".part", "rb") as part:
        try:
            with open(out, "wb") as handle:
                handle.write((header % is_complex).encode())
                for k in sorted(spans):
                    offset, length = spans[k]
                    part.seek(offset)
                    handle.write(part.read(length))
        except BaseException:
            _remove(out)
            raise
    os.unlink(out + ".part")


def _remove(path: str):
    try:
        os.unlink(path)
    except OSError:
        pass


def main(out: str):
    try:
        write(sys.stdin.buffer, out)
    except BaseException:
        _remove(out + ".part")
        raise


if __name__ == "__main__":
    main(sys.argv[1])
