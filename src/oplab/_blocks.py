"""The numbers of the [re, im] blocks that `oplab.serialization.decode_config`
found, read into one shared mapping by this process and a forked worker.

Reading decimal text into doubles is about half of a ``spectral`` or
``validate`` job.  json's number parser and numpy's are both bound by
correctly rounded decimal-to-double conversion, so the second core is what
is left.  The blocks are cut into comma-cut pieces of about 64 KiB; piece k
holds its ``count(",") + 1`` numbers at a fixed offset of one anonymous
shared ``mmap``, which ends with one flag byte per piece.

A worker forked before numpy is imported takes pieces from the end, while
this process imports numpy and then takes pieces from the start.  Each
stops at the first piece the other has taken, so the two meet in the middle
with no split ratio.  Two processes may read one piece, which writes the
same doubles twice; no piece is skipped.  Both write through
``memoryview.cast("d")``, so the worker never imports numpy.  Each block's
array is then a view of the mapping.  Only a config with a block imports
this module.
"""

from __future__ import annotations

import json
import mmap
from array import array

from . import _np as np
from ._fork import available_cpus, beside

# Fewest characters of blocks for which ``read`` forks a worker.  Forking
# costs about 3 ms with a 6 MB config loaded.  On a 2-core VM, reading one
# d x d block in a fresh process, numpy's import included (Python 3.11, 31
# pairs each), the worker saved nothing measurable up to d = 64 (170 000
# characters), 8 ms of 156 at d = 96 (380 000, 22 of 31 pairs) and 10 ms of
# 174 at d = 128 (680 000, 27 of 31).
FORK_MIN_CHARS = 1 << 18

_TAKEN, _READ, _BAD = 1, 2, 3  # a piece's flag byte; 0 until a process takes it
_BRACKETS = str.maketrans("[]", "  ")  # two numbers that touch a bracket stay apart


def _integer(token):
    raise ValueError("an integer token")  # json.loads keeps it an int


_NUMBERS = json.JSONDecoder(parse_int=_integer)


def read(text: str, blocks: list, piece: int) -> None:
    """Set the ``array`` of each of ``blocks`` whose numbers are all finite
    float tokens that json reads, cutting them into pieces of about ``piece``
    characters; leave the others' None, for json to read."""
    pieces, spans = [], []  # (at, cut, offset, count); (first piece, stop, offset)
    offset = 0
    for block in blocks:
        first, start, at = len(pieces), offset, block.start
        while at < block.end:
            cut = text.find(",", at + piece, block.end)
            if cut < 0:
                cut = block.end
            count = text.count(",", at, cut) + 1
            pieces.append((at, cut, offset, count))
            offset, at = offset + count, cut + 1
        spans.append((first, len(pieces), start))
    mapping = mmap.mmap(-1, 8 * offset + len(pieces))
    doubles = memoryview(mapping)[:8 * offset].cast("d")
    flags = memoryview(mapping)[8 * offset:]
    parts, stop = None, 0

    def own():
        nonlocal parts, stop
        parts = np.frombuffer(mapping, np.float64, offset)  # numpy loads while the worker reads
        stop = _take(text, pieces, range(stop, len(pieces)), doubles, flags)

    def work():
        _take(text, pieces, reversed(range(len(pieces))), doubles, flags)

    chars = sum(block.end - block.start for block in blocks)
    if chars < FORK_MIN_CHARS or available_cpus() < 2 or not beside(work, own):
        flags[stop:] = bytes(len(pieces) - stop)  # a failed worker's pieces are read again
        own()
    for block, (first, last, start) in zip(blocks, spans):
        rows, cols = block.shape
        values = parts[start:start + 2 * rows * cols]
        if set(flags[first:last]) == {_READ} and np.isfinite(values).all():
            block.array = values.view(np.complex128).reshape(rows, cols)


def _take(text: str, pieces: list, order, doubles, flags) -> int:
    """Read the pieces in ``order`` into ``doubles`` until one is taken
    already; that piece's index, or the number of pieces.  A piece's flag
    ends ``_BAD`` when json refuses it, it holds an integer token or it does
    not hold its count of numbers."""
    for k in order:
        if flags[k]:
            return k
        flags[k] = _TAKEN
        at, cut, offset, count = pieces[k]
        try:
            values = array("d", _NUMBERS.decode("[" + text[at:cut].translate(_BRACKETS) + "]"))
        except ValueError:
            values = None
        if values is None or len(values) != count:
            flags[k] = _BAD
            continue
        doubles[offset:offset + count] = values
        flags[k] = _READ
    return len(pieces)
