"""CSV writing and reading for sweep tables and state files.

Numbers are serialized with 17 significant digits so every double round-trips
bit-identically. All files are UTF-8, comma-separated, with a mandatory header.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .states import DensityMatrix, StateError, StateVector

__all__ = ["format_number", "write_table", "save_state", "load_state"]


# header -> number of index cells per row
_STATE_HEADERS = {("index", "re", "im"): 1, ("row", "col", "re", "im"): 2}


def format_number(x: float) -> str:
    return "%.17g" % x


def write_table(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence[float]]
) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(float(x)) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_state(path: str | Path, state: StateVector | DensityMatrix) -> None:
    """Vector files carry index,re,im rows; matrix files row,col,re,im."""
    if isinstance(state, StateVector):
        header = ["index", "re", "im"]
        rows: list[list[float]] = [
            [float(i), z.real, z.imag] for i, z in enumerate(state.amplitudes)
        ]
    elif isinstance(state, DensityMatrix):
        header = ["row", "col", "re", "im"]
        dim = state.dim
        rows = [
            [float(r), float(c), state.matrix[r, c].real, state.matrix[r, c].imag]
            for r in range(dim)
            for c in range(dim)
        ]
    else:
        raise StateError(f"cannot serialize {type(state).__name__}")
    write_table(path, header, rows)


def load_state(path: str | Path) -> StateVector | DensityMatrix:
    """Read a file written by save_state; rows may come in any order.

    The dimension is the smallest power of two >= 2 whose entry count (dim for
    a vector, dim^2 for a matrix) holds every row. Each index must be an integer
    in range and appear exactly once; any other file raises StateError naming
    the path and, for a bad row, its line.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [(no, line) for no, line in enumerate(text.splitlines(), 1) if line.strip()]
    if not lines:
        raise StateError(f"{path}: empty state file")
    header = lines[0][1].split(",")
    n_keys = _STATE_HEADERS.get(tuple(header))
    if n_keys is None:
        raise StateError(f"{path}: unrecognized state header {header!r}")
    body = lines[1:]
    bits = (len(body) - 1).bit_length()  # to index every row
    n_qubits = max(1, (bits + n_keys - 1) // n_keys)
    dim = 2**n_qubits
    entries = np.zeros((dim,) * n_keys, dtype=complex)
    first_line = np.zeros((dim,) * n_keys, dtype=int)  # 0 where no row set the entry
    for no, line in body:
        where = f"{path}:{no}"
        cells = line.split(",")
        if len(cells) != len(header):
            raise StateError(f"{where}: {len(cells)} cells, expected {len(header)}")
        try:
            values = [float(cell) for cell in cells]
        except ValueError as exc:
            raise StateError(f"{where}: {exc}") from None
        label = ",".join(cells[:n_keys])
        if not all(x.is_integer() and 0 <= x < dim for x in values[:n_keys]):
            raise StateError(f"{where}: index {label} is not an integer in [0, {dim})")
        key = tuple(int(x) for x in values[:n_keys])
        if first_line[key]:
            raise StateError(f"{where}: duplicate index {label}, first on line {first_line[key]}")
        first_line[key] = no
        entries[key] = complex(values[-2], values[-1])
    missing = np.argwhere(first_line == 0)
    if missing.size:
        raise StateError(f"{path}: missing index {','.join(str(i) for i in missing[0])}")
    try:
        if n_keys == 1:
            return StateVector(entries, n_qubits)
        return DensityMatrix(entries, n_qubits)
    except StateError as exc:
        raise StateError(f"{path}: {exc}") from None
