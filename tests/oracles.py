"""Reference implementations that tests compare the library against."""

import numpy as np


def write_rows_per_cell(path, header, rows):
    """The per-cell CSV writer grids.write_csv replaced, kept as an oracle.

    Integers print in full, strings as they are and everything else as
    %.17g, one cell and one row at a time.
    """

    def cell(v):
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, str):
            return v
        return f"{float(v):.17g}"

    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")
