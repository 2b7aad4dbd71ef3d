"""The text codec the CSV artifacts share.

Writers hand ``write_columns`` a header and equal-length columns of
field text, or ``write_rows`` the text of each row; the body is built
with one join per row, not one ``csv.writer`` call per row.  Integer
fields are spelled by ``int_text``, and surnames are quoted by
``quoted_text``, which asks the ``csv`` module itself, once per distinct
label, so that the quoting is exactly ``csv``'s QUOTE_MINIMAL.
``read_rows`` checks a header and reads the body with one ``np.loadtxt``
call.
"""

import csv
import warnings
from types import SimpleNamespace

import numpy as np


def _open(path_or_file, mode):
    if hasattr(path_or_file, "read" if mode == "r" else "write"):
        return path_or_file, False
    return open(path_or_file, mode, encoding="utf-8", newline=""), True


def write_columns(dest, header, columns):
    """Write a header row, then one row per position of the columns.

    dest is a path or an open text file; columns are lists of field text.
    Rows end in "\\n"; header names must need no quoting.
    """
    write_rows(dest, header, map(",".join, zip(*columns)))


def write_rows(dest, header, rows):
    """Write a header row, then rows, each the text of one row without its
    line end."""
    rows = "\n".join(rows)
    fh, own = _open(dest, "w")
    try:
        fh.write(",".join(header) + "\n")
        if rows:
            fh.write(rows)
            fh.write("\n")
    finally:
        if own:
            fh.close()


def int_text(values):
    """Decimal text of an integer (or boolean) array, as a list of str.

    An array whose range is under half its length, as days, months,
    years, flags and counts are, is spelled through a table over that
    range, so each distinct value is formatted once.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return []
    lo, hi = int(values.min()), int(values.max())
    if hi - lo >= values.size // 2:
        return list(map(str, values.tolist()))
    table = np.array(list(map(str, range(lo, hi + 1))), dtype=object)
    return table[values - lo].tolist()


def quoted_text(labels):
    """Each label as ``csv`` writes it as a field among others, as an
    object array aligned with labels."""
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append),
                        lineterminator="\n")
    # each row ends in an empty field and "\n": a row of one empty field
    # would be written '""', where a row of several leaves it empty
    writer.writerows((label, "") for label in labels)
    return np.array([line[:-2] for line in lines], dtype=object)


def read_rows(source, header, dtype, what):
    """Check the header row of a CSV artifact and read its body.

    source is a path or an open text file; the body is read by one
    ``np.loadtxt`` call into dtype, one element per row.  A header other
    than header raises ValueError naming what; a file with no rows gives
    an empty array.
    """
    fh, own = _open(source, "r")
    try:
        first = next(csv.reader([fh.readline()]), None)
        if first is None or tuple(first) != header:
            raise ValueError(f"unexpected {what} header")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore",
                                    "loadtxt: input contained no data")
            return np.loadtxt(fh, dtype=dtype, delimiter=",",
                              quotechar='"', comments=None, ndmin=1)
    finally:
        if own:
            fh.close()
