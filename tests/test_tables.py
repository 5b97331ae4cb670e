"""CSV emission: float arrays and mixed-type rows write the same bytes."""

import csv
import math

import numpy as np
import pytest

from nearrep.tables import format_cell, write_csv

_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e22, 1e-22, 1.0,
           -3.0, 2.0 ** 53, 0.1, 1.0 / 3.0, 0.10077602748463332, 1.7976931348623157e308]


def _row_list_bytes(tmp_path, header, rows):
    # the same cells through csv.writer, one format_cell call per cell
    path = tmp_path / "reference.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])
    return path.read_bytes()


@pytest.mark.parametrize("shape", [(16, 1), (8, 2), (4, 4), (2, 8), (0, 3)])
def test_float_array_writes_the_bytes_of_its_row_lists(tmp_path, shape):
    values = np.resize(np.array(_FLOATS), shape)
    header = [f"c{j}" for j in range(shape[1])]
    from_array = write_csv(tmp_path / "array.csv", header, values).read_bytes()
    from_lists = write_csv(tmp_path / "lists.csv", header, values.tolist()).read_bytes()
    assert from_array == from_lists == _row_list_bytes(tmp_path, header, values.tolist())


def test_mixed_rows_keep_the_row_writer(tmp_path):
    rows = [["a,b", 1, True, None, 0.5], ['say "hi"', -2, False, "x", -0.0],
            [np.float64(1e22), 3, None, "", math.nan]]
    path = write_csv(tmp_path / "mixed.csv", ["s", "i", "b", "n", "f"], rows)
    assert path.read_bytes() == (b's,i,b,n,f\n'
                                 b'"a,b",1,true,,0.5\n'
                                 b'"say ""hi""",-2,false,x,-0\n'
                                 b'1e+22,3,,,nan\n')
    assert path.read_bytes() == _row_list_bytes(tmp_path, ["s", "i", "b", "n", "f"], rows)


def test_integer_arrays_take_the_row_path(tmp_path):
    ints = np.arange(6).reshape(3, 2)
    path = write_csv(tmp_path / "ints.csv", ["a", "b"], ints)
    assert path.read_text() == "a,b\n0,1\n2,3\n4,5\n"
