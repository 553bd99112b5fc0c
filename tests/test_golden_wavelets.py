"""Golden generators: `dump-wavelets` on every shipped config.

tests/golden/<config>.wavelets/ holds the generator CSVs that
`dump-wavelets` wrote for the five shipped configs before the cell-index
codec moved into stepfn. The files must name the same generators with the
same headers and the same cells; each amplitude part must match to 1e-12
relative, by the rules of test_golden.differences.
"""

import csv
import os

import pytest
from test_golden import CONFIGS, GOLDEN, NAMES, differences

from walshframes.cli import main


def read_cells(path):
    """(header line, {"lo,digits": [re, im]}) of a step-function CSV."""
    with open(path, newline="") as fh:
        header = fh.readline()
        rows = list(csv.reader(fh))
    assert rows[0] == ["lo", "digits", "re", "im"]
    return header, {f"{lo},{digits}": [float(re), float(im)]
                    for lo, digits, re, im in rows[1:]}


@pytest.mark.parametrize("name", NAMES)
def test_shipped_config_reproduces_golden_generators(tmp_path, capsys, name):
    want_dir = os.path.join(GOLDEN, f"{name}.wavelets")
    assert main(["dump-wavelets", "--config", os.path.join(CONFIGS, f"{name}.cfg"),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(want_dir))
    for file in sorted(os.listdir(want_dir)):
        got_header, got = read_cells(tmp_path / file)
        want_header, want = read_cells(os.path.join(want_dir, file))
        assert got_header == want_header
        assert differences(got, want, file) == []


def test_cell_comparison_catches_a_moved_amplitude(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("# header\nlo,digits,re,im\n0,,1.0,0.0\n-1,1.0,0.5,-0.25\n")
    _, cells = read_cells(path)
    assert cells == {"0,": [1.0, 0.0], "-1,1.0": [0.5, -0.25]}
    assert differences(dict(cells), cells) == []
    assert differences({**cells, "-1,1.0": [0.5, -0.25 + 1e-11]}, cells) != []
    assert differences({"0,": [1.0, 0.0]}, cells) != []
