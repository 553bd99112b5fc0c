"""Golden reports: every shipped config against its recorded reports.

tests/golden/ holds the `verify` and `periodic` reports of the five shipped
configs as recorded before the step functions became dense digit tables.
It also holds the reports of four edge cases of the energy checks, recorded
while each check still summed the energies in its own loop: an empty verify
scale range, a periodic scale cap of 0, and a system without wavelets.
Those reports are compared as numbers: a refactor must reproduce each exit code and verdict block exactly and
every report number to 1e-12 relative; a number recorded below 1e-12 (a
residual at roundoff level) only has to stay below 1e-12. Strings, such
as the version, are not compared.

The `field-info` and `uindex` reports (count 32) of haar_q2 and of a GF(4)
field (p = 2, c = 2, modulus 1.1.1, a config with a [field] section only)
spell FieldElements as text, and are replayed byte for byte.
"""

import configparser
import json
import math
import os

import pytest

from walshframes.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(HERE, "..", "configs")
GOLDEN = os.path.join(HERE, "golden")
NAMES = ("fourier_q3", "haar_q2", "haar_q2_perturbed",
         "nonuniform_q2_N3_r1", "nonuniform_q2_N3_r5")
REL = 1e-12
FLOOR = 1e-12
# golden name -> (command, shipped config, changed options, masks kept)
EDGES = {
    "fourier_q3_j1_0.verify": ("verify", "fourier_q3", {"j1": "0"}, None),
    "fourier_q3_resolution_0.periodic": ("periodic", "fourier_q3",
                                         {"resolution": "0", "j_max": "0"}, None),
    "haar_q2_mask_0.verify": ("verify", "haar_q2", {}, 1),
    "haar_q2_mask_0.periodic": ("periodic", "haar_q2", {}, 1),
}
GF4_CONFIG = "[field]\np = 2\nc = 2\nmodulus = 1.1.1\n"


def differences(got, want, where="report"):
    """Where got departs from the golden value want, as readable lines."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [line for key in want
                for line in differences(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got} != {want}"]
        return [line for i, (g, w) in enumerate(zip(got, want))
                for line in differences(g, w, f"{where}[{i}]")]
    if isinstance(want, str):
        return []
    if isinstance(want, float) and not isinstance(got, bool) \
            and isinstance(got, (int, float)):
        if abs(want) < FLOOR:
            return [] if abs(got) < FLOOR else [f"{where}: {got} not below {FLOOR}"]
        if math.isclose(got, want, rel_tol=REL, abs_tol=0.0):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


def _check_golden(tmp_path, golden, command, config):
    with open(os.path.join(GOLDEN, f"{golden}.json")) as fh:
        want = json.load(fh)
    out = str(tmp_path / "report.json")
    code = main([command, "--config", config, "--out", out])
    with open(out) as fh:
        got = json.load(fh)
    assert code == (0 if want["verdicts"]["overall"] else 1)
    assert got["verdicts"] == want["verdicts"]
    assert differences(got, want) == []


@pytest.mark.parametrize("command", ["verify", "periodic"])
@pytest.mark.parametrize("name", NAMES)
def test_shipped_config_reproduces_golden_report(tmp_path, name, command):
    _check_golden(tmp_path, f"{name}.{command}", command,
                  os.path.join(CONFIGS, f"{name}.cfg"))


def _edge_config(directory, name, options, masks):
    """A shipped config with some options changed and, if masks is not None,
    only its first `masks` masks kept, written to directory; its path."""
    parser = configparser.ConfigParser()
    parser.read(os.path.join(CONFIGS, f"{name}.cfg"))
    with open(os.path.join(CONFIGS, parser["masks"]["file"])) as fh:
        text = fh.read()
    if masks is not None:
        text = text[:text.index(f"mask {masks}\n")]
    parser["masks"]["file"] = os.path.join(directory, "edge.masks")
    with open(parser["masks"]["file"], "w") as fh:
        fh.write(text)
    for key, value in options.items():
        section, = (s for s in parser.sections() if parser.has_option(s, key))
        parser[section][key] = value
    path = os.path.join(directory, "edge.cfg")
    with open(path, "w") as fh:
        parser.write(fh)
    return path


@pytest.mark.parametrize("golden", sorted(EDGES))
def test_energy_check_edge_case_reproduces_golden_report(tmp_path, golden):
    command, name, options, masks = EDGES[golden]
    _check_golden(tmp_path, golden, command,
                  _edge_config(str(tmp_path), name, options, masks))


@pytest.mark.parametrize("golden", ["fourier_q3.periodic", "fourier_q3_resolution_0.periodic"])
def test_a_tail_of_exact_zeros_reads_exactly_zero(tmp_path, golden):
    # fourier_q3's wavelet transforms vanish exactly on every cell the tail
    # at j_max reads, and the checks read those transforms themselves: a
    # copy taken to space and back left a tail of about 1e-31, which the
    # floor of the comparison above cannot tell from 0
    if golden in EDGES:
        command, name, options, masks = EDGES[golden]
        config = _edge_config(str(tmp_path), name, options, masks)
    else:
        config = os.path.join(CONFIGS, "fourier_q3.cfg")
    out = tmp_path / "report.json"
    assert main(["periodic", "--config", config, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tightness"]["max_tail"] == 0.0


def test_golden_comparison_catches_a_moved_number():
    want = {"a": 1.0, "tiny": 1e-15, "flag": True, "xs": [2.0, None]}
    assert differences(dict(want), want) == []
    assert differences({**want, "tiny": 5e-13}, want) == []
    assert differences({**want, "tiny": 2e-12}, want) != []
    assert differences({**want, "a": 1.0 + 1e-11}, want) != []
    assert differences({**want, "flag": False}, want) != []
    assert differences({**want, "xs": [2.0, 0.0]}, want) != []


@pytest.mark.parametrize("command", ["field-info", "uindex"])
@pytest.mark.parametrize("name", ["haar_q2", "gf4"])
def test_field_report_reproduces_golden_bytes(tmp_path, name, command):
    config = os.path.join(CONFIGS, f"{name}.cfg")
    if name == "gf4":
        config = str(tmp_path / "gf4.cfg")
        with open(config, "w") as fh:
            fh.write(GF4_CONFIG)
    out = tmp_path / "report.json"
    count = ["32"] if command == "uindex" else []
    assert main([command, "--config", config, "--out", str(out), *count]) == 0
    with open(os.path.join(GOLDEN, f"{name}.{command}.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()
