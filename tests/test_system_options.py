"""SystemConfig reads every stated system option, in a mask file header and
in a run configuration's [system] section alike, and holds the only
defaults: N = 1, r = 1, nu = N mod p and unitary normalization."""

import inspect
import io
import math
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from walshframes import runner
from walshframes.algebra import NORMALIZATIONS, FieldConfig, SystemConfig
from walshframes.errors import ConfigError
from walshframes.framekit import MASK_MAGIC, load_masks
from walshframes.runner import RunConfig

FIELDS = [FieldConfig(2), FieldConfig(3), FieldConfig(2, 2, (1, 1, 1)), FieldConfig(5)]
DEFAULTS = {name: p.default for name, p in inspect.signature(SystemConfig).parameters.items()}
# how each constructor parameter is spelled in a mask header and in [system]
HEADER_KEYS = {"N": "N", "r": "r", "dilation_unit": "nu", "normalization": "normalization"}
CONFIG_KEYS = {"N": "n", "r": "r", "dilation_unit": "dilation_unit",
               "normalization": "normalization"}


@pytest.mark.parametrize("key, text, read", [
    ("N", "3", ("N", 3)),
    ("n", "3", ("N", 3)),
    ("r", "5", ("r", 5)),
    ("nu", "2", ("dilation_unit", 2)),
    ("dilation_unit", "2", ("dilation_unit", 2)),
    ("normalization", "qn", ("normalization", "qn")),
    ("normalization", "bogus", ("normalization", "bogus")),   # the constructor refuses it
])
def test_read_option_gives_the_parameter_of_each_spelling(key, text, read):
    assert SystemConfig.read_option(key, text) == read


@pytest.mark.parametrize("key, text", [("N", "banana"), ("n", ""), ("r", "1.5"),
                                       ("nu", "x"), ("dilation_unit", "2.0")])
def test_read_option_names_a_malformed_option_as_written(key, text):
    with pytest.raises(ConfigError, match=rf"^system option {key} is malformed \("):
        SystemConfig.read_option(key, text)


def _system_of_config(path):
    """The system RunConfig.load builds from [system] when there is no mask file."""
    built = []

    def record(*args, **kwargs):
        built.append(SystemConfig(*args, **kwargs))
        return built[-1]

    with mock.patch.object(runner, "SystemConfig", wraps=SystemConfig, side_effect=record):
        assert RunConfig.load(path, need_masks=False).sys is None
    (system,) = built
    return system


@st.composite
def stated_options(draw):
    """A field and an admissible subset of the system options, stated."""
    cfg = draw(st.sampled_from(FIELDS))
    stated = {}
    if draw(st.booleans()):
        stated["N"] = draw(st.integers(1, 7))
    N = stated.get("N", DEFAULTS["N"])
    if draw(st.booleans()):
        stated["r"] = draw(st.sampled_from(
            [r for r in range(1, cfg.q * N, 2) if math.gcd(r, N) == 1]))
    # the default unit is N mod p, so an N that is 0 mod p states one
    if draw(st.booleans()) or N % cfg.p == 0:
        stated["dilation_unit"] = draw(st.integers(1, cfg.q - 1))
    if draw(st.booleans()):
        stated["normalization"] = draw(st.sampled_from(NORMALIZATIONS))
    return cfg, stated


@settings(max_examples=80, deadline=None)
@given(stated_options())
def test_mask_header_and_system_section_build_the_same_system(case):
    cfg, stated = case
    field = f"p = {cfg.p}\nc = {cfg.c}\n"
    if cfg.modulus:
        field += f"modulus = {cfg.modulus_text}\n"
    header = "".join(f"{HEADER_KEYS[k]} = {v}\n" for k, v in stated.items())
    section = "".join(f"{CONFIG_KEYS[k]} = {v}\n" for k, v in stated.items())
    masks_text = f"{MASK_MAGIC}\n{field}{header}mask 0\n0 0 1.0 0.0\n"
    with tempfile.TemporaryDirectory() as tmp:
        alone_path, crossed_path = (os.path.join(tmp, name)
                                    for name in ("alone.cfg", "crossed.cfg"))
        with open(os.path.join(tmp, "sys.masks"), "w") as fh:
            fh.write(masks_text)
        with open(alone_path, "w") as fh:
            fh.write(f"[field]\n{field}\n[system]\n{section}")
        with open(crossed_path, "w") as fh:
            fh.write(f"[masks]\nfile = sys.masks\n\n[system]\n{section}")
        from_config = _system_of_config(alone_path)
        # the section agrees with the mask file that states the same options
        crossed = RunConfig.load(crossed_path, need_masks=False).sys
    from_masks = load_masks(io.StringIO(masks_text))

    want = {**DEFAULTS, **stated}
    nu = want["dilation_unit"] if "dilation_unit" in stated else want["N"] % cfg.p
    for system in (from_masks, from_config, crossed):
        assert (system.N, system.r, system.nu, system.normalization) == \
            (want["N"], want["r"], nu, want["normalization"])
        assert system.theta == from_masks.theta
        assert system.branches == (1 if want["N"] == 1 else 2)
