"""The names the benchmark harness in perfbench/ binds in walshframes.

perfbench/tracer.py wraps the functions and methods of its SPANNED and
COUNTED lists, perfbench/child.py times the calls of WORK_CALLS on
walshframes.cli and reads the member cache `_members` of each frame
analyzer and folded system, and its resolution sweep calls the suite's
functions directly. A rename in the library breaks the benchmark and
nothing else, so these tests read perfbench's files, without running its
commands, and look each name up the way the harness does.
"""

import ast
import importlib
import importlib.util
import os

import pytest

from walshframes import cli
from walshframes.framekit import FrameAnalyzer, derive_generators
from walshframes.periodic import PeriodicSystemSpec
from walshframes.runner import RunConfig, suite_functions

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench")
CONFIGS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "configs")


def _tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", os.path.join(PERFBENCH, "tracer.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _work_calls():
    """child.py's WORK_CALLS, read from its source."""
    with open(os.path.join(PERFBENCH, "child.py")) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets if isinstance(t, ast.Name)] == ["WORK_CALLS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("child.py assigns no WORK_CALLS")


TRACER = _tracer()


@pytest.mark.parametrize("name, module, qualname", TRACER.SPANNED + TRACER.COUNTED)
def test_every_traced_name_resolves_as_the_tracer_patches_it(name, module, qualname):
    owner = importlib.import_module(module)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        # the tracer reads the method from the class __dict__, not through
        # inheritance or an alias
        assert attr in vars(getattr(owner, cls_name)), (name, qualname)
    else:
        assert callable(getattr(owner, qualname)), (name, qualname)


def test_every_work_call_is_bound_on_the_cli_module():
    calls = _work_calls()
    assert calls
    for name in calls:
        assert callable(getattr(cli, name, None)), name


def test_member_caches_and_sweep_names_are_present():
    rc = RunConfig.load(os.path.join(CONFIGS, "haar_q2.cfg"))
    gens = derive_generators(rc.sys, rc.cascade_iterations)
    analyzer = FrameAnalyzer(rc.sys, gens)
    spec = PeriodicSystemSpec(rc.sys, gens, rc.j_max)
    assert isinstance(analyzer._members, dict)
    assert isinstance(spec._members, dict)
    # the sweep: suite functions, to_step, two_scale_check and frame_ratio
    f, = (g.to_step() for g in suite_functions(rc.cfg, rc.resolution, 1, 1))
    assert analyzer.two_scale_check(f, rc.j0) >= 0.0
    assert abs(analyzer.frame_ratio(f, rc.j0, rc.j1) - 1.0) <= 1e-12
