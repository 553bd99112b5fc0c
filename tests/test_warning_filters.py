"""The pytest warning filters of pyproject.toml, as a test sees them."""

import warnings

import pytest


def _warn(category, module):
    warnings.warn_explicit("probe", category, f"{module.replace('.', '/')}.py", 1,
                           module=module)


@pytest.mark.parametrize("module", ["walshframes.stepfn", "walshframes", "numpy",
                                    "numpy.linalg", "tests.test_stepfn"])
@pytest.mark.parametrize("category", [DeprecationWarning, RuntimeWarning])
def test_deprecation_and_runtime_warnings_are_errors(module, category):
    with pytest.raises(category):
        _warn(category, module)


@pytest.mark.parametrize("module", ["libcst", "libcst.metadata.type_inference_provider"])
def test_libcst_deprecation_warnings_are_ignored(module):
    # hypothesis imports libcst while it reports a falsifying example
    _warn(DeprecationWarning, module)
    with pytest.raises(RuntimeWarning):
        _warn(RuntimeWarning, module)


@pytest.mark.parametrize("category", [ResourceWarning,
                                      pytest.PytestUnraisableExceptionWarning])
def test_a_leaked_resource_is_an_error(category):
    # a file a test leaves open warns when it is collected
    with pytest.raises(category):
        _warn(category, "tests.test_cli")
