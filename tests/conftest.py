"""Session set-up shared by the test modules.

The hypothesis plugin imports `libcst` while it reports a failing example,
and that import triggers `mypy_extensions`' DeprecationWarning outside any
test, where `pyproject.toml`'s filter does not apply: under
`pytest -W error` the report ends in INTERNALERROR and the falsifying
example is never printed.  Importing `libcst` here once, with that warning
ignored, leaves nothing to warn about later.

`stack_cap` runs a test at the default cap on a helper's stacks and at two
small ones: five rows of 512 points, and one row per stack.
"""

import warnings

import pytest

import snls.grid_field

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(params=[None, 5 * 16 * 512, 1], ids=["default-cap", "five-row-cap", "one-row-cap"])
def stack_cap(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(snls.grid_field, "CHUNK_STACK_BYTES", request.param)
    return request.param
