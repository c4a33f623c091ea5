"""The suite's own pytest settings, run on a throwaway test file."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"


def test_failing_property_does_not_end_the_run(pytester):
    # Under a bare "error" filter, the Hypothesis plugin's report of the
    # failing example raised a DeprecationWarning, the run ended in
    # INTERNALERROR and the test after it never ran.  That test fails only
    # while numpy's overflow warning is still an error.
    path = pytester.makepyfile(
        """
        import numpy as np
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_property(n):
            assert n < 0

        def test_overflow():
            np.float64(1e308) * 10.0
        """
    )
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path), str(path)
    )
    result.assert_outcomes(failed=2)
