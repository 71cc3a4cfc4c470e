import sys
from pathlib import Path

import pytest

from farkaskit import lp

# tests import shared oracle helpers as plain modules
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def count_pivots():
    """run(fn, *args) -> (fn(*args), the number of simplex pivots it made),
    counted by a profile hook on calls of the LP kernel's `pivot`."""

    def run(fn, *args):
        calls = 0

        def hook(frame, event, arg):
            nonlocal calls
            code = frame.f_code
            if (event == "call" and code.co_name == "pivot"
                    and code.co_filename == lp.__file__):
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            result = fn(*args)
        finally:
            sys.setprofile(previous)
        return result, calls

    return run
