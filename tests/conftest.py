import sys

import pytest


@pytest.fixture
def default_int_str_limit():
    """CPython's default 4300-digit int <-> str limit, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("interpreter has no int <-> str digit limit")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)
