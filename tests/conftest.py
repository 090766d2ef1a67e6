import pytest
from hypothesis import HealthCheck, settings

from asaf import nn

settings.register_profile(
    "default",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture()
def blas_threads():
    """(get, set) of NumPy's OpenBLAS thread count, set to 2 for the test so
    that a cap at 1 shows; the count on entry is restored afterwards."""
    pair = nn._openblas_threads()
    if pair is None:
        pytest.skip("NumPy's BLAS has no OpenBLAS thread-count setter")
    get, set_ = pair
    entry = get()
    set_(2)
    yield get, set_
    set_(entry)
