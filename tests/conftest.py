import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "numeric", deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
settings.load_profile("numeric")

from curvedfield.geometry import Geometry


@pytest.fixture(scope="session")
def geometries():
    return {
        "open": Geometry.open(-1.0),
        "flat": Geometry.flat(),
        "closed": Geometry.closed(1.0),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)
