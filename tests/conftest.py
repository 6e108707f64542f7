import numpy as np
import pytest

from movingbed.params import ModelParams, case_study, limit_params
from movingbed.spectrum import dominant_eigenvalue


@pytest.fixture(scope="session")
def cs():
    return case_study()


@pytest.fixture(scope="session")
def lp():
    return limit_params()


@pytest.fixture(scope="session")
def lam0(cs):
    # computed once; every consumer gets the full-precision root
    return dominant_eigenvalue(cs, tol=1e-12)


@pytest.fixture(scope="session")
def wide_box():
    """30 strict-port sets drawn uniformly from the whole parameter box:
    v_i +-10%, R +-25% and P +-10% around the case study."""
    rng = np.random.default_rng(0)
    cs = case_study()
    return [ModelParams(*(vi * rng.uniform(0.9, 1.1) for vi in cs.v),
                        R=cs.R * rng.uniform(0.75, 1.25),
                        P=cs.P * rng.uniform(0.9, 1.1))
            for _ in range(30)]
