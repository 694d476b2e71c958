import numpy as np
import pytest

# the shared front helpers assert like the test modules that import them
pytest.register_assert_rewrite("factor_fronts")


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
