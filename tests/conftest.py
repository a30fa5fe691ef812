import os

# One BLAS thread, set before numpy loads: the acceptance searches solve many
# tiny systems, and extra OpenBLAS threads on a shared host slow them
# several-fold.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from nsgate import klm_design


@pytest.fixture(scope="session")
def klm_optimum():
    """Canonical 3-mode design at the probability optimum, with its scheme."""
    design = klm_design(2**-0.25, 2**-0.25)
    return design, design.scheme()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
