"""Session-scoped model fixtures.

Models keep their two-index symbolic tables (brackets, connection, torsion)
internally, and vertical rescalings share those tables, so building each
model once per session keeps the suite fast.  Three-index tensors are cached
only as values per point batch, so tests that sample new points rebuild
them.
"""

import pytest

from htfoliation import models


@pytest.fixture(scope="session")
def heis():
    return models.get_model("heisenberg")


@pytest.fixture(scope="session")
def heis_quat():
    return models.get_model("heisenberg-quat")


@pytest.fixture(scope="session")
def heis_mixed():
    return models.get_model("heisenberg-quat-mixed")


@pytest.fixture(scope="session")
def heis_oct():
    return models.get_model("heisenberg-oct")


@pytest.fixture(scope="session")
def s3():
    return models.get_model("complex-hopf-s3")


@pytest.fixture(scope="session")
def s5():
    return models.get_model("complex-hopf-s5")


@pytest.fixture(scope="session")
def s7():
    return models.get_model("quaternionic-hopf-s7")


@pytest.fixture(scope="session")
def s11():
    return models.get_model("quaternionic-hopf-s11")


@pytest.fixture(scope="session")
def round_s3(s3):
    return s3.with_epsilon(1.0)


@pytest.fixture(scope="session")
def round_s7(s7):
    return s7.with_epsilon(1.0)


@pytest.fixture(scope="session")
def catalog_models(heis, heis_quat, heis_mixed, heis_oct, s3, s5, s7, s11,
                   round_s3, round_s7):
    """Catalog name -> built model, with rescalings sharing cached tables."""
    return {
        "heisenberg": heis,
        "heisenberg-quat": heis_quat,
        "heisenberg-quat-mixed": heis_mixed,
        "heisenberg-oct": heis_oct,
        "complex-hopf-s3": s3,
        "complex-hopf-s5": s5,
        "quaternionic-hopf-s7": s7,
        "quaternionic-hopf-s11": s11,
        "round-s3-unnormalized": round_s3,
        "round-s7-unnormalized": round_s7,
    }
