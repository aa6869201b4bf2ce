"""Session-scoped model fixtures.

Building each model once per session keeps the suite fast: a model keeps
the exact partials of its spanning fields, its cached point batches, and
(in ``symbolic_oracles``) the symbolic oracle tables built for it.
Connection and curvature entries are computed at each point batch from
jets of the spanning fields and kept only as values in the batch, so tests
that sample new points recompute them; that is cheap, since no entry is
built symbolically.
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
def round_s3():
    return models.get_model("round-s3-unnormalized")


@pytest.fixture(scope="session")
def round_s7():
    return models.get_model("round-s7-unnormalized")


@pytest.fixture(scope="session")
def catalog_models(heis, heis_quat, heis_mixed, heis_oct, s3, s5, s7, s11,
                   round_s3, round_s7):
    """Catalog name -> built model."""
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
