import pytest

from e8lie.pipeline import build_pipeline


@pytest.fixture(scope="session")
def pipe():
    return build_pipeline()


@pytest.fixture(scope="session")
def gammas(pipe):
    return pipe.gammas


@pytest.fixture(scope="session")
def spinors(pipe):
    return pipe.spinors


@pytest.fixture(scope="session")
def tensor(pipe):
    return pipe.tensor


@pytest.fixture(scope="session")
def rep(pipe):
    return pipe.rep


@pytest.fixture(scope="session")
def cartan(pipe):
    return pipe.cartan


@pytest.fixture(scope="session")
def root_system(pipe):
    return pipe.root_system


@pytest.fixture(scope="session")
def region(pipe):
    return pipe.region


@pytest.fixture(scope="session")
def engine(pipe):
    return pipe.engine


@pytest.fixture(scope="session")
def cartan_matrices(root_system, rep):
    """The torus axis generators as real matrices (true values)."""
    axes = zip(root_system.axis_flats, root_system.axis_sign)
    return [sign * (rep.dense(flat) / 2.0) for flat, sign in axes]
