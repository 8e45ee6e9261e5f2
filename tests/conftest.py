"""Shared fixtures: a fresh engine, kernel, and the tiny scale."""

import pytest

from repro.config import small, tiny
from repro.kernel import Kernel
from repro.sim.engine import Engine


@pytest.fixture
def engine():
    return Engine()


@pytest.fixture
def scale():
    return tiny()


@pytest.fixture
def small_scale():
    return small()


@pytest.fixture
def kernel(engine, scale):
    return Kernel.boot(engine, scale)


@pytest.fixture()
def server(tmp_path):
    """A live experiment server on a fresh state directory."""
    from repro.service import ExperimentServer

    with ExperimentServer(tmp_path / "state", workers=2) as instance:
        yield instance
