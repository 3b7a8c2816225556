import numpy as np
import pytest

from lorentzgeo.catalog import build_example


@pytest.fixture(scope="session")
def entry():
    """Factory for catalog entries, built once per session."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = build_example(name)
        return cache[name]

    return get


@pytest.fixture(scope="session")
def torus(entry):
    return entry("torus_family")


@pytest.fixture(scope="session")
def hopf(entry):
    return entry("hopf_lorentz_s3")


@pytest.fixture(scope="session")
def mink2(entry):
    return entry("minkowski2")


@pytest.fixture(scope="session")
def circle_lift_torus(entry):
    return entry("circle_lift_torus")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` replaces ``owner.name`` for the test
    with a wrapper that records each call's ``(args, kwargs)`` in the list
    it returns, then calls through."""

    def install(owner, name):
        calls = []
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return install
