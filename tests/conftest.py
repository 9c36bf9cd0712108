import functools

import pytest

from heckekit import CoxeterMatrix, HeckeAlgebra, build


@functools.lru_cache(maxsize=None)
def _system(name: str):
    return build(CoxeterMatrix.from_name(name))


@functools.lru_cache(maxsize=None)
def _algebra(name: str):
    return HeckeAlgebra(_system(name))


@pytest.fixture(scope="session")
def sys_of():
    """Factory returning a session-cached CoxeterSystem by type name."""
    return _system


@pytest.fixture(scope="session")
def alg_of():
    """Factory returning a session-cached HeckeAlgebra by type name."""
    return _algebra


@pytest.fixture
def step_routes(monkeypatch):
    """Counts of the packed generator steps (`HeckeAlgebra._step`) and of
    the `_gen_terms` steps taken from here on, by route."""
    calls = {"packed": 0, "exact": 0}
    step, gen_terms = HeckeAlgebra._step, HeckeAlgebra._gen_terms

    def counted_step(self, *args):
        calls["packed"] += 1
        return step(self, *args)

    def counted_gen_terms(self, *args):
        calls["exact"] += 1
        return gen_terms(self, *args)

    monkeypatch.setattr(HeckeAlgebra, "_step", counted_step)
    monkeypatch.setattr(HeckeAlgebra, "_gen_terms", counted_gen_terms)
    return calls
