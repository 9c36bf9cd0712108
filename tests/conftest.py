import functools

import pytest

from heckekit import CoxeterMatrix, HeckeAlgebra, build


def corrupt_entry(table, x, y, bad):
    """Fault injection into a KL table: store at x its column with the
    entry at y replaced by bad(entry), or dropped where bad returns None,
    laid out as the table lays out its own columns, the keys ascending
    in one tuple and the values in that order in another."""
    terms = dict(zip(*table[x]))
    p = bad(terms[y])
    if p is None:
        del terms[y]
    else:
        terms[y] = p
    ys = tuple(sorted(terms))
    table[x] = ys, tuple(terms[w] for w in ys)


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
