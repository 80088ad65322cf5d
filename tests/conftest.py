import dataclasses

import pytest

from wienerlab import EpsilonGrid, catalog_build, linear_functional


@pytest.fixture(scope="session")
def f31():
    return catalog_build("thm31", a=2.0)


@pytest.fixture(scope="session")
def f33():
    return catalog_build("thm33", eta=1e-4, mu=2e-4)


@pytest.fixture(scope="session")
def flin():
    return linear_functional()


@pytest.fixture(scope="session")
def grid():
    return EpsilonGrid.default()


def parts(fam, part):
    """The part ("support", "right" or "origin") of each row's Ends of fam."""
    return tuple(ends and getattr(ends, part) for ends in fam.ends)


def without(fam, part):
    """fam with the part ("support", "right" or "origin") of each row's Ends
    undeclared, and the other two parts kept."""
    return dataclasses.replace(fam, ends=tuple(ends and dataclasses.replace(ends, **{part: None})
                                               for ends in fam.ends))
