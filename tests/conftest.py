import pytest

from mdm.demos import builtin_theory


@pytest.fixture(scope="session")
def empty_theory():
    return builtin_theory("empty")


@pytest.fixture(scope="session")
def selfapp():
    return builtin_theory("selfapp")


@pytest.fixture(scope="session")
def confusion():
    return builtin_theory("confusion")


@pytest.fixture(scope="session")
def arith_toy():
    return builtin_theory("arith-toy")
