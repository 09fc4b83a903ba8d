"""Shared fixtures."""

import pytest

from cheegerdef.scenarios import get_scenario, list_scenarios


@pytest.fixture(scope="session")
def s2_band():
    return get_scenario("s2_band")


@pytest.fixture(scope="session")
def warped_s2():
    return get_scenario("warped_s2")


@pytest.fixture(scope="session")
def s3_hopf():
    return get_scenario("s3_hopf")


@pytest.fixture(scope="session")
def su2_s2():
    return get_scenario("su2_s2")


@pytest.fixture(scope="session")
def t2_flat():
    return get_scenario("t2_flat")


@pytest.fixture(scope="session")
def all_scenarios():
    return tuple(get_scenario(sid) for sid in list_scenarios())
