"""Shared fixtures."""

import pytest
from oracles import SHEARS, pulled_back, turning_torus

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


@pytest.fixture(scope="session")
def pulled_back_records():
    """Every catalogued scenario pulled back through its sheared chart
    (oracles.SHEARS), by catalogued id."""
    return {sid: pulled_back(get_scenario(sid), psi) for sid, psi in SHEARS.items()}


@pytest.fixture(scope="session")
def record(pulled_back_records):
    """The scenario record that a test's scenario parameter names: a
    catalogued id, a pulled-back record's id (oracles.pulled_back_ids) or
    the turning torus t2_turning (oracles.turning_torus), so that a
    catalogue-wide test opts in to the test records by adding their ids
    to its parameter."""
    by_id = {r.scenario_id: r for r in (*pulled_back_records.values(), turning_torus())}
    return lambda sid: by_id[sid] if sid in by_id else get_scenario(sid)
