"""Workload sizes stay where the verdicts keep their meaning."""

import pytest

from cheegerdef.verify import SweepConfig
from workloads import WORKLOADS

# below this length the base-drift verdict fails for reasons of size
MIN_GEODESIC_LENGTH = 0.1
# tensor_calc.speed_drift samples every 50 steps
SPEED_DRIFT_STRIDE = 50


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_geodesic_size_keeps_the_verdicts_meaningful(name):
    keys = WORKLOADS[name].keys
    enabled = keys.get("only", "geodesic")
    if "geodesic" not in enabled:
        pytest.skip("no geodesic stage")
    length = float(keys.get("geodesic.length", SweepConfig.geodesic_length))
    step = float(keys.get("geodesic.step", SweepConfig.geodesic_step))
    assert length >= MIN_GEODESIC_LENGTH
    assert round(length / step) >= SPEED_DRIFT_STRIDE
