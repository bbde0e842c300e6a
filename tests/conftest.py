import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests draw the same examples on every run and have no per-example
# deadline, which a slow or shared machine would otherwise trip.
settings.register_profile("sphereflock", deadline=None, derandomize=True)
settings.load_profile("sphereflock")

from sphereflock import ModelParams, SimConfig, paper_kernel, paper_scenario, simulate


@pytest.fixture(scope="session")
def sigma1_params():
    return ModelParams(kernel=paper_kernel(), sigma=1.0)


@pytest.fixture(scope="session")
def sigma1_traj():
    """Benchmark sigma = 1 run: t_end 80, dt 1e-3, frames every 0.01."""
    sc = paper_scenario(1.0, sim=SimConfig(dt=1e-3, t_end=80.0, frame_stride=10))
    return simulate(sc.ensemble, sc.params, sc.sim, label=sc.label)


@pytest.fixture(scope="session")
def sigma5_traj():
    sc = paper_scenario(5.0, sim=SimConfig(dt=1e-3, t_end=80.0, frame_stride=10))
    return simulate(sc.ensemble, sc.params, sc.sim, label=sc.label)
