"""Grid-based simulator of coevolving transport networks and land use in a
two-city metropolitan region, with infrastructure decisions taken endogenously
by local mayors and a regional governor."""

from .config import CenterSpec, ConfigError, ScenarioConfig, load_config, save_config, two_city_config
from .engine import ReplicationStats, SimState, replicate, run
from .world import Metropolis, init_metropolis, mayor_weights

__version__ = "0.1.0"

__all__ = [
    "CenterSpec",
    "ConfigError",
    "Metropolis",
    "ReplicationStats",
    "ScenarioConfig",
    "SimState",
    "init_metropolis",
    "load_config",
    "mayor_weights",
    "replicate",
    "run",
    "save_config",
    "two_city_config",
]
