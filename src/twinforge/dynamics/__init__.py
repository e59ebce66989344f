"""Fixed-timestep 6-DOF vehicle dynamics; the names below are the package's API."""

from ..documents import ConfigurationError
from .config import (
    SprungMass,
    SuspensionParams,
    PowertrainParams,
    BrakeParams,
    AeroParams,
    FootprintParams,
    VehicleConfig,
    com_properties,
    suspension_coefficients,
    default_vehicle_config,
)
from .spline import FrictionSpline
from .vehicle import SimulationFault, Vehicle, VehicleState

