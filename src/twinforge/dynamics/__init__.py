"""Fixed-timestep 6-DOF vehicle dynamics."""

from .config import (
    ConfigurationError,
    SprungMass,
    SuspensionParams,
    PowertrainParams,
    SteeringParams,
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

__all__ = [
    "AeroParams",
    "BrakeParams",
    "ConfigurationError",
    "FootprintParams",
    "FrictionSpline",
    "PowertrainParams",
    "SimulationFault",
    "SprungMass",
    "SteeringParams",
    "SuspensionParams",
    "Vehicle",
    "VehicleConfig",
    "VehicleState",
    "com_properties",
    "default_vehicle_config",
    "suspension_coefficients",
]
