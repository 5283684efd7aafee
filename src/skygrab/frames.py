"""Shared frame conventions and angle helpers.

World frame is ENU (x east, y north, z up). Vehicle frame is FLU
(x forward, y left, z up) and is related to world by yaw alone: the
kinematic vehicle model never pitches or rolls. Positive yaw rotates
the nose counterclockwise seen from above.
"""

from __future__ import annotations

import math

Vec3 = tuple[float, float, float]
"""A 3-vector as a tuple of Python floats."""


def wrap_angle(a: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    return math.pi - (math.pi - a) % (2.0 * math.pi)


def vehicle_to_world(x: float, y: float, yaw: float) -> tuple[float, float]:
    """Rotate a horizontal vehicle-frame vector into the world frame."""
    c, s = math.cos(yaw), math.sin(yaw)
    return c * x - s * y, s * x + c * y


def world_to_vehicle(x: float, y: float, yaw: float) -> tuple[float, float]:
    """Rotate a horizontal world-frame vector into the vehicle frame."""
    c, s = math.cos(yaw), math.sin(yaw)
    return c * x + s * y, -s * x + c * y
