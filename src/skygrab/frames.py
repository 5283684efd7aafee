"""Shared frame conventions, the transforms between them, and angle helpers.

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


def body_to_world(origin: Vec3, yaw: float, offset: Vec3) -> Vec3:
    """World position of a point at ``offset`` in the FLU frame of a
    vehicle at ``origin`` and ``yaw``."""
    c, s = math.cos(yaw), math.sin(yaw)
    ox, oy, oz = offset
    return (origin[0] + c * ox - s * oy, origin[1] + s * ox + c * oy, origin[2] + oz)


def world_to_body(point: Vec3, origin: Vec3, yaw: float) -> Vec3:
    """FLU coordinates of a world point relative to a vehicle at
    ``origin`` and ``yaw``: the inverse of ``body_to_world``."""
    c, s = math.cos(yaw), math.sin(yaw)
    dx, dy = point[0] - origin[0], point[1] - origin[1]
    return (c * dx + s * dy, -s * dx + c * dy, point[2] - origin[2])
