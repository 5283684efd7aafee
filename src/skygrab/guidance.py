"""Visual-servoing guidance and pre-detection exploration.

The servo law is PD feedback from image-plane error: yaw rate centers
the target horizontally, climb rate centers it vertically, and forward
speed regulates the known-size range estimate to a standoff. Commands
are formed in the camera frame (boresight along vehicle +x), rotated
to world by yaw, and saturated preserving horizontal direction; every
command leaves guidance in the world frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .camera import CameraIntrinsics
from .config import LimitsConfig
from .frames import Vec3, vehicle_to_world, wrap_angle
from .perception import TrackEstimate, TrackStatus
from .world import UavState, VelocityCommand


class GuidanceError(Exception):
    """Raised when no servo command can be formed (no usable track)."""


@dataclass
class GuidanceGains:
    """PD gains for the pixel-error and range-error loops."""

    kp_yaw: float = 0.01       # rad/s per px
    kd_yaw: float = 0.004      # rad/s per px/s
    kp_z: float = 0.004        # m/s per px
    kd_z: float = 0.001        # m/s per px/s
    kp_range: float = 0.8      # 1/s
    kd_range: float = 0.3      # unitless, on range rate
    r_des: float = 2.5         # standoff, m

    def __post_init__(self):
        if self.kp_yaw <= 0.0 or self.kp_z <= 0.0 or self.kp_range <= 0.0:
            raise ValueError("proportional gains must be positive")


def servo_command(
    track: TrackEstimate,
    intr: CameraIntrinsics,
    gains: GuidanceGains,
    yaw: float = 0.0,
    closing_bias: float = 0.0,
) -> VelocityCommand:
    """PD servo command from a live track, rotated to the world frame.

    yaw_rate  = kp_yaw * (W/2 - x) - kd_yaw * x_rate
    climb     = kp_z   * (H/2 - y) - kd_z   * y_rate
    forward   = kp_range * (r - r_des) + kd_range * r_rate + closing_bias

    Forward and climb are camera-frame axes; the forward mount aligns
    them with vehicle FLU, so only the rotation by the vehicle yaw (rad)
    remains, and at yaw 0 the command is the camera-frame one. The
    lateral camera-frame component is always zero: azimuth is corrected
    by yawing, not sidestepping. Raises GuidanceError on an
    uninitialized track.
    """
    if track.status is TrackStatus.UNINITIALIZED:
        raise GuidanceError("no track to servo on")
    x, y = track.pixel
    xr, yr = track.pixel_rate
    yaw_rate = gains.kp_yaw * (intr.cx - x) - gains.kd_yaw * xr
    climb = gains.kp_z * (intr.cy - y) - gains.kd_z * yr
    forward = (
        gains.kp_range * (track.range - gains.r_des) + gains.kd_range * track.range_rate
        + closing_bias
    )
    wx, wy = vehicle_to_world(forward, 0.0, yaw)
    return VelocityCommand(vx=wx, vy=wy, vz=climb, yaw_rate=yaw_rate)


def saturate(cmd: VelocityCommand, limits: LimitsConfig) -> VelocityCommand:
    """Clamp a command to the drone's limits, scaling the horizontal pair
    so its direction is preserved."""
    vx, vy = cmd.vx, cmd.vy
    h = math.hypot(vx, vy)
    if h > limits.v_xy:
        scale = limits.v_xy / h
        vx *= scale
        vy *= scale
    vz = min(max(cmd.vz, -limits.v_z), limits.v_z)
    yaw_rate = min(max(cmd.yaw_rate, -limits.yaw_rate), limits.yaw_rate)
    return VelocityCommand(vx=vx, vy=vy, vz=vz, yaw_rate=yaw_rate)


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

WAYPOINT_CAPTURE_RADIUS = 0.5
# Nose weave while flying exploration lanes, so the camera sweeps the
# ground abeam of the track.
SCAN_AMPLITUDE = 0.7  # rad
SCAN_PERIOD = 8.0  # s


def lawnmower_waypoints(
    area: tuple[float, float, float, float],
    lane_spacing: float,
    altitude: float,
) -> list[Vec3]:
    """Serpentine coverage of a rectangle (x_min, x_max, y_min, y_max).

    Lanes run along x and are spaced at most lane_spacing apart, with
    lanes on both y edges, so no point of the area is farther than half
    a lane spacing from the path.
    """
    x0, x1, y0, y1 = area
    if x1 <= x0 or y1 <= y0 or lane_spacing <= 0.0:
        raise ValueError("degenerate exploration area or lane spacing")
    n_lanes = max(2, int(math.ceil((y1 - y0) / lane_spacing)) + 1)
    pts = []
    for i, y in enumerate(np.linspace(y0, y1, n_lanes).tolist()):
        xa, xb = (x0, x1) if i % 2 == 0 else (x1, x0)
        pts += [(xa, y, altitude), (xb, y, altitude)]
    return pts


@dataclass
class ExplorePlan:
    """Progress through a lawnmower pattern; loops when exhausted."""

    waypoints: list[Vec3]
    index: int = 0
    started: bool = False

    def active_waypoint(self, position: Vec3) -> Vec3:
        """Current goal, advancing past any waypoint already reached.

        The first call enters the pattern at the nearest waypoint instead
        of a fixed corner.
        """
        if not self.started:
            self.started = True
            self.index = min(
                range(len(self.waypoints)), key=lambda i: math.dist(self.waypoints[i], position)
            )
        for _ in range(len(self.waypoints)):
            wp = self.waypoints[self.index]
            if math.dist(wp, position) > WAYPOINT_CAPTURE_RADIUS:
                return wp
            self.index = (self.index + 1) % len(self.waypoints)
        return self.waypoints[self.index]


def explore_command(
    plan: ExplorePlan,
    state: UavState,
    speed: float,
    yaw_gain: float,
    t: float,
) -> VelocityCommand:
    """World-frame velocity toward the active waypoint, nose leading.

    At time t the nose weaves sinusoidally around the track (by
    SCAN_AMPLITUDE, over SCAN_PERIOD) so the camera sweeps ground that
    lies abeam of the lanes.
    """
    wp = plan.active_waypoint(state.position)
    dx = wp[0] - state.position[0]
    dy = wp[1] - state.position[1]
    dz = wp[2] - state.position[2]
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist < 1e-9:
        return VelocityCommand()
    s = speed / dist
    yaw_des = math.atan2(dy, dx)
    yaw_des += SCAN_AMPLITUDE * math.sin(2.0 * math.pi * t / SCAN_PERIOD)
    yaw_err = wrap_angle(yaw_des - state.yaw)
    return VelocityCommand(vx=s * dx, vy=s * dy, vz=s * dz, yaw_rate=yaw_gain * yaw_err)


def bearing_error(goal: Vec3, state: UavState) -> float:
    """Yaw that turns the nose to face ``goal`` in the horizontal plane;
    0 when the goal is straight above or below."""
    dx = goal[0] - state.position[0]
    dy = goal[1] - state.position[1]
    if abs(dx) + abs(dy) > 1e-9:
        return wrap_angle(math.atan2(dy, dx) - state.yaw)
    return 0.0


def goto_command(
    target: Vec3,
    state: UavState,
    speed: float,
    yaw_gain: float,
) -> VelocityCommand:
    """World-frame velocity toward a point, yawing to face it."""
    dx = target[0] - state.position[0]
    dy = target[1] - state.position[1]
    dz = target[2] - state.position[2]
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    yaw_err = bearing_error(target, state)
    if dist < 1e-9:
        return VelocityCommand(yaw_rate=yaw_gain * yaw_err)
    s = min(speed, dist) / dist
    return VelocityCommand(vx=s * dx, vy=s * dy, vz=s * dz, yaw_rate=yaw_gain * yaw_err)
