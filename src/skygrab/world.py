"""Plant models: own-vehicle kinematics, target trajectories, and the
suspended ball.

The own vehicles are velocity-command-following kinematic drones with a
first-order lag (the autopilot's velocity loop is abstracted away). The
target vehicle follows an analytic pattern exactly. The ball hangs from
the target on a rigid rod and behaves as a spherical pendulum with a
moving pivot, linear angular damping, and an external wind force applied
at the bob.

Angles: theta is the deflection from straight down, phi the azimuth of
the deflection in the world frame. Bob position relative to the pivot is

    L * (sin(theta)cos(phi), sin(theta)sin(phi), -cos(theta))

so theta = 0 is the hanging equilibrium. Once detached, the ball rides
in the capture basket and has no dynamics of its own.

Every 3-vector (position, velocity, force) is a tuple of Python floats,
``frames.Vec3``; the functions accept any 3-sequence as input.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .frames import Vec3, wrap_angle

GRAVITY = 9.81


@dataclass
class VelocityCommand:
    """World-frame velocity and yaw-rate setpoint."""

    vx: float = 0.0
    vy: float = 0.0
    vz: float = 0.0
    yaw_rate: float = 0.0

    def is_finite(self) -> bool:
        return all(
            math.isfinite(v) for v in (self.vx, self.vy, self.vz, self.yaw_rate)
        )


@dataclass
class UavState:
    """Pose and velocity of one vehicle in the world frame."""

    position: Vec3
    velocity: Vec3
    yaw: float = 0.0
    yaw_rate: float = 0.0

    @classmethod
    def at(cls, x: float, y: float, z: float, yaw: float = 0.0) -> "UavState":
        return cls((float(x), float(y), float(z)), (0.0, 0.0, 0.0), wrap_angle(yaw))


@dataclass
class UavParams:
    """First-order velocity-lag model and its physical limits."""

    tau: float = 0.4            # velocity loop time constant, s
    v_max_xy: float = 3.0       # horizontal speed limit, m/s
    v_max_z: float = 1.5        # climb/descent limit, m/s
    yaw_rate_max: float = 1.5   # rad/s


def step_uav(state: UavState, cmd: VelocityCommand, params: UavParams, dt: float) -> UavState:
    """Advance one vehicle by dt under a velocity command.

    The velocity relaxes toward the commanded value with a first-order
    lag, v' = v + (dt/tau)(v_cmd - v), is then saturated, and the position
    is integrated with the updated velocity (semi-implicit Euler). Yaw
    integrates the rate-limited yaw-rate command directly.

    Computes on Python floats read once from the input state, which is
    left unchanged; returns a new state.

    Raises ValueError for non-finite commands.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    isfinite = math.isfinite
    if not (
        isfinite(cmd.vx) and isfinite(cmd.vy) and isfinite(cmd.vz) and isfinite(cmd.yaw_rate)
    ):
        raise ValueError("non-finite velocity command rejected")
    cx, cy, cz = cmd.vx, cmd.vy, cmd.vz

    v0x, v0y, v0z = state.velocity
    a = dt / params.tau
    vx = v0x + a * (cx - v0x)
    vy = v0y + a * (cy - v0y)
    vz = v0z + a * (cz - v0z)

    h = math.hypot(vx, vy)
    if h > params.v_max_xy:
        scale = params.v_max_xy / h
        vx *= scale
        vy *= scale
    # Clamps written out; they equal min(max(x, -limit), limit).
    v_max_z = params.v_max_z
    if vz < -v_max_z:
        vz = -v_max_z
    if vz > v_max_z:
        vz = v_max_z
    rate, rate_max = cmd.yaw_rate, params.yaw_rate_max
    if rate < -rate_max:
        rate = -rate_max
    if rate > rate_max:
        rate = rate_max
    yaw = wrap_angle(state.yaw + dt * rate)

    px, py, pz = state.position
    return UavState((px + dt * vx, py + dt * vy, pz + dt * vz), (vx, vy, vz), yaw, rate)


# ---------------------------------------------------------------------------
# Target trajectory patterns
# ---------------------------------------------------------------------------

class PatternKind(enum.Enum):
    STATIC_HOVER = "static_hover"
    STRAIGHT_LINE = "straight_line"
    FIGURE_EIGHT = "figure_eight"


# Integral of sqrt(cos^2 u + cos^2 2u) over one period, 0..2*pi (the
# lemniscate's arc length per unit extent), by the trapezoid rule on
# 200,001 points; tests/test_world.py recomputes it. Used to normalize
# the parameter rate so the path speed averages the configured value.
_GERONO_C = 6.097223470104916


@dataclass
class TrajectoryPattern:
    """Analytic target-vehicle trajectory.

    The figure-eight is a Gerono lemniscate, x = A sin(w t),
    y = A sin(w t) cos(w t) in the heading-aligned frame, with the
    parameter rate w chosen so the path speed averages `speed`.

    The fields are fixed after construction: the parameter rate, the
    heading's cosine and sine and the constant parts of the pose are
    derived from them once.
    """

    kind: PatternKind
    center: Vec3
    heading: float = 0.0
    speed: float = 0.0
    extent: float = 4.0
    omega: float = field(init=False, default=0.0)

    def __post_init__(self):
        self.center = tuple(float(v) for v in self.center)
        if self.speed < 0.0:
            raise ValueError("pattern speed must be >= 0")
        if self.kind is PatternKind.FIGURE_EIGHT:
            if self.extent <= 0.0:
                raise ValueError("figure_eight extent must be > 0")
            self.omega = 2.0 * math.pi * self.speed / (self.extent * _GERONO_C)
        ch, sh = math.cos(self.heading), math.sin(self.heading)
        self._axes = (ch, sh)
        self._static_pose = (self.center, (0.0, 0.0, 0.0))
        self._line_velocity = (ch * self.speed, sh * self.speed, 0.0)

    @property
    def period(self) -> float:
        """Lemniscate lap time; inf for non-periodic patterns."""
        if self.kind is PatternKind.FIGURE_EIGHT and self.omega > 0.0:
            return 2.0 * math.pi / self.omega
        return math.inf


_NAN3 = (math.nan, math.nan, math.nan)


def target_pose(pattern: TrajectoryPattern, t: float) -> tuple[Vec3, Vec3]:
    """Target position and exact velocity at time t >= 0."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    kind = pattern.kind
    if kind is PatternKind.STATIC_HOVER:
        return pattern._static_pose
    ch, sh = pattern._axes
    cx, cy, cz = pattern.center
    if kind is PatternKind.STRAIGHT_LINE:
        d = pattern.speed * t
        return (cx + ch * d, cy + sh * d, cz + 0.0), pattern._line_velocity
    a, w = pattern.extent, pattern.omega
    if not math.isfinite(2.0 * w * t):  # sin and cos raise on it; a NaN pose ends the run
        return _NAN3, _NAN3
    s, c = math.sin(w * t), math.cos(w * t)
    x = a * s
    y = a * s * c
    vx = a * w * c
    vy = a * w * math.cos(2.0 * w * t)
    pos = (cx + (ch * x - sh * y), cy + (sh * x + ch * y), cz + 0.0)
    vel = (ch * vx - sh * vy, sh * vx + ch * vy, 0.0)
    return pos, vel


# ---------------------------------------------------------------------------
# Suspended ball
# ---------------------------------------------------------------------------

@dataclass
class BallState:
    """Spherical-pendulum angles and rates, and whether the ball still
    hangs from its rod."""

    theta: float = 0.0
    phi: float = 0.0
    theta_dot: float = 0.0
    phi_dot: float = 0.0
    attached: bool = True


@dataclass
class BallParams:
    length: float = 1.5       # rod length, m
    diameter: float = 0.18    # ball diameter, m
    mass: float = 0.1         # kg
    damping: float = 0.05     # angular damping, 1/s
    gravity: float = GRAVITY


def _rod_vector_state(ball: BallState):
    # Angles to rod direction u and its rate; u points pivot -> bob.
    sth, cth = math.sin(ball.theta), math.cos(ball.theta)
    sph, cph = math.sin(ball.phi), math.cos(ball.phi)
    td, pd = ball.theta_dot, ball.phi_dot
    u = (sth * cph, sth * sph, -cth)
    du = (
        td * cth * cph - pd * sth * sph,
        td * cth * sph + pd * sth * cph,
        td * sth,
    )
    return u, du


def _angles_from_rod(u, du, prev_phi: float):
    ux, uy, uz = u
    s = math.hypot(ux, uy)
    theta = math.atan2(s, -uz)
    if s > 1e-12:
        phi = math.atan2(uy, ux)
        cph, sph = ux / s, uy / s
        phi_dot = (-du[0] * sph + du[1] * cph) / s
    else:
        # Hanging vertically: azimuth is degenerate, keep the previous one.
        phi = prev_phi
        cph, sph = math.cos(phi), math.sin(phi)
        phi_dot = 0.0
    cth = -uz
    theta_dot = du[0] * cth * cph + du[1] * cth * sph + du[2] * s
    return theta, phi, theta_dot, phi_dot


def _rod_accel(u, du, A, length, damping):
    # Rigid-rod constrained point under apparent specific force A:
    #   u'' = A/L - ((A.u)/L + |u'|^2) u - c u'
    # The radial multiplier keeps |u| = 1; damping acts on the swing rate.
    ux, uy, uz = u
    dux, duy, duz = du
    a_dot_u = A[0] * ux + A[1] * uy + A[2] * uz
    lam = a_dot_u / length + (dux * dux + duy * duy + duz * duz)
    return (
        A[0] / length - lam * ux - damping * dux,
        A[1] / length - lam * uy - damping * duy,
        A[2] / length - lam * uz - damping * duz,
    )


def step_ball(
    ball: BallState,
    support_accel,
    wind_force,
    params: BallParams,
    dt: float,
) -> BallState:
    """Advance the ball by dt.

    While attached, integrates the spherical pendulum with RK4 under
    gravity, the moving-pivot pseudo-force, the wind force at the bob,
    and linear damping. Integration runs on the rod direction vector
    (free of the polar-coordinate singularity at the vertical) and maps
    back to the angle state.

    ``support_accel`` and ``wind_force`` are any 3-sequences; the RK4
    stages run on Python floats. The input state is left unchanged and
    a new one is returned.

    Raises ValueError for a detached ball: it rides in the basket and
    has no dynamics of its own.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not ball.attached:
        raise ValueError("a detached ball is not integrated")

    m = params.mass
    wx, wy, wz = wind_force
    sx, sy, sz = support_accel
    A = (wx / m - sx, wy / m - sy, wz / m - sz - params.gravity)
    L, c = params.length, params.damping
    u, du = _rod_vector_state(ball)
    ux, uy, uz = u
    dx, dy, dz = du
    h, h6 = 0.5 * dt, dt / 6.0

    # Classic RK4 on (u, u'); the rate of u at each stage is that
    # stage's u', so k1u = du, k2u = d2, k3u = d3, k4u = d4.
    a1x, a1y, a1z = _rod_accel(u, du, A, L, c)
    d2 = (dx + h * a1x, dy + h * a1y, dz + h * a1z)
    a2x, a2y, a2z = _rod_accel((ux + h * dx, uy + h * dy, uz + h * dz), d2, A, L, c)
    d3 = (dx + h * a2x, dy + h * a2y, dz + h * a2z)
    a3x, a3y, a3z = _rod_accel((ux + h * d2[0], uy + h * d2[1], uz + h * d2[2]), d3, A, L, c)
    d4 = (dx + dt * a3x, dy + dt * a3y, dz + dt * a3z)
    a4x, a4y, a4z = _rod_accel((ux + dt * d3[0], uy + dt * d3[1], uz + dt * d3[2]), d4, A, L, c)

    nx = ux + h6 * (dx + 2.0 * d2[0] + 2.0 * d3[0] + d4[0])
    ny = uy + h6 * (dy + 2.0 * d2[1] + 2.0 * d3[1] + d4[1])
    nz = uz + h6 * (dz + 2.0 * d2[2] + 2.0 * d3[2] + d4[2])
    mx = dx + h6 * (a1x + 2.0 * a2x + 2.0 * a3x + a4x)
    my = dy + h6 * (a1y + 2.0 * a2y + 2.0 * a3y + a4y)
    mz = dz + h6 * (a1z + 2.0 * a2z + 2.0 * a3z + a4z)

    # Re-project onto the constraint manifold (|u| = 1, u' tangent).
    norm = math.sqrt(nx ** 2 + ny ** 2 + nz ** 2)
    nx, ny, nz = nx / norm, ny / norm, nz / norm
    radial = mx * nx + my * ny + mz * nz
    theta, phi, theta_dot, phi_dot = _angles_from_rod(
        (nx, ny, nz), (mx - radial * nx, my - radial * ny, mz - radial * nz), ball.phi
    )
    return BallState(theta, phi, theta_dot, phi_dot)


def ball_world_position(support, ball: BallState, length: float) -> Vec3:
    """Bob position for an attached ball: support + L * rod direction."""
    sth, cth = math.sin(ball.theta), math.cos(ball.theta)
    sph, cph = math.sin(ball.phi), math.cos(ball.phi)
    sx, sy, sz = support
    return (sx + length * sth * cph, sy + length * sth * sph, sz - length * cth)


def ball_world_velocity(support_velocity, ball: BallState, length: float) -> Vec3:
    """Bob velocity for an attached ball (pivot velocity plus rod swing)."""
    sth, cth = math.sin(ball.theta), math.cos(ball.theta)
    sph, cph = math.sin(ball.phi), math.cos(ball.phi)
    td, pd = ball.theta_dot, ball.phi_dot
    vx, vy, vz = support_velocity
    return (
        vx + length * (td * cth * cph - pd * sth * sph),
        vy + length * (td * cth * sph + pd * sth * cph),
        vz + length * td * sth,
    )


def pendulum_energy(ball: BallState, params: BallParams) -> float:
    """Mechanical energy of the attached pendulum about a stationary pivot."""
    L, m, g = params.length, params.mass, params.gravity
    sth = math.sin(ball.theta)
    kinetic = 0.5 * m * L * L * (ball.theta_dot**2 + sth * sth * ball.phi_dot**2)
    potential = m * g * L * (1.0 - math.cos(ball.theta))
    return kinetic + potential


def detach_check(pull_force: float, threshold: float) -> bool:
    """True when the applied pull meets the release threshold (inclusive)."""
    if pull_force < 0.0:
        raise ValueError("pull_force must be >= 0")
    return pull_force >= threshold


def detach(ball: BallState) -> BallState:
    """Release the ball from its rod."""
    return replace(ball, attached=False)


# Rows of wind noise drawn per refill: few enough that memory stays flat,
# enough that the draw's call cost vanishes per step.
_WIND_BLOCK = 256


@dataclass
class OrnsteinUhlenbeckWind:
    """Per-axis OU wind force acting on the ball bob.

    dW = (mean - W) dt/tau + sigma sqrt(2 dt/tau) N(0,1), which has
    stationary standard deviation sigma per axis.

    ``step`` draws its normal deviates ahead, a block of rows at a time,
    from the generator it is given. ``standard_normal((n, 3))`` yields
    exactly the draws of n calls of ``standard_normal(3)``, so the forces
    equal one draw per step, provided the generator is this wind's
    alone: anything else drawing from it would see the block's draws
    gone. Handing ``step`` another generator discards the unused rest of
    the block and starts drawing from the new one.
    """

    mean: Vec3 = (0.0, 0.0, 0.0)
    sigma: float = 0.0
    tau: float = 2.0
    force: Vec3 = (0.0, 0.0, 0.0)

    def __post_init__(self):
        self._rng = None
        self._rows: list[list[float]] = []
        self._next = 0

    def step(self, rng: np.random.Generator, dt: float) -> Vec3:
        i = self._next
        if rng is not self._rng or i == len(self._rows):
            self._rng = rng
            self._rows = rng.standard_normal((_WIND_BLOCK, 3)).tolist()
            i = 0
        self._next = i + 1
        nx, ny, nz = self._rows[i]
        fx, fy, fz = self.force
        mx, my, mz = self.mean
        a = dt / self.tau
        s = self.sigma * math.sqrt(2.0 * a)
        # Component-wise in the order of f + (mean - f) * a + s * noise.
        self.force = (
            fx + (mx - fx) * a + s * nx, fy + (my - fy) * a + s * ny, fz + (mz - fz) * a + s * nz
        )
        return self.force
