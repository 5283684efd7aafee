"""Plant models: own-vehicle kinematics, target trajectories, and the
suspended ball.

The own vehicles are velocity-command-following kinematic drones with a
first-order lag (the autopilot's velocity loop is abstracted away). The
target vehicle follows an analytic pattern exactly. The ball hangs from
the target on a rigid rod and behaves as a spherical pendulum with a
moving pivot, linear angular damping, and an external wind force applied
at the bob.

The ball's state is the unit rod direction u (pivot to bob) and its rate
u'; u = (0, 0, -1) is the hanging equilibrium. The angles theta (from
straight down) and phi (azimuth), u = (sin(theta)cos(phi),
sin(theta)sin(phi), -cos(theta)), only build a state and are read back
for the log. Once detached, the ball rides in the capture basket and has
no dynamics of its own.

Every 3-vector (position, velocity, force) is a tuple of Python floats,
``frames.Vec3``; the functions accept any 3-sequence as input.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .config import LimitsConfig
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


def step_uav(
    state: UavState,
    cmd: VelocityCommand,
    tau: float,
    limits: LimitsConfig,
    dt: float,
    steps: int = 1,
) -> UavState:
    """Advance one vehicle by ``steps`` steps of dt under a held velocity
    command.

    Each step, the velocity relaxes toward the commanded value with a
    first-order lag of time constant tau (s), v' = v + (dt/tau)(v_cmd - v),
    is then saturated to the drone's ``limits`` (m/s and rad/s), and
    the position is integrated with the updated velocity (semi-implicit
    Euler). Yaw integrates the rate-limited yaw-rate command directly.
    ``steps`` steps in one call equal as many chained one-step calls,
    bit for bit.

    Computes on Python floats read once from the input state, which is
    left unchanged; returns a new state.

    Raises ValueError for a non-positive dt, fewer than one step or a
    non-finite command.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    isfinite = math.isfinite
    if not (
        isfinite(cmd.vx) and isfinite(cmd.vy) and isfinite(cmd.vz) and isfinite(cmd.yaw_rate)
    ):
        raise ValueError("non-finite velocity command rejected")
    cx, cy, cz = cmd.vx, cmd.vy, cmd.vz
    a = dt / tau
    v_max_xy, v_max_z = limits.v_xy, limits.v_z
    # Clamps written out; they equal min(max(x, -limit), limit).
    rate, rate_max = cmd.yaw_rate, limits.yaw_rate
    if rate < -rate_max:
        rate = -rate_max
    if rate > rate_max:
        rate = rate_max
    hypot = math.hypot

    vx, vy, vz = state.velocity
    px, py, pz = state.position
    yaw = state.yaw
    for _ in range(steps):
        vx = vx + a * (cx - vx)
        vy = vy + a * (cy - vy)
        vz = vz + a * (cz - vz)
        h = hypot(vx, vy)
        if h > v_max_xy:
            scale = v_max_xy / h
            vx *= scale
            vy *= scale
        if vz < -v_max_z:
            vz = -v_max_z
        if vz > v_max_z:
            vz = v_max_z
        yaw = wrap_angle(yaw + dt * rate)
        px = px + dt * vx
        py = py + dt * vy
        pz = pz + dt * vz
    return UavState((px, py, pz), (vx, vy, vz), yaw, rate)


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

@dataclass(init=False)
class BallState:
    """Unit rod direction ``u``, its rate ``du``, and whether the ball
    still hangs from its rod. Built from the angles and their rates,
    converted once; ``BallState()`` hangs at rest."""

    u: Vec3
    du: Vec3
    attached: bool

    def __init__(self, theta=0.0, phi=0.0, theta_dot=0.0, phi_dot=0.0, attached=True):
        sth, cth = math.sin(theta), math.cos(theta)
        sph, cph = math.sin(phi), math.cos(phi)
        td, pd = theta_dot, phi_dot
        self.u = (sth * cph, sth * sph, -cth)
        self.du = (td * cth * cph - pd * sth * sph, td * cth * sph + pd * sth * cph, td * sth)
        self.attached = attached

    @classmethod
    def _of(cls, u: Vec3, du: Vec3, attached: bool = True) -> "BallState":
        """The state of rod vector u and rate du, taken as they are."""
        ball = cls.__new__(cls)
        ball.u, ball.du, ball.attached = u, du, attached
        return ball

    @property
    def theta(self) -> float:
        ux, uy, uz = self.u
        return math.atan2(math.hypot(ux, uy), -uz)

    @property
    def phi(self) -> float:
        ux, uy, _ = self.u
        return math.atan2(uy, ux)


@dataclass
class BallParams:
    length: float = 1.5       # rod length, m
    diameter: float = 0.18    # ball diameter, m
    mass: float = 0.1         # kg
    damping: float = 0.05     # angular damping, 1/s
    gravity: float = GRAVITY


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
    and linear damping. Integration runs on the rod direction and its
    rate, which are the state, so it is free of the polar-coordinate
    singularity at the vertical.

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

    # Apparent specific force A at the bob, and A/L, which every stage uses.
    m = params.mass
    wx, wy, wz = wind_force
    sx, sy, sz = support_accel
    ax, ay, az = wx / m - sx, wy / m - sy, wz / m - sz - params.gravity
    L, c = params.length, params.damping
    alx, aly, alz = ax / L, ay / L, az / L

    ux, uy, uz = ball.u
    dx, dy, dz = ball.du
    h, h6 = 0.5 * dt, dt / 6.0

    # Classic RK4 on (u, u'); the rate of u at each stage is that stage's
    # u', so k1u = du, k2u = d2, k3u = d3, k4u = d4, and stages 2-4 sit
    # at the point q. Each stage's u'' is the rigid-rod constrained point
    # under A:
    #   u'' = A/L - ((A.u)/L + |u'|^2) u - c u'
    # The radial multiplier keeps |u| = 1; damping acts on the swing rate.
    lam = (ax * ux + ay * uy + az * uz) / L + (dx * dx + dy * dy + dz * dz)
    a1x, a1y, a1z = alx - lam * ux - c * dx, aly - lam * uy - c * dy, alz - lam * uz - c * dz
    d2x, d2y, d2z = dx + h * a1x, dy + h * a1y, dz + h * a1z
    qx, qy, qz = ux + h * dx, uy + h * dy, uz + h * dz
    lam = (ax * qx + ay * qy + az * qz) / L + (d2x * d2x + d2y * d2y + d2z * d2z)
    a2x, a2y, a2z = alx - lam * qx - c * d2x, aly - lam * qy - c * d2y, alz - lam * qz - c * d2z
    d3x, d3y, d3z = dx + h * a2x, dy + h * a2y, dz + h * a2z
    qx, qy, qz = ux + h * d2x, uy + h * d2y, uz + h * d2z
    lam = (ax * qx + ay * qy + az * qz) / L + (d3x * d3x + d3y * d3y + d3z * d3z)
    a3x, a3y, a3z = alx - lam * qx - c * d3x, aly - lam * qy - c * d3y, alz - lam * qz - c * d3z
    d4x, d4y, d4z = dx + dt * a3x, dy + dt * a3y, dz + dt * a3z
    qx, qy, qz = ux + dt * d3x, uy + dt * d3y, uz + dt * d3z
    lam = (ax * qx + ay * qy + az * qz) / L + (d4x * d4x + d4y * d4y + d4z * d4z)
    a4x, a4y, a4z = alx - lam * qx - c * d4x, aly - lam * qy - c * d4y, alz - lam * qz - c * d4z

    nx = ux + h6 * (dx + 2.0 * d2x + 2.0 * d3x + d4x)
    ny = uy + h6 * (dy + 2.0 * d2y + 2.0 * d3y + d4y)
    nz = uz + h6 * (dz + 2.0 * d2z + 2.0 * d3z + d4z)
    mx = dx + h6 * (a1x + 2.0 * a2x + 2.0 * a3x + a4x)
    my = dy + h6 * (a1y + 2.0 * a2y + 2.0 * a3y + a4y)
    mz = dz + h6 * (a1z + 2.0 * a2z + 2.0 * a3z + a4z)

    # Re-project onto the constraint manifold (|u| = 1, u' tangent). The
    # powers stay: ``**`` raises OverflowError where a product gives inf,
    # and the engine ends such a run invalid.
    norm = math.sqrt(nx ** 2 + ny ** 2 + nz ** 2)
    nx, ny, nz = nx / norm, ny / norm, nz / norm
    radial = mx * nx + my * ny + mz * nz
    return BallState._of((nx, ny, nz), (mx - radial * nx, my - radial * ny, mz - radial * nz))


def ball_world_position(support, ball: BallState, length: float) -> Vec3:
    """Bob position for an attached ball: support + L * rod direction."""
    ux, uy, uz = ball.u
    sx, sy, sz = support
    return (sx + length * ux, sy + length * uy, sz + length * uz)


def ball_world_velocity(support_velocity, ball: BallState, length: float) -> Vec3:
    """Bob velocity for an attached ball: pivot velocity + L * rod rate."""
    dx, dy, dz = ball.du
    vx, vy, vz = support_velocity
    return (vx + length * dx, vy + length * dy, vz + length * dz)


def pendulum_energy(ball: BallState, params: BallParams) -> float:
    """Mechanical energy of the attached pendulum about a stationary pivot."""
    L, m, g = params.length, params.mass, params.gravity
    dx, dy, dz = ball.du
    kinetic = 0.5 * m * L * L * (dx * dx + dy * dy + dz * dz)
    potential = m * g * L * (1.0 + ball.u[2])
    return kinetic + potential


def detach(ball: BallState) -> BallState:
    """Release the ball from its rod."""
    return BallState._of(ball.u, ball.du, attached=False)


# Rows of wind noise drawn per refill: few enough that memory stays flat,
# enough that the draw's call cost vanishes per step.
_WIND_BLOCK = 256


@dataclass
class OrnsteinUhlenbeckWind:
    """Per-axis OU wind force acting on the ball bob.

    dW = (mean - W) dt/tau + sigma sqrt(2 dt/tau) N(0,1), which has
    stationary standard deviation sigma per axis.

    ``step`` draws its normal deviates from ``rng``, the wind's own
    stream, a block of rows ahead at a time. ``standard_normal((n, 3))``
    yields exactly the draws of n calls of ``standard_normal(3)``, so the
    forces equal one draw per step, provided nothing else draws from
    ``rng``: it would see the block's draws gone.
    """

    mean: Vec3 = (0.0, 0.0, 0.0)
    sigma: float = 0.0
    tau: float = 2.0
    force: Vec3 = (0.0, 0.0, 0.0)
    rng: np.random.Generator = field(kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        self._rows: list[list[float]] = []
        self._next = 0

    def step(self, dt: float) -> Vec3:
        i = self._next
        if i == len(self._rows):
            self._rows = self.rng.standard_normal((_WIND_BLOCK, 3)).tolist()
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
