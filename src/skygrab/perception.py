"""Kalman tracking over image coordinates and monocular range.

One track per object with state (x, y, x_rate, y_rate, range,
range_rate) in px, px/s, m, m/s. Image x, image y and range are three
independent constant-velocity filters driven by continuous white
acceleration noise. The model and the initial covariance are
block-diagonal over the three (value, rate) pairs, so a track stores six
floats and the three pairs' 2x2 covariance blocks, and predict and update
run in closed form on each block with a scalar gain. The tracker calls no
numpy, so the estimates do not depend on the host's BLAS kernel; the 6x6
``transition_matrix``, ``process_noise``, ``measurement_cov`` and
``TrackEstimate.covariance`` are the reference model. Measurements are
the detection center plus the known-size range estimate. A chi-square
gate on the pixel innovation rejects outliers; a lifecycle layer
handles initialization near the sensor, coasting through missed
frames, and dropping stale tracks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .camera import DetectionClass, ImageDetection


class TrackStatus(enum.Enum):
    UNINITIALIZED = "uninitialized"
    TRACKING = "tracking"
    COASTING = "coasting"


@dataclass
class FilterParams:
    """Process/measurement noise and lifecycle thresholds for one track."""

    q_pixel: float = 50.0        # pixel acceleration PSD, px^2/s^3
    q_range: float = 2.0         # range acceleration PSD, m^2/s^3
    sigma_px: float = 2.0        # pixel measurement std, px
    sigma_range: float = 0.35    # range measurement std, m
    init_range: float | None = None   # only initialize below this range; None = any
    loss_timeout: float = 0.8    # s without an accepted measurement before drop
    gate_chi2: float = 9.21      # 99% chi-square, 2 dof, on the pixel innovation
    init_vel_var: float = 360000.0   # (px/s)^2; yaw ego-motion sweeps pixels fast
    init_range_rate_var: float = 9.0  # (m/s)^2

    # Floors keep R invertible in noise-free configs and give the gate
    # headroom for model error (ego-motion residuals, swing curvature).
    _R_PX_FLOOR = 1.0
    _R_RANGE_FLOOR = 0.04

    def measurement_var(self) -> tuple[float, float, float]:
        """R's diagonal: the x, y and range measurement variances."""
        var_px = max(self.sigma_px * self.sigma_px, self._R_PX_FLOOR)
        return var_px, var_px, max(self.sigma_range * self.sigma_range, self._R_RANGE_FLOOR)

    def measurement_cov(self) -> np.ndarray:
        return np.diag(self.measurement_var())


# The (value, rate) state indices of image x, image y and range.
_AXES = ((0, 2), (1, 3), (4, 5))

# One axis's covariance block, (P_pp, P_pv, P_vv); a track holds those of
# image x, image y and range.
Block = tuple[float, float, float]


def transition_matrix(dt: float) -> np.ndarray:
    F = np.eye(6)
    F[0, 2] = dt
    F[1, 3] = dt
    F[4, 5] = dt
    return F


def process_noise(dt: float, params: FilterParams) -> np.ndarray:
    """Discretized continuous-white-acceleration noise per block."""
    a = dt**3 / 3.0
    b = dt**2 / 2.0
    Q = np.zeros((6, 6))
    for (i, j, q) in ((0, 2, params.q_pixel), (1, 3, params.q_pixel), (4, 5, params.q_range)):
        Q[i, i] = q * a
        Q[i, j] = Q[j, i] = q * b
        Q[j, j] = q * dt
    return Q


@dataclass
class TrackEstimate:
    """Filter state, per-axis covariance blocks, and lifecycle status for one object."""

    cls: DetectionClass
    state: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    blocks: tuple[Block, Block, Block] = ((1.0, 0.0, 1.0),) * 3
    status: TrackStatus = TrackStatus.UNINITIALIZED
    last_update: float = -math.inf   # time of the last accepted measurement
    t: float = 0.0                   # epoch of the state estimate

    @property
    def covariance(self) -> np.ndarray:
        """The 6x6 covariance; entries between axes are zero."""
        P = np.zeros((6, 6))
        for (i, j), (a, b, c) in zip(_AXES, self.blocks):
            P[i, i], P[i, j], P[j, i], P[j, j] = a, b, b, c
        return P

    @property
    def pixel(self) -> tuple[float, float]:
        return self.state[0], self.state[1]

    @property
    def pixel_rate(self) -> tuple[float, float]:
        return self.state[2], self.state[3]

    @property
    def range(self) -> float:
        return self.state[4]

    @property
    def range_rate(self) -> float:
        return self.state[5]


def _coasting(track: TrackEstimate) -> TrackEstimate:
    return TrackEstimate(track.cls, track.state, track.blocks, TrackStatus.COASTING,
                         track.last_update, track.t)


def _predict_block(block: Block, dt: float, q: float) -> Block:
    """F P F^T + Q on one axis's block."""
    a, b, c = block
    b1 = b + dt * c
    return (a + dt * b + dt * b1 + q * (dt**3 / 3.0), b1 + q * (dt**2 / 2.0), c + q * dt)


def kf_predict(
    track: TrackEstimate,
    dt: float,
    params: FilterParams,
    ego_px_rate: float = 0.0,
) -> TrackEstimate:
    """Constant-velocity propagation of the estimate and covariance.

    Per axis, p' = p + dt v and P' = F P F^T + Q on its 2x2 block.
    ego_px_rate is the known image-x shift rate (px/s) induced by the
    camera's own yaw, applied as a control input so the filtered pixel
    velocity models scene-relative motion rather than the observer's
    rotation. Zero for a stationary camera.
    """
    if track.status is TrackStatus.UNINITIALIZED:
        raise ValueError("cannot predict an uninitialized track")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    x, y, x_rate, y_rate, r, r_rate = track.state
    block_x, block_y, block_r = track.blocks
    state = (x + dt * x_rate + ego_px_rate * dt, y + dt * y_rate, x_rate, y_rate,
             r + dt * r_rate, r_rate)
    blocks = (_predict_block(block_x, dt, params.q_pixel),
              _predict_block(block_y, dt, params.q_pixel),
              _predict_block(block_r, dt, params.q_range))
    return TrackEstimate(track.cls, state, blocks, track.status, track.last_update, track.t + dt)


def _update_axis(
    value: float, rate: float, block: Block, nu: float, s: float, r: float
) -> tuple[float, float, Block]:
    """Scalar measurement update of one axis with gain (P_pp, P_pv) / s."""
    a, b, c = block
    k_p, k_v = a / s, b / s
    return value + k_p * nu, rate + k_v * nu, (k_p * r, k_v * r, c - k_v * b)


def kf_update(
    track: TrackEstimate,
    det: ImageDetection,
    range_meas: float,
    params: FilterParams,
) -> TrackEstimate:
    """Linear measurement update on (x, y, range), one scalar update per
    axis with gain k = (P_pp, P_pv) / S.

    The pixel innovation is gated with a chi-square test; a rejected
    measurement leaves the state untouched and the track coasting
    (last_update is only advanced on acceptance).
    """
    if track.status is TrackStatus.UNINITIALIZED:
        raise ValueError("cannot update an uninitialized track")
    z_x, z_y, z_r = z = (float(det.x), float(det.y), float(range_meas))
    if not all(map(math.isfinite, z)):
        raise ValueError("non-finite measurement")

    var_x, var_y, var_r = params.measurement_var()
    x, y, x_rate, y_rate, r, r_rate = track.state
    block_x, block_y, block_r = track.blocks
    nu_x, nu_y, nu_r = z_x - x, z_y - y, z_r - r
    s_x, s_y, s_r = block_x[0] + var_x, block_y[0] + var_y, block_r[0] + var_r

    if nu_x * nu_x / s_x + nu_y * nu_y / s_y > params.gate_chi2:
        return _coasting(track)

    x, x_rate, block_x = _update_axis(x, x_rate, block_x, nu_x, s_x, var_x)
    y, y_rate, block_y = _update_axis(y, y_rate, block_y, nu_y, s_y, var_y)
    r, r_rate, block_r = _update_axis(r, r_rate, block_r, nu_r, s_r, var_r)
    return TrackEstimate(track.cls, (x, y, x_rate, y_rate, r, r_rate), (block_x, block_y, block_r),
                         TrackStatus.TRACKING, det.t, track.t)


def initialize_track(
    cls: DetectionClass,
    det: ImageDetection,
    range_meas: float,
    params: FilterParams,
    t: float,
) -> TrackEstimate:
    """Fresh track from a first detection: zero rates, configured spread."""
    var_x, var_y, var_r = params.measurement_var()
    state = (float(det.x), float(det.y), 0.0, 0.0, float(range_meas), 0.0)
    blocks = ((var_x, 0.0, params.init_vel_var), (var_y, 0.0, params.init_vel_var),
              (max(var_r, 0.25), 0.0, params.init_range_rate_var))
    return TrackEstimate(cls, state, blocks, TrackStatus.TRACKING, t, t)


def track_lifecycle(
    track: TrackEstimate,
    det: ImageDetection | None,
    range_meas: float | None,
    t: float,
    params: FilterParams,
    ego_px_rate: float = 0.0,
) -> tuple[TrackEstimate, list[str]]:
    """One vision-tick of track maintenance.

    Initializes on a detection inside the init range, predicts and
    updates live tracks, coasts through misses and gate rejections, and
    drops tracks that have coasted past the loss timeout. Returns the
    new track plus event labels for the run log.
    """
    events: list[str] = []

    if track.status is TrackStatus.UNINITIALIZED:
        if det is not None and range_meas is not None:
            if params.init_range is None or range_meas <= params.init_range:
                track = initialize_track(track.cls, det, range_meas, params, t)
                events.append("track_init")
        return track, events

    dt = t - track.t
    if dt > 0.0:
        track = kf_predict(track, dt, params, ego_px_rate=ego_px_rate)

    if det is not None and range_meas is not None:
        was_coasting = track.status is TrackStatus.COASTING
        track = kf_update(track, det, range_meas, params)
        if track.status is TrackStatus.TRACKING:
            if was_coasting:
                events.append("track_reacquired")
        else:
            events.append("measurement_rejected")
    else:
        track = _coasting(track)

    if t - track.last_update > params.loss_timeout:
        track = TrackEstimate(cls=track.cls, t=t)
        events.append("track_lost")
    return track, events


def select_target(
    drone_track: TrackEstimate,
    ball_track: TrackEstimate,
    active: DetectionClass,
    switch_range: float,
) -> DetectionClass:
    """Switch attention from the drone to the ball near the target.

    The ball becomes active once the drone track reports a range inside
    switch_range while the ball track is live; it stays active while
    the ball track is tracking or coasting and reverts only if the ball
    track is dropped.
    """
    if active is DetectionClass.BALL:
        if ball_track.status is TrackStatus.UNINITIALIZED:
            return DetectionClass.DRONE
        return active
    if (
        ball_track.status is TrackStatus.TRACKING
        and drone_track.status is not TrackStatus.UNINITIALIZED
        and drone_track.range <= switch_range
    ):
        return DetectionClass.BALL
    return active


@dataclass
class PerceptionState:
    """Per-drone perception: one track per class plus the selection latch."""

    drone_params: FilterParams
    ball_params: FilterParams
    switch_range: float
    drone_track: TrackEstimate = field(
        default_factory=lambda: TrackEstimate(cls=DetectionClass.DRONE)
    )
    ball_track: TrackEstimate = field(
        default_factory=lambda: TrackEstimate(cls=DetectionClass.BALL)
    )
    active: DetectionClass = DetectionClass.DRONE

    def vision_update(
        self,
        drone_det: ImageDetection | None,
        drone_range: float | None,
        ball_det: ImageDetection | None,
        ball_range: float | None,
        t: float,
        ego_px_rate: float = 0.0,
    ) -> list[tuple[str, str]]:
        """Run both track lifecycles and the selection rule for one frame."""
        events: list[tuple[str, str]] = []
        self.drone_track, ev = track_lifecycle(
            self.drone_track, drone_det, drone_range, t, self.drone_params,
            ego_px_rate=ego_px_rate,
        )
        events.extend((name, "drone") for name in ev)
        self.ball_track, ev = track_lifecycle(
            self.ball_track, ball_det, ball_range, t, self.ball_params,
            ego_px_rate=ego_px_rate,
        )
        events.extend((name, "ball") for name in ev)
        self.active = select_target(self.drone_track, self.ball_track, self.active,
                                    self.switch_range)
        return events

    def active_track(self) -> TrackEstimate:
        if self.active is DetectionClass.BALL:
            return self.ball_track
        return self.drone_track
