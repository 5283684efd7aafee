"""Kalman tracking over image coordinates and monocular range.

One track per object with state (x, y, x_rate, y_rate, range,
range_rate) in px, px/s, m, m/s. Image x, image y and range are three
independent constant-velocity filters driven by continuous white
acceleration noise: the model (``transition_matrix``, ``process_noise``,
``measurement_cov``) and the initial covariance are block-diagonal over
the three (value, rate) pairs, so predict and update run in closed form
on each pair's 2x2 block with a scalar gain, and the covariance between
axes stays exactly zero. No matrix product or solve runs here, so the
estimates do not depend on the host's BLAS kernel. Measurements are
the detection center plus the known-size range estimate. A chi-square
gate on the pixel innovation rejects outliers; a lifecycle layer
handles initialization near the sensor, coasting through missed
frames, and dropping stale tracks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

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

    def measurement_cov(self) -> np.ndarray:
        return np.diag(
            [
                max(self.sigma_px * self.sigma_px, self._R_PX_FLOOR),
                max(self.sigma_px * self.sigma_px, self._R_PX_FLOOR),
                max(self.sigma_range * self.sigma_range, self._R_RANGE_FLOOR),
            ]
        )


# The (value, rate) state indices of image x, image y and range.
_AXES = ((0, 2), (1, 3), (4, 5))


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
    """Filter state, covariance, and lifecycle status for one object."""

    cls: DetectionClass
    state: np.ndarray = field(default_factory=lambda: np.zeros(6))
    covariance: np.ndarray = field(default_factory=lambda: np.eye(6))
    status: TrackStatus = TrackStatus.UNINITIALIZED
    last_update: float = -math.inf   # time of the last accepted measurement
    t: float = 0.0                   # epoch of the state estimate

    @property
    def pixel(self) -> tuple[float, float]:
        return float(self.state[0]), float(self.state[1])

    @property
    def pixel_rate(self) -> tuple[float, float]:
        return float(self.state[2]), float(self.state[3])

    @property
    def range(self) -> float:
        return float(self.state[4])

    @property
    def range_rate(self) -> float:
        return float(self.state[5])


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
    x = track.state.tolist()
    P = track.covariance.tolist()
    Q = process_noise(dt, params).tolist()
    cov = np.zeros((6, 6))
    for i, j in _AXES:
        a, b, c = P[i][i], P[i][j], P[j][j]
        b1 = b + dt * c
        x[i] += dt * x[j]
        cov[i, i] = a + dt * b + dt * b1 + Q[i][i]
        cov[i, j] = cov[j, i] = b1 + Q[i][j]
        cov[j, j] = c + Q[j][j]
    x[0] += ego_px_rate * dt
    return replace(track, state=np.array(x), covariance=cov, t=track.t + dt)


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
    z = (float(det.x), float(det.y), float(range_meas))
    if not all(map(math.isfinite, z)):
        raise ValueError("non-finite measurement")

    R = params.measurement_cov().diagonal().tolist()
    x = track.state.tolist()
    P = track.covariance.tolist()
    nu = [zk - x[i] for zk, (i, _) in zip(z, _AXES)]
    S = [P[i][i] + rk for (i, _), rk in zip(_AXES, R)]

    if nu[0] * nu[0] / S[0] + nu[1] * nu[1] / S[1] > params.gate_chi2:
        return replace(track, status=TrackStatus.COASTING)

    cov = np.zeros((6, 6))
    for (i, j), nu_k, s_k, r_k in zip(_AXES, nu, S, R):
        b, c = P[i][j], P[j][j]
        k_p, k_v = P[i][i] / s_k, b / s_k
        x[i] += k_p * nu_k
        x[j] += k_v * nu_k
        cov[i, i] = k_p * r_k
        cov[i, j] = cov[j, i] = k_v * r_k
        cov[j, j] = c - k_v * b
    return replace(
        track,
        state=np.array(x),
        covariance=cov,
        status=TrackStatus.TRACKING,
        last_update=det.t,
    )


def initialize_track(
    cls: DetectionClass,
    det: ImageDetection,
    range_meas: float,
    params: FilterParams,
    t: float,
) -> TrackEstimate:
    """Fresh track from a first detection: zero rates, configured spread."""
    R = params.measurement_cov()
    state = np.array([det.x, det.y, 0.0, 0.0, range_meas, 0.0])
    cov = np.diag(
        [
            R[0, 0],
            R[1, 1],
            params.init_vel_var,
            params.init_vel_var,
            max(R[2, 2], 0.25),
            params.init_range_rate_var,
        ]
    )
    return TrackEstimate(
        cls=cls,
        state=state,
        covariance=cov,
        status=TrackStatus.TRACKING,
        last_update=t,
        t=t,
    )


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
        track = replace(track, status=TrackStatus.COASTING)

    if t - track.last_update > params.loss_timeout:
        track = TrackEstimate(cls=track.cls, t=t)
        events.append("track_lost")
    return track, events


@dataclass
class TargetSelection:
    """Which object guidance steers at; latches on the ball once chosen."""

    active: DetectionClass = DetectionClass.DRONE
    switch_range: float = 8.0


def select_target(
    drone_track: TrackEstimate,
    ball_track: TrackEstimate,
    selection: TargetSelection,
) -> TargetSelection:
    """Switch attention from the drone to the ball near the target.

    The ball becomes active once the drone track reports a range inside
    the switch limit while the ball track is live; it stays active while
    the ball track is tracking or coasting and reverts only if the ball
    track is dropped.
    """
    if selection.active is DetectionClass.BALL:
        if ball_track.status is TrackStatus.UNINITIALIZED:
            return TargetSelection(DetectionClass.DRONE, selection.switch_range)
        return selection
    if (
        ball_track.status is TrackStatus.TRACKING
        and drone_track.status is not TrackStatus.UNINITIALIZED
        and drone_track.range <= selection.switch_range
    ):
        return TargetSelection(DetectionClass.BALL, selection.switch_range)
    return selection


@dataclass
class PerceptionState:
    """Per-drone perception: one track per class plus the selection latch."""

    drone_params: FilterParams
    ball_params: FilterParams
    drone_track: TrackEstimate = field(
        default_factory=lambda: TrackEstimate(cls=DetectionClass.DRONE)
    )
    ball_track: TrackEstimate = field(
        default_factory=lambda: TrackEstimate(cls=DetectionClass.BALL)
    )
    selection: TargetSelection = field(default_factory=TargetSelection)

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
        self.selection = select_target(self.drone_track, self.ball_track, self.selection)
        return events

    def active_track(self) -> TrackEstimate:
        if self.selection.active is DetectionClass.BALL:
            return self.ball_track
        return self.drone_track
