"""Synthetic vision: pinhole projection, noisy detection boxes, and
known-size monocular ranging.

The camera looks along the vehicle +x axis. Image x grows rightward,
image y grows downward, and the principal point sits at the image
center. Detections are synthesized from ground-truth geometry: the
target is projected, a box size is computed from its physical size and
camera-axis depth (flat-box approximation), Gaussian pixel noise is
added, and a depth-dependent detection probability models the detector
degrading on small, distant objects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .frames import Vec3, body_to_world, world_to_body
from .world import UavState


class DetectionClass(enum.Enum):
    DRONE = "drone"
    BALL = "ball"


@dataclass
class CameraIntrinsics:
    width: int = 640
    height: int = 480
    focal_px: float = 600.0

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0 or self.focal_px <= 0.0:
            raise ValueError("camera intrinsics must be positive")

    @property
    def cx(self) -> float:
        return self.width / 2.0

    @property
    def cy(self) -> float:
        return self.height / 2.0


@dataclass
class CameraMount:
    """Rigid forward-looking mount: optical axis along vehicle +x."""

    translation: Vec3 = (0.0, 0.0, 0.0)


@dataclass
class DetectionNoise:
    """Pixel noise and depth-dependent detection probability."""

    sigma_center_px: float = 2.0
    sigma_size_px: float = 1.0
    p_det_near_m: float = 8.0    # always detected inside this depth
    p_det_far_m: float = 25.0    # probability has decayed to the floor here
    p_det_floor: float = 0.2
    min_box_px: float = 3.0      # boxes smaller than this are undetectable


@dataclass
class ImageDetection:
    """One detected box: center, size, class, and timestamp."""

    x: float
    y: float
    w: float
    h: float
    cls: DetectionClass
    t: float


@dataclass
class PixelGate:
    """Inclusive pixel rectangle restricting where a detection is accepted."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


def camera_position(observer: UavState, mount: CameraMount) -> Vec3:
    """World position of the optical center."""
    return body_to_world(observer.position, observer.yaw, mount.translation)


def point_depth(point_world, camera: Vec3, yaw: float) -> float:
    """Depth of a world point along the optical axis (vehicle +x) of a
    camera at ``camera``, as ``camera_position`` gives it, on a vehicle
    at ``yaw``."""
    return world_to_body(point_world, camera, yaw)[0]


def project(
    point_world,
    observer: UavState,
    mount: CameraMount,
    intr: CameraIntrinsics,
) -> tuple[float, float, float] | None:
    """Pinhole projection of a world point: its pixel and its
    ``point_depth``, as (x, y, depth), or None when not imageable.

    Returns None for points at or behind the camera plane and for
    projections falling outside the image bounds.
    """
    fwd, left, up = world_to_body(point_world, camera_position(observer, mount), observer.yaw)
    if fwd <= 0.0:
        return None
    x = intr.cx + intr.focal_px * (-left) / fwd
    y = intr.cy + intr.focal_px * (-up) / fwd
    if not (0.0 <= x <= intr.width and 0.0 <= y <= intr.height):
        return None
    return x, y, fwd


def back_project(
    x: float,
    y: float,
    depth: float,
    observer: UavState,
    mount: CameraMount,
    intr: CameraIntrinsics,
) -> Vec3:
    """World point for a pixel at a given camera-axis depth (inverse of
    project under the flat-box depth convention)."""
    left = -(x - intr.cx) * depth / intr.focal_px
    up = -(y - intr.cy) * depth / intr.focal_px
    return body_to_world(camera_position(observer, mount), observer.yaw, (depth, left, up))


def detection_probability(depth: float, noise: DetectionNoise) -> float:
    """1 inside the near range, linear decay to the floor at the far range."""
    if depth <= noise.p_det_near_m:
        return 1.0
    if depth >= noise.p_det_far_m:
        return noise.p_det_floor
    frac = (depth - noise.p_det_near_m) / (noise.p_det_far_m - noise.p_det_near_m)
    return 1.0 - frac * (1.0 - noise.p_det_floor)


def synth_detection(
    point_world,
    size_m: float,
    cls: DetectionClass,
    observer: UavState,
    mount: CameraMount,
    intr: CameraIntrinsics,
    noise: DetectionNoise,
    rng: np.random.Generator,
    t: float,
    gate: PixelGate | None = None,
) -> ImageDetection | None:
    """Synthesize one detection of a known-size object, or None on a miss.

    Misses occur when the object is behind the camera or out of the
    image, when its true projection falls outside the supplied gate, when
    the detection-probability draw fails, or when pixel noise pushes the
    reported center out of the image.
    """
    imaged = project(point_world, observer, mount, intr)
    if imaged is None:
        return None
    x_true, y_true, depth = imaged
    if gate is not None and not gate.contains(x_true, y_true):
        return None

    w_true = intr.focal_px * size_m / depth
    if w_true < noise.min_box_px:
        return None
    if rng.random() > detection_probability(depth, noise):
        return None

    nx, ny, nw = rng.standard_normal(3).tolist()
    x = x_true + noise.sigma_center_px * nx
    y = y_true + noise.sigma_center_px * ny
    if not (0.0 <= x <= intr.width and 0.0 <= y <= intr.height):
        return None
    w = max(w_true + noise.sigma_size_px * nw, 0.5)
    return ImageDetection(x=x, y=y, w=w, h=w, cls=cls, t=t)


def estimate_range(det: ImageDetection, intr: CameraIntrinsics, true_size_m: float) -> float:
    """Known-size monocular range: r = f * size / box width."""
    if det.w <= 0.0:
        raise ValueError("detection width must be positive")
    return intr.focal_px * true_size_m / det.w


def gate_below_drone(
    det: ImageDetection,
    depth: float,
    intr: CameraIntrinsics,
    rod_length_m: float,
) -> PixelGate:
    """Search region for the ball hanging under a detected drone.

    The region spans a few drone-widths laterally and extends downward by
    the rod length (plus swing margin) converted to pixels at ``depth``,
    the drone's range as ``estimate_range`` gives it for ``det``.
    """
    half_w = max(3.0 * det.w, 40.0)
    drop_px = intr.focal_px * (rod_length_m + 0.7) / depth
    return PixelGate(
        x_min=det.x - half_w,
        x_max=det.x + half_w,
        y_min=det.y - det.w,
        y_max=det.y + drop_px,
    )
