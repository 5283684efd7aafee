import math

import numpy as np
import pytest

from skygrab.camera import (
    CameraIntrinsics,
    CameraMount,
    DetectionClass,
    DetectionNoise,
    PixelGate,
    back_project,
    camera_position,
    detection_probability,
    estimate_range,
    gate_below_drone,
    point_depth,
    project,
    synth_detection,
)
from skygrab.world import UavState

INTR = CameraIntrinsics(width=640, height=480, focal_px=600.0)
MOUNT = CameraMount()
NOISE_FREE = DetectionNoise(
    sigma_center_px=0.0, sigma_size_px=0.0, p_det_near_m=1e6, p_det_far_m=2e6, p_det_floor=1.0
)


def obs(x=0.0, y=0.0, z=0.0, yaw=0.0):
    return UavState.at(x, y, z, yaw=yaw)


class TestProject:
    def test_optical_axis_maps_to_principal_point(self):
        assert project([3.0, 0.0, 0.0], obs(), MOUNT, INTR)[:2] == pytest.approx((320.0, 240.0))

    def test_offset_point_pinhole_arithmetic(self):
        # 0.5 m to the camera's right at 3 m depth: f*X/Z = 600*0.5/3 = 100
        x, y, _ = project([3.0, -0.5, 0.0], obs(), MOUNT, INTR)
        assert x == pytest.approx(420.0, abs=1e-12)
        assert y == pytest.approx(240.0, abs=1e-12)

    def test_point_behind_camera_is_none(self):
        assert project([-1.0, 0.0, 0.0], obs(), MOUNT, INTR) is None

    def test_point_outside_image_is_none(self):
        assert project([1.0, -5.0, 0.0], obs(), MOUNT, INTR) is None

    def test_yawed_observer(self):
        x, y, _ = project([0.0, 3.0, 0.0], obs(yaw=math.pi / 2), MOUNT, INTR)
        assert (x, y) == pytest.approx((320.0, 240.0))

    def test_mount_translation_shifts_center(self):
        mount = CameraMount(translation=np.array([0.5, 0.0, 0.0]))
        assert point_depth([3.0, 0.0, 0.0], camera_position(obs(), mount), 0.0) == pytest.approx(2.5)

    def test_back_project_inverts_project(self):
        o = obs(x=1.0, y=-2.0, z=3.0, yaw=0.6)
        p = np.array([1.0 + 4.0 * math.cos(0.6), -2.0 + 4.0 * math.sin(0.6), 3.2])
        p += np.array([-0.3 * math.sin(0.6), 0.3 * math.cos(0.6), 0.0])  # slightly off axis
        x, y, _ = project(p, o, MOUNT, INTR)
        depth = point_depth(p, camera_position(o, MOUNT), o.yaw)
        assert np.allclose(back_project(x, y, depth, o, MOUNT, INTR), p, atol=1e-9)


class TestSynthDetection:
    def test_on_axis_zero_noise_exact_box(self):
        rng = np.random.default_rng(0)
        det = synth_detection(
            [3.0, 0.0, 0.0], 0.18, DetectionClass.BALL, obs(), MOUNT, INTR, NOISE_FREE, rng, 1.0
        )
        assert det.x == pytest.approx(320.0, abs=1e-12)
        assert det.y == pytest.approx(240.0, abs=1e-12)
        assert det.w == pytest.approx(36.0, abs=1e-12)
        assert det.h == det.w
        assert det.t == 1.0

    def test_overflowing_box_is_none_after_the_same_draws(self):
        # focal_px * size overflows to inf: no detection, and the random
        # stream moves on as it does for a finite box
        huge = CameraIntrinsics(width=640, height=480, focal_px=1.0e308)
        noise = DetectionNoise(p_det_near_m=1e6, p_det_far_m=2e6)
        rngs = [np.random.default_rng(3), np.random.default_rng(3)]
        for intr, rng in zip((huge, INTR), rngs):
            det = synth_detection(
                [3.0, 0.0, 0.0], 2.0, DetectionClass.BALL, obs(), MOUNT, intr, noise, rng, 0.0
            )
            assert (det is None) is (intr is huge)
        assert rngs[0].random() == rngs[1].random()

    def test_out_of_fov_is_none(self):
        rng = np.random.default_rng(0)
        det = synth_detection(
            [-3.0, 0.0, 0.0], 0.18, DetectionClass.BALL, obs(), MOUNT, INTR, NOISE_FREE, rng, 0.0
        )
        assert det is None

    def test_noise_statistics(self):
        noise = DetectionNoise(sigma_center_px=2.0, sigma_size_px=0.5,
                               p_det_near_m=1e6, p_det_far_m=2e6, p_det_floor=1.0)
        rng = np.random.default_rng(42)
        xs = []
        for _ in range(10000):
            det = synth_detection(
                [5.0, 0.0, 0.0], 0.18, DetectionClass.BALL, obs(), MOUNT, INTR, noise, rng, 0.0
            )
            xs.append(det.x)
        assert np.std(xs) == pytest.approx(2.0, abs=0.1)
        assert np.mean(xs) == pytest.approx(320.0, abs=0.1)

    def test_gate_excluding_truth_suppresses(self):
        rng = np.random.default_rng(5)
        gate = PixelGate(0.0, 200.0, 0.0, 480.0)  # true projection is at x=320
        for _ in range(300):
            det = synth_detection(
                [3.0, 0.0, 0.0], 0.18, DetectionClass.BALL, obs(), MOUNT, INTR,
                DetectionNoise(p_det_near_m=1e6, p_det_far_m=2e6), rng, 0.0, gate=gate,
            )
            assert det is None

    def test_gate_containing_truth_passes(self):
        rng = np.random.default_rng(5)
        gate = PixelGate(300.0, 340.0, 220.0, 260.0)
        det = synth_detection(
            [3.0, 0.0, 0.0], 0.18, DetectionClass.BALL, obs(), MOUNT, INTR, NOISE_FREE, rng, 0.0,
            gate=gate,
        )
        assert det is not None

    def test_detection_probability_profile(self):
        noise = DetectionNoise()
        assert detection_probability(5.0, noise) == 1.0
        assert detection_probability(8.0, noise) == 1.0
        assert detection_probability(25.0, noise) == pytest.approx(0.2)
        assert detection_probability(40.0, noise) == pytest.approx(0.2)
        mid = detection_probability(16.5, noise)
        assert 0.2 < mid < 1.0

    def test_miss_rate_far_away(self):
        noise = DetectionNoise(sigma_center_px=0.0, sigma_size_px=0.0,
                               p_det_near_m=2.0, p_det_far_m=3.0, p_det_floor=0.3,
                               min_box_px=0.0)
        rng = np.random.default_rng(9)
        hits = sum(
            synth_detection([10.0, 0.0, 0.0], 0.18, DetectionClass.BALL,
                            obs(), MOUNT, INTR, noise, rng, 0.0) is not None
            for _ in range(5000)
        )
        assert hits / 5000 == pytest.approx(0.3, abs=0.03)

    def test_tiny_box_undetectable(self):
        noise = DetectionNoise(p_det_near_m=1e6, p_det_far_m=2e6, p_det_floor=1.0, min_box_px=3.0)
        rng = np.random.default_rng(0)
        det = synth_detection(
            [40.0, 0.0, 0.0], 0.18, DetectionClass.BALL, obs(), MOUNT, INTR, noise, rng, 0.0
        )
        assert det is None  # 600*0.18/40 = 2.7 px < 3 px

    def test_deterministic_for_fixed_seed(self):
        def stream(seed):
            rng = np.random.default_rng(seed)
            noise = DetectionNoise()
            out = []
            for k in range(50):
                det = synth_detection(
                    [6.0, 0.1, 0.0], 0.18, DetectionClass.BALL, obs(), MOUNT, INTR, noise, rng,
                    k / 30.0,
                )
                out.append(None if det is None else (det.x, det.y, det.w))
            return out

        assert stream(123) == stream(123)
        assert stream(123) != stream(124)


class TestEstimateRange:
    def test_hand_value(self):
        from skygrab.camera import ImageDetection
        det = ImageDetection(x=320, y=240, w=36.0, h=36.0, cls=DetectionClass.BALL, t=0.0)
        assert estimate_range(det, INTR, 0.18) == pytest.approx(3.0, abs=1e-12)

    def test_inverse_proportionality(self):
        from skygrab.camera import ImageDetection
        d1 = ImageDetection(320, 240, 36.0, 36.0, DetectionClass.BALL, 0.0)
        d2 = ImageDetection(320, 240, 72.0, 72.0, DetectionClass.BALL, 0.0)
        assert estimate_range(d1, INTR, 0.18) == pytest.approx(2 * estimate_range(d2, INTR, 0.18))

    def test_monotone_decreasing_in_width(self):
        from skygrab.camera import ImageDetection
        prev = math.inf
        for w in np.linspace(5.0, 200.0, 40):
            det = ImageDetection(320, 240, float(w), float(w), DetectionClass.BALL, 0.0)
            r = estimate_range(det, INTR, 0.18)
            assert r < prev
            prev = r

    def test_invalid_width_rejected(self):
        from skygrab.camera import ImageDetection
        det = ImageDetection(320, 240, 0.0, 0.0, DetectionClass.BALL, 0.0)
        with pytest.raises(ValueError):
            estimate_range(det, INTR, 0.18)

    def test_round_trip_on_axis(self):
        rng = np.random.default_rng(0)
        for depth in np.linspace(1.0, 20.0, 39):
            det = synth_detection(
                [depth, 0.0, 0.0], 0.18, DetectionClass.BALL, obs(), MOUNT, INTR, NOISE_FREE,
                rng, 0.0,
            )
            assert abs(estimate_range(det, INTR, 0.18) - depth) < 1e-9

    def test_off_axis_error_bounded_by_flat_box_approximation(self):
        rng = np.random.default_rng(0)
        for ang_deg in np.linspace(-10.0, 10.0, 21):
            a = math.radians(ang_deg)
            depth = 5.0
            p = [depth, depth * math.tan(a), 0.0]
            det = synth_detection(
                p, 0.18, DetectionClass.BALL, obs(), MOUNT, INTR, NOISE_FREE, rng, 0.0
            )
            true_range = np.linalg.norm(p)
            err = abs(estimate_range(det, INTR, 0.18) - true_range) / true_range
            assert err <= 0.02


class TestGateBelowDrone:
    def test_contains_hanging_ball(self):
        from skygrab.camera import ImageDetection
        rng = np.random.default_rng(0)
        for depth in (4.0, 8.0, 15.0):
            drone_p = [depth, 0.0, 1.5]
            ball_p = [depth, 0.0, 0.0]
            ddet = synth_detection(
                drone_p, 0.35, DetectionClass.DRONE, obs(), MOUNT, INTR, NOISE_FREE, rng, 0.0
            )
            gate = gate_below_drone(ddet, estimate_range(ddet, INTR, 0.35), INTR, 1.5)
            bx, by, _ = project(ball_p, obs(), MOUNT, INTR)
            assert gate.contains(bx, by)
