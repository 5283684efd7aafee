import math

import numpy as np
import pytest

from skygrab.camera import CameraIntrinsics, DetectionClass
from skygrab.config import LimitsConfig
from skygrab.guidance import (
    ExplorePlan,
    GuidanceError,
    GuidanceGains,
    explore_command,
    goto_command,
    lawnmower_waypoints,
    saturate,
    servo_command,
)
from skygrab.perception import TrackEstimate, TrackStatus
from skygrab.world import UavState, VelocityCommand

INTR = CameraIntrinsics(width=640, height=480, focal_px=600.0)


def track(x=320.0, y=240.0, xr=0.0, yr=0.0, r=2.5, rr=0.0, status=TrackStatus.TRACKING):
    tr = TrackEstimate(cls=DetectionClass.BALL)
    tr.state = np.array([x, y, xr, yr, r, rr], dtype=float)
    tr.status = status
    return tr


class TestServoCommand:
    def test_setpoint_gives_exact_zero(self):
        gains = GuidanceGains(r_des=2.5)
        cmd = servo_command(track(320.0, 240.0, 0, 0, 2.5, 0), INTR, gains)
        assert cmd.vx == 0.0 and cmd.vy == 0.0 and cmd.vz == 0.0 and cmd.yaw_rate == 0.0

    def test_yaw_rate_hand_value(self):
        # target right of center: x = 420, kp = 0.005 -> 0.005*(320-420) = -0.5
        gains = GuidanceGains(kp_yaw=0.005, kd_yaw=0.002)
        cmd = servo_command(track(x=420.0), INTR, gains)
        assert cmd.yaw_rate == pytest.approx(-0.5, abs=1e-12)

    def test_forward_speed_hand_value(self):
        # too far: r = 5 with r_des = 2 and kp_r = 0.8 closes at +2.4 m/s
        gains = GuidanceGains(kp_range=0.8, kd_range=0.3, r_des=2.0)
        cmd = servo_command(track(r=5.0), INTR, gains)
        assert cmd.vx == pytest.approx(2.4, abs=1e-12)

    def test_climb_direction(self):
        # target above center (image y below cy) commands a climb
        gains = GuidanceGains()
        cmd = servo_command(track(y=200.0), INTR, gains)
        assert cmd.vz > 0.0

    def test_lateral_camera_velocity_always_zero(self):
        rng = np.random.default_rng(0)
        gains = GuidanceGains()
        for _ in range(20):
            cmd = servo_command(
                track(
                    x=rng.uniform(0, 640), y=rng.uniform(0, 480),
                    xr=rng.uniform(-100, 100), yr=rng.uniform(-100, 100),
                    r=rng.uniform(1, 10), rr=rng.uniform(-2, 2),
                ),
                INTR, gains,
            )
            assert cmd.vy == 0.0

    def test_sign_structure_by_finite_difference(self):
        gains = GuidanceGains()
        rng = np.random.default_rng(1)
        for _ in range(50):
            x, y = rng.uniform(50, 590), rng.uniform(50, 430)
            r = rng.uniform(1.0, 10.0)
            h = 1e-6
            base = servo_command(track(x=x, y=y, r=r), INTR, gains)
            dxi = servo_command(track(x=x + h, y=y, r=r), INTR, gains)
            dyi = servo_command(track(x=x, y=y + h, r=r), INTR, gains)
            dr = servo_command(track(x=x, y=y, r=r + h), INTR, gains)
            assert (dxi.yaw_rate - base.yaw_rate) / h < 0.0
            assert (dyi.vz - base.vz) / h < 0.0
            assert (dr.vx - base.vx) / h > 0.0

    def test_derivative_action_damps_pixel_motion(self):
        gains = GuidanceGains()
        cmd = servo_command(track(x=320.0, xr=50.0), INTR, gains)
        assert cmd.yaw_rate < 0.0

    def test_uninitialized_track_raises(self):
        with pytest.raises(GuidanceError):
            servo_command(track(status=TrackStatus.UNINITIALIZED), INTR, GuidanceGains())

    def test_coasting_track_still_drives_guidance(self):
        cmd = servo_command(track(status=TrackStatus.COASTING, x=300.0), INTR, GuidanceGains())
        assert cmd.yaw_rate != 0.0

    def test_positive_gain_validation(self):
        with pytest.raises(ValueError):
            GuidanceGains(kp_yaw=0.0)


class TestServoWorldFrame:
    def test_identity_at_zero_yaw(self):
        gains = GuidanceGains(kp_range=1.0, kd_range=0.0, r_des=2.0)
        cmd = servo_command(track(y=200.0, r=3.0), INTR, gains, 0.0)
        assert (cmd.vx, cmd.vy) == (1.0, 0.0)
        assert cmd.vz == pytest.approx(gains.kp_z * 40.0)

    def test_rotation_by_quarter_turn(self):
        gains = GuidanceGains(kp_range=1.0, kd_range=0.0, r_des=2.0)
        cmd = servo_command(track(r=3.0), INTR, gains, math.pi / 2)
        assert cmd.vx == pytest.approx(0.0, abs=1e-12)
        assert cmd.vy == pytest.approx(1.0)

    def test_rotation_keeps_horizontal_norm(self):
        gains = GuidanceGains()
        rng = np.random.default_rng(2)
        for _ in range(20):
            tr = track(r=rng.uniform(1.0, 10.0), rr=rng.uniform(-2.0, 2.0))
            forward = servo_command(tr, INTR, gains).vx
            cmd = servo_command(tr, INTR, gains, rng.uniform(-math.pi, math.pi))
            assert math.hypot(cmd.vx, cmd.vy) == pytest.approx(abs(forward), rel=1e-12)

    def test_closing_bias_adds_forward_speed_before_rotation(self):
        gains = GuidanceGains(kp_range=1.0, kd_range=0.0, r_des=2.0)
        cmd = servo_command(track(r=3.0), INTR, gains, math.pi / 2, closing_bias=0.5)
        assert cmd.vx == pytest.approx(0.0, abs=1e-12)
        assert cmd.vy == pytest.approx(1.5)

    def test_setpoint_composition_is_zero_everywhere(self):
        gains = GuidanceGains(r_des=2.5)
        for yaw in (0.0, 0.7, -2.2):
            out = servo_command(track(), INTR, gains, yaw)
            assert (out.vx, out.vy, out.vz, out.yaw_rate) == (0.0, 0.0, 0.0, 0.0)


class TestSaturate:
    def test_within_limits_unchanged(self):
        cmd = VelocityCommand(1.0, 0.5, 0.2, 0.3)
        out = saturate(cmd, LimitsConfig())
        assert (out.vx, out.vy, out.vz, out.yaw_rate) == (1.0, 0.5, 0.2, 0.3)

    def test_horizontal_scaling_preserves_direction(self):
        cmd = VelocityCommand(4.0, 3.0, 0.0)
        out = saturate(cmd, LimitsConfig(v_xy=2.5))
        assert out.vx == pytest.approx(2.0)
        assert out.vy == pytest.approx(1.5)

    def test_yaw_rate_clamped(self):
        out = saturate(VelocityCommand(yaw_rate=2.0), LimitsConfig(yaw_rate=1.0))
        assert out.yaw_rate == 1.0

    def test_vertical_clamped(self):
        out = saturate(VelocityCommand(vz=-9.0), LimitsConfig(v_z=1.5))
        assert out.vz == -1.5


class TestExploration:
    AREA = (-10.0, 10.0, -8.0, 8.0)

    def test_coverage_within_half_lane_spacing(self):
        spacing = 4.0
        wps = lawnmower_waypoints(self.AREA, spacing, 3.5)
        assert all(type(w) is tuple and list(map(type, w)) == [float] * 3 for w in wps)
        assert all(w[2] == 3.5 for w in wps)
        xs = np.linspace(self.AREA[0], self.AREA[1], 41)
        ys = np.linspace(self.AREA[2], self.AREA[3], 33)
        lane_ys = sorted({w[1] for w in wps})
        for y in ys:
            assert min(abs(y - ly) for ly in lane_ys) <= spacing / 2 + 1e-9
        # lanes span the full x extent
        assert min(w[0] for w in wps) == self.AREA[0]
        assert max(w[0] for w in wps) == self.AREA[1]
        del xs

    def test_waypoint_advance_at_capture_radius(self):
        plan = ExplorePlan(lawnmower_waypoints(self.AREA, 4.0, 3.5))
        plan.started = True  # pin the pattern entry point for the check
        first = plan.waypoints[0]
        wp = plan.active_waypoint(first)
        assert not np.allclose(wp, first)

    def test_nearest_entry_point(self):
        plan = ExplorePlan(lawnmower_waypoints(self.AREA, 4.0, 3.5))
        wp = plan.active_waypoint(np.array([9.0, 7.0, 3.5]))
        assert wp[1] == pytest.approx(8.0)

    def test_command_magnitude_bounded(self):
        plan = ExplorePlan(lawnmower_waypoints(self.AREA, 4.0, 3.5))
        state = UavState.at(0.0, 0.0, 3.5)
        cmd = saturate(explore_command(plan, state, 1.5, 1.5, 0.0), LimitsConfig())
        assert math.hypot(cmd.vx, cmd.vy) <= 3.0 + 1e-9
        assert math.sqrt(cmd.vx**2 + cmd.vy**2 + cmd.vz**2) <= 1.5 + 1e-9

    def test_scan_weave_changes_heading_target(self):
        plan = ExplorePlan(lawnmower_waypoints(self.AREA, 4.0, 3.5))
        state = UavState.at(0.0, 0.0, 3.5)
        c0 = explore_command(plan, state, 1.5, 1.5, t=2.0)
        c1 = explore_command(plan, state, 1.5, 1.5, t=4.0)
        assert c0.yaw_rate != c1.yaw_rate

    def test_goto_command_points_at_target(self):
        state = UavState.at(0.0, 0.0, 3.5)
        cmd = goto_command(np.array([4.0, 4.0, 3.5]), state, 2.0, 1.5)
        ip = cmd.vx * 4.0 + cmd.vy * 4.0
        assert ip > 0.0

    def test_degenerate_area_rejected(self):
        with pytest.raises(ValueError):
            lawnmower_waypoints((0.0, 0.0, -1.0, 1.0), 2.0, 3.0)
