import math

import numpy as np
import pytest

from skygrab import world
from skygrab.frames import wrap_angle
from skygrab.world import (
    BallParams,
    BallState,
    Frame,
    OrnsteinUhlenbeckWind,
    PatternKind,
    TrajectoryPattern,
    UavParams,
    UavState,
    VelocityCommand,
    ball_world_position,
    ball_world_velocity,
    detach,
    detach_check,
    pendulum_energy,
    step_ball,
    step_uav,
    target_pose,
)

DT = 1.0 / 400.0


def make_uav(**kw):
    return UavState.at(kw.pop("x", 0.0), kw.pop("y", 0.0), kw.pop("z", 0.0), **kw)


class TestStepUav:
    def test_rest_zero_command_is_equilibrium(self):
        s = make_uav()
        out = step_uav(s, VelocityCommand(frame=Frame.WORLD), UavParams(), 0.05)
        assert np.allclose(out.position, s.position)
        assert np.allclose(out.velocity, 0.0)
        assert out.yaw == s.yaw

    def test_first_order_lag_hand_value(self):
        # v' = v + (dt/tau)(v_cmd - v) with v=0, v_cmd=1, tau=0.5, dt=0.05
        s = make_uav()
        out = step_uav(s, VelocityCommand(vx=1.0, frame=Frame.WORLD), UavParams(tau=0.5), 0.05)
        assert out.velocity[0] == pytest.approx(0.1, abs=1e-15)
        assert out.velocity[1] == 0.0 and out.velocity[2] == 0.0

    def test_exponential_convergence_to_command(self):
        tau, dt = 0.4, 0.05
        s = make_uav()
        cmd = VelocityCommand(vx=1.2, vy=-0.9, frame=Frame.WORLD)
        n = int(5 * tau / dt)
        for _ in range(n):
            s = step_uav(s, cmd, UavParams(tau=tau), dt)
        residual = np.linalg.norm(s.velocity - np.array([1.2, -0.9, 0.0]))
        # discrete-lag oracle: residual = |v_cmd| * (1 - dt/tau)^n
        oracle = math.hypot(1.2, 0.9) * (1.0 - dt / tau) ** n
        assert residual == pytest.approx(oracle, rel=1e-9)
        assert residual < 0.01 * math.hypot(1.2, 0.9)

    def test_speed_monotone_never_overshoots(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.uniform(-2, 2, size=3)
            cmd = VelocityCommand(v[0], v[1], v[2], frame=Frame.WORLD)
            mag = math.hypot(v[0], v[1])
            s = make_uav()
            prev = 0.0
            for _ in range(200):
                s = step_uav(s, cmd, UavParams(), DT)
                speed = math.hypot(s.velocity[0], s.velocity[1])
                assert speed >= prev - 1e-12
                assert speed <= mag + 1e-12
                prev = speed

    def test_saturation_limits_speed_and_yaw_rate(self):
        s = make_uav()
        cmd = VelocityCommand(vx=50.0, vy=40.0, vz=30.0, yaw_rate=9.0, frame=Frame.WORLD)
        p = UavParams(tau=0.01, v_max_xy=3.0, v_max_z=1.5, yaw_rate_max=1.5)
        out = step_uav(s, cmd, p, 0.05)
        assert math.hypot(out.velocity[0], out.velocity[1]) <= 3.0 + 1e-12
        assert abs(out.velocity[2]) <= 1.5 + 1e-12
        assert out.yaw_rate == pytest.approx(1.5)

    def test_vehicle_frame_resolved_by_yaw(self):
        s = make_uav(yaw=math.pi / 2)
        out = step_uav(s, VelocityCommand(vx=1.0, frame=Frame.VEHICLE), UavParams(tau=0.05), 0.05)
        assert out.velocity[1] > 0.3
        assert abs(out.velocity[0]) < 1e-9

    def test_position_uses_updated_velocity(self):
        s = make_uav()
        out = step_uav(s, VelocityCommand(vx=1.0, frame=Frame.WORLD), UavParams(tau=0.5), 0.05)
        assert out.position[0] == pytest.approx(0.05 * out.velocity[0])

    def test_yaw_wraps_into_half_open_interval(self):
        s = make_uav(yaw=math.pi - 0.01)
        out = step_uav(
            s, VelocityCommand(yaw_rate=1.0, frame=Frame.WORLD), UavParams(), 0.05
        )
        assert -math.pi < out.yaw <= math.pi

    def test_rejects_bad_commands(self):
        s = make_uav()
        with pytest.raises(ValueError):
            step_uav(s, VelocityCommand(vx=math.nan, frame=Frame.WORLD), UavParams(), 0.05)
        with pytest.raises(ValueError):
            step_uav(s, VelocityCommand(frame=Frame.CAMERA), UavParams(), 0.05)
        with pytest.raises(ValueError):
            step_uav(s, VelocityCommand(frame=Frame.WORLD), UavParams(), 0.0)


class TestTargetPose:
    def test_static_hover(self):
        pat = TrajectoryPattern(PatternKind.STATIC_HOVER, center=[0.0, 0.0, 5.0])
        p, v = target_pose(pat, 12.3)
        assert np.allclose(p, [0, 0, 5]) and np.allclose(v, 0)

    def test_straight_line_definition(self):
        pat = TrajectoryPattern(
            PatternKind.STRAIGHT_LINE, center=[1.0, 2.0, 5.0], heading=0.0, speed=1.0
        )
        p, _ = target_pose(pat, 3.0)
        assert np.allclose(p, [4.0, 2.0, 5.0])

    def test_figure_eight_periodicity(self):
        pat = TrajectoryPattern(
            PatternKind.FIGURE_EIGHT, center=[0.0, 0.0, 5.0], heading=0.4, speed=0.5, extent=4.0
        )
        T = pat.period
        for t in (0.0, 1.7, 5.2):
            p1, _ = target_pose(pat, t)
            p2, _ = target_pose(pat, t + T)
            assert np.linalg.norm(p1 - p2) < 1e-9

    def test_figure_eight_mean_speed_matches(self):
        pat = TrajectoryPattern(
            PatternKind.FIGURE_EIGHT, center=[0.0, 0.0, 5.0], speed=0.7, extent=3.0
        )
        T = pat.period
        ts = np.linspace(0.0, T, 20001)
        speeds = [np.linalg.norm(target_pose(pat, t)[1]) for t in ts]
        assert np.trapezoid(speeds, ts) / T == pytest.approx(0.7, rel=1e-3)

    def test_velocity_matches_finite_difference(self):
        pat = TrajectoryPattern(
            PatternKind.FIGURE_EIGHT, center=[1.0, -2.0, 5.0], heading=1.1, speed=0.5, extent=4.0
        )
        h = 1e-6
        for t in (0.3, 2.9, 7.7):
            p0, v = target_pose(pat, t)
            p1, _ = target_pose(pat, t + h)
            fd = (p1 - p0) / h
            assert np.allclose(fd, v, atol=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrajectoryPattern(PatternKind.FIGURE_EIGHT, center=[0, 0, 5], speed=1.0, extent=0.0)
        with pytest.raises(ValueError):
            TrajectoryPattern(PatternKind.STRAIGHT_LINE, center=[0, 0, 5], speed=-1.0)
        pat = TrajectoryPattern(PatternKind.STATIC_HOVER, center=[0, 0, 5])
        with pytest.raises(ValueError):
            target_pose(pat, -0.1)


class TestBall:
    def test_hanging_equilibrium_is_fixed_point(self):
        ball = BallState()
        out = step_ball(ball, np.zeros(3), np.zeros(3), BallParams(), DT)
        assert out.theta == pytest.approx(0.0, abs=1e-15)
        assert out.theta_dot == pytest.approx(0.0, abs=1e-15)

    def test_small_angle_period(self):
        # full period of the bob x-coordinate; theta itself folds at the
        # vertical, so it oscillates at twice the pendulum frequency
        params = BallParams(damping=0.0)
        ball = BallState(theta=0.05)
        t, crossings, prev = 0.0, [], None
        for _ in range(int(13.0 / DT)):
            ball = step_ball(ball, np.zeros(3), np.zeros(3), params, DT)
            t += DT
            x = ball_world_position(np.zeros(3), ball, params.length)[0]
            if prev is not None and prev < 0.0 <= x:
                crossings.append(t)
            prev = x
        period = (crossings[-1] - crossings[0]) / (len(crossings) - 1)
        expected = 2.0 * math.pi * math.sqrt(params.length / params.gravity)
        assert expected == pytest.approx(2.457, abs=5e-4)
        assert abs(period - expected) / expected < 0.01

    def test_energy_conservation_over_60s(self):
        params = BallParams(damping=0.0)
        ball = BallState(theta=0.3, phi_dot=1.0)
        e0 = pendulum_energy(ball, params)
        worst = 0.0
        for _ in range(int(60.0 / DT)):
            ball = step_ball(ball, np.zeros(3), np.zeros(3), params, DT)
            worst = max(worst, abs(pendulum_energy(ball, params) - e0) / e0)
        assert worst < 1e-6

    def test_damping_dissipates_energy(self):
        params = BallParams(damping=0.1)
        ball = BallState(theta=0.4)
        e0 = pendulum_energy(ball, params)
        for _ in range(int(10.0 / DT)):
            ball = step_ball(ball, np.zeros(3), np.zeros(3), params, DT)
        assert pendulum_energy(ball, params) < 0.7 * e0

    def test_rigid_rod_invariant(self):
        rng = np.random.default_rng(3)
        params = BallParams()
        support = np.array([2.0, -1.0, 6.0])
        for _ in range(50):
            ball = BallState(
                theta=rng.uniform(0, 1.2),
                phi=rng.uniform(-math.pi, math.pi),
                theta_dot=rng.uniform(-2, 2),
                phi_dot=rng.uniform(-2, 2),
            )
            p = ball_world_position(support, ball, params.length)
            assert np.linalg.norm(p - support) == pytest.approx(params.length, abs=1e-12)

    def test_ball_world_position_hand_values(self):
        ball = BallState()
        assert np.allclose(
            ball_world_position(np.array([0.0, 0.0, 5.0]), ball, 1.5), [0.0, 0.0, 3.5]
        )
        tilted = BallState(theta=math.pi / 6)
        p = ball_world_position(np.zeros(3), tilted, 1.5)
        assert p[0] == pytest.approx(0.75, abs=1e-12)
        assert p[1] == pytest.approx(0.0, abs=1e-12)
        assert p[2] == pytest.approx(-1.5 * math.cos(math.pi / 6), abs=1e-12)
        assert p[2] == pytest.approx(-1.299, abs=1e-3)

    def test_accelerating_pivot_deflects_ball_backwards(self):
        params = BallParams()
        ball = BallState()
        accel = np.array([3.0, 0.0, 0.0])
        for _ in range(int(0.5 / DT)):
            ball = step_ball(ball, accel, np.zeros(3), params, DT)
        rel = ball_world_position(np.zeros(3), ball, params.length)
        assert rel[0] < -0.05  # lags behind the pivot

    def test_swing_velocity_consistency(self):
        params = BallParams(damping=0.0)
        ball = BallState(theta=0.3, theta_dot=0.5, phi=0.7, phi_dot=-0.4)
        h = 1e-7
        p0 = ball_world_position(np.zeros(3), ball, params.length)
        stepped = step_ball(ball, np.zeros(3), np.zeros(3), params, h)
        p1 = ball_world_position(np.zeros(3), stepped, params.length)
        v = ball_world_velocity(np.zeros(3), ball, params.length)
        assert np.allclose((p1 - p0) / h, v, atol=1e-5)

    def test_detach_check_threshold_inclusive(self):
        assert detach_check(0.0, 5.0) is False
        assert detach_check(4.999, 5.0) is False
        assert detach_check(5.0, 5.0) is True
        with pytest.raises(ValueError):
            detach_check(-1.0, 5.0)

    def test_detached_ball_is_ballistic(self):
        params = BallParams()
        ball = BallState(theta=0.2, theta_dot=1.0)
        support = np.array([0.0, 0.0, 5.0])
        support_vel = np.array([0.5, 0.0, 0.0])
        free = detach(ball, support, support_vel, params.length)
        assert not free.attached
        p0 = free.free_position.copy()
        v0 = free.free_velocity.copy()
        t = 0.0
        for _ in range(200):
            free = step_ball(free, np.zeros(3), np.zeros(3), params, DT)
            t += DT
        expected = p0 + v0 * t + 0.5 * np.array([0, 0, -params.gravity]) * t * t
        assert np.allclose(free.free_position, expected, atol=1e-9)


class TestWind:
    def test_stationary_statistics(self):
        rng = np.random.default_rng(11)
        wind = OrnsteinUhlenbeckWind(sigma=0.3, tau=2.0)
        samples = []
        for _ in range(200000):
            samples.append(wind.step(rng, DT).copy())
        arr = np.array(samples[40000:])
        assert abs(arr.mean()) < 0.02
        assert arr.std() == pytest.approx(0.3, rel=0.1)

    def test_mean_reversion(self):
        rng = np.random.default_rng(1)
        wind = OrnsteinUhlenbeckWind(mean=np.array([1.0, 0.0, 0.0]), sigma=0.0, tau=0.5)
        for _ in range(4000):
            f = wind.step(rng, DT)
        assert f[0] == pytest.approx(1.0, abs=1e-3)

    def test_block_draws_equal_one_draw_per_step(self):
        # The wind draws its noise a block ahead; across block boundaries
        # its forces must stay bit-equal to one standard_normal(3) a step.
        steps = 5000
        assert steps > 2 * world._WIND_BLOCK
        mean, sigma, tau = np.array([0.3, -0.2, 0.1]), 0.4, 1.5
        wind = OrnsteinUhlenbeckWind(mean=mean.copy(), sigma=sigma, tau=tau)
        rng, ref_rng = np.random.default_rng(42), np.random.default_rng(42)
        a = DT / tau
        f = np.zeros(3)
        for _ in range(steps):
            f = f + (mean - f) * a + sigma * math.sqrt(2.0 * a) * ref_rng.standard_normal(3)
            assert wind.step(rng, DT).tobytes() == f.tobytes()


class TestInputsUnchanged:
    def test_step_uav_leaves_state_unmutated(self):
        s = UavState(np.array([1.0, -2.0, 3.0]), np.array([0.4, 0.1, -0.2]), yaw=0.3, yaw_rate=0.1)
        pos, vel = s.position, s.velocity
        cmd = VelocityCommand(vx=5.0, vy=-4.0, vz=3.0, yaw_rate=2.0, frame=Frame.WORLD)
        out = step_uav(s, cmd, UavParams(), DT)
        assert s.position is pos and s.velocity is vel
        assert pos.tolist() == [1.0, -2.0, 3.0] and vel.tolist() == [0.4, 0.1, -0.2]
        assert (s.yaw, s.yaw_rate) == (0.3, 0.1)
        assert out.position is not pos and out.velocity is not vel

    def test_step_ball_leaves_state_and_inputs_unmutated(self):
        accel, wind = np.array([0.5, -0.3, 0.2]), np.array([0.01, 0.02, -0.01])
        attached = BallState(theta=0.3, phi=0.2, theta_dot=0.5, phi_dot=-0.4)
        free = detach(attached, np.zeros(3), np.array([0.5, 0.0, 0.0]), 1.5)
        for ball in (attached, free):
            p, v = ball.free_position, ball.free_velocity
            before = (ball.theta, ball.phi, ball.theta_dot, ball.phi_dot, ball.attached,
                      p.tolist(), v.tolist())
            out = step_ball(ball, accel, wind, BallParams(), DT)
            assert out is not ball
            assert ball.free_position is p and ball.free_velocity is v
            assert before == (ball.theta, ball.phi, ball.theta_dot, ball.phi_dot, ball.attached,
                              p.tolist(), v.tolist())
        assert accel.tolist() == [0.5, -0.3, 0.2] and wind.tolist() == [0.01, 0.02, -0.01]


def test_gerono_constant_is_the_trapezoid_integral():
    # The literal in world.py is this integral, bit for bit.
    u = np.linspace(0.0, 2.0 * np.pi, 200_001)
    integral = float(np.trapezoid(np.sqrt(np.cos(u) ** 2 + np.cos(2.0 * u) ** 2), u))
    assert integral == world._GERONO_C


def test_wrap_angle_interval():
    for a in (-math.pi, math.pi, 3 * math.pi, -2.5 * math.pi, 0.0, 1.0):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
