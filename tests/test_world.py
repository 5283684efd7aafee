import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skygrab import world
from skygrab.camera import CameraIntrinsics, CameraMount, back_project, camera_position
from skygrab.config import CaptureConfig, LimitsConfig
from skygrab.coordination import gripper_point
from skygrab.frames import body_to_world, world_to_body, wrap_angle
from skygrab.world import (
    BallParams,
    BallState,
    OrnsteinUhlenbeckWind,
    PatternKind,
    TrajectoryPattern,
    UavState,
    VelocityCommand,
    ball_world_position,
    ball_world_velocity,
    detach,
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
        out = step_uav(s, VelocityCommand(), 0.4, LimitsConfig(), 0.05)
        assert np.allclose(out.position, s.position)
        assert np.allclose(out.velocity, 0.0)
        assert out.yaw == s.yaw

    def test_first_order_lag_hand_value(self):
        # v' = v + (dt/tau)(v_cmd - v) with v=0, v_cmd=1, tau=0.5, dt=0.05
        s = make_uav()
        out = step_uav(s, VelocityCommand(vx=1.0), 0.5, LimitsConfig(), 0.05)
        assert out.velocity[0] == pytest.approx(0.1, abs=1e-15)
        assert out.velocity[1] == 0.0 and out.velocity[2] == 0.0

    def test_exponential_convergence_to_command(self):
        tau, dt = 0.4, 0.05
        s = make_uav()
        cmd = VelocityCommand(vx=1.2, vy=-0.9)
        n = int(5 * tau / dt)
        for _ in range(n):
            s = step_uav(s, cmd, tau, LimitsConfig(), dt)
        residual = np.linalg.norm(s.velocity - np.array([1.2, -0.9, 0.0]))
        # discrete-lag oracle: residual = |v_cmd| * (1 - dt/tau)^n
        oracle = math.hypot(1.2, 0.9) * (1.0 - dt / tau) ** n
        assert residual == pytest.approx(oracle, rel=1e-9)
        assert residual < 0.01 * math.hypot(1.2, 0.9)

    def test_speed_monotone_never_overshoots(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.uniform(-2, 2, size=3)
            cmd = VelocityCommand(v[0], v[1], v[2])
            mag = math.hypot(v[0], v[1])
            s = make_uav()
            prev = 0.0
            for _ in range(200):
                s = step_uav(s, cmd, 0.4, LimitsConfig(), DT)
                speed = math.hypot(s.velocity[0], s.velocity[1])
                assert speed >= prev - 1e-12
                assert speed <= mag + 1e-12
                prev = speed

    def test_saturation_limits_speed_and_yaw_rate(self):
        s = make_uav()
        cmd = VelocityCommand(vx=50.0, vy=40.0, vz=30.0, yaw_rate=9.0)
        limits = LimitsConfig(v_xy=3.0, v_z=1.5, yaw_rate=1.5)
        out = step_uav(s, cmd, 0.01, limits, 0.05)
        assert math.hypot(out.velocity[0], out.velocity[1]) <= 3.0 + 1e-12
        assert abs(out.velocity[2]) <= 1.5 + 1e-12
        assert out.yaw_rate == pytest.approx(1.5)

    def test_position_uses_updated_velocity(self):
        s = make_uav()
        out = step_uav(s, VelocityCommand(vx=1.0), 0.5, LimitsConfig(), 0.05)
        assert out.position[0] == pytest.approx(0.05 * out.velocity[0])

    def test_yaw_wraps_into_half_open_interval(self):
        s = make_uav(yaw=math.pi - 0.01)
        out = step_uav(
            s, VelocityCommand(yaw_rate=1.0), 0.4, LimitsConfig(), 0.05
        )
        assert -math.pi < out.yaw <= math.pi

    def test_rejects_bad_commands(self):
        s = make_uav()
        with pytest.raises(ValueError):
            step_uav(s, VelocityCommand(vx=math.nan), 0.4, LimitsConfig(), 0.05)
        with pytest.raises(ValueError):
            step_uav(s, VelocityCommand(), 0.4, LimitsConfig(), 0.0)


def _finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def held_command_cases(draw):
    """A vehicle, its limits, a held command, dt and a step count. The
    command reaches past both speed limits and the yaw-rate limit, and
    the yaw starts anywhere, so runs cross the +-pi wrap."""
    tau = draw(_finite(0.02, 2.0))
    limits = LimitsConfig(
        v_xy=draw(_finite(0.5, 5.0)),
        v_z=draw(_finite(0.2, 3.0)),
        yaw_rate=draw(_finite(0.2, 3.0)),
    )
    cmd = VelocityCommand(
        draw(_finite(-15.0, 15.0)), draw(_finite(-15.0, 15.0)),
        draw(_finite(-9.0, 9.0)), draw(_finite(-6.0, 6.0)),
    )
    state = UavState(
        (draw(_finite(-50.0, 50.0)), draw(_finite(-50.0, 50.0)), draw(_finite(0.0, 20.0))),
        (draw(_finite(-6.0, 6.0)), draw(_finite(-6.0, 6.0)), draw(_finite(-4.0, 4.0))),
        draw(_finite(-math.pi, math.pi)),
    )
    dt = draw(st.sampled_from([1.0 / 400.0, 1.0 / 200.0, 0.05]))
    return state, cmd, tau, limits, dt, draw(st.integers(1, 60))


class TestStepUavBlocks:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(held_command_cases())
    # Both saturations, and yaw crossing +pi and -pi, for certain.
    @example((UavState((0.0, 0.0, 5.0), (0.0, 0.0, 0.0), math.pi - 0.01),
              VelocityCommand(12.0, -9.0, 8.0, 5.0), 0.1, LimitsConfig(), 0.05, 40))
    @example((UavState((0.0, 0.0, 5.0), (2.0, 1.0, -1.0), -math.pi + 0.01),
              VelocityCommand(-3.0, 4.0, -8.0, -5.0), 0.1, LimitsConfig(), 1.0 / 400.0, 60))
    def test_block_equals_chained_single_steps(self, case):
        state, cmd, tau, limits, dt, n = case
        chained = state
        for _ in range(n):
            chained = step_uav(chained, cmd, tau, limits, dt)
        # repr spells every float exactly, signed zeros included
        assert repr(step_uav(state, cmd, tau, limits, dt, n)) == repr(chained)

    def test_examples_reach_both_saturations_and_the_wrap(self):
        out = step_uav(UavState((0.0, 0.0, 5.0), (0.0, 0.0, 0.0), math.pi - 0.01),
                       VelocityCommand(12.0, -9.0, 8.0, 5.0), 0.1, LimitsConfig(), 0.05, 40)
        assert math.hypot(*out.velocity[:2]) == pytest.approx(3.0)
        assert out.velocity[2] == 1.5 and out.yaw_rate == 1.5
        assert out.yaw < 0.0  # wrapped past +pi
        out = step_uav(UavState((0.0, 0.0, 5.0), (2.0, 1.0, -1.0), -math.pi + 0.01),
                       VelocityCommand(-3.0, 4.0, -8.0, -5.0), 0.1, LimitsConfig(), 1.0 / 400.0, 60)
        assert out.velocity[2] == -1.5 and out.yaw_rate == -1.5
        assert out.yaw > 0.0  # wrapped past -pi

    @pytest.mark.parametrize("steps", [0, -3])
    def test_fewer_than_one_step_raises(self, steps):
        with pytest.raises(ValueError, match="steps must be >= 1"):
            step_uav(make_uav(), VelocityCommand(vx=1.0), 0.4, LimitsConfig(), DT, steps)


# Reference ball step: the RK4 written with the three rod helpers it was
# first built from. ``step_ball`` inlines them with every float operation
# unchanged, so the two agree bit for bit.

def _rod_vector_state(ball):
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


def _angles_from_rod(u, du, prev_phi):
    ux, uy, uz = u
    s = math.hypot(ux, uy)
    theta = math.atan2(s, -uz)
    if s > 1e-12:
        phi = math.atan2(uy, ux)
        cph, sph = ux / s, uy / s
        phi_dot = (-du[0] * sph + du[1] * cph) / s
    else:
        phi = prev_phi
        cph, sph = math.cos(phi), math.sin(phi)
        phi_dot = 0.0
    cth = -uz
    theta_dot = du[0] * cth * cph + du[1] * cth * sph + du[2] * s
    return theta, phi, theta_dot, phi_dot


def _rod_accel(u, du, A, length, damping):
    ux, uy, uz = u
    dux, duy, duz = du
    a_dot_u = A[0] * ux + A[1] * uy + A[2] * uz
    lam = a_dot_u / length + (dux * dux + duy * duy + duz * duz)
    return (
        A[0] / length - lam * ux - damping * dux,
        A[1] / length - lam * uy - damping * duy,
        A[2] / length - lam * uz - damping * duz,
    )


def reference_step_ball(ball, support_accel, wind_force, params, dt):
    m = params.mass
    wx, wy, wz = wind_force
    sx, sy, sz = support_accel
    A = (wx / m - sx, wy / m - sy, wz / m - sz - params.gravity)
    L, c = params.length, params.damping
    u, du = _rod_vector_state(ball)
    ux, uy, uz = u
    dx, dy, dz = du
    h, h6 = 0.5 * dt, dt / 6.0
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
    norm = math.sqrt(nx ** 2 + ny ** 2 + nz ** 2)
    nx, ny, nz = nx / norm, ny / norm, nz / norm
    radial = mx * nx + my * ny + mz * nz
    theta, phi, theta_dot, phi_dot = _angles_from_rod(
        (nx, ny, nz), (mx - radial * nx, my - radial * ny, mz - radial * nz), ball.phi
    )
    return BallState(theta, phi, theta_dot, phi_dot)


class TestStepBallAgainstReference:
    def test_random_states_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        for i in range(5000):
            ball = BallState(
                theta=0.0 if i % 10 == 0 else float(rng.uniform(0.0, math.pi)),
                phi=float(rng.uniform(-math.pi, math.pi)),
                theta_dot=float(rng.normal(0.0, 2.0)),
                phi_dot=float(rng.normal(0.0, 2.0)),
            )
            params = BallParams(
                length=float(rng.uniform(0.3, 3.0)), mass=float(rng.uniform(0.02, 1.0)),
                damping=float(rng.uniform(0.0, 0.5)), gravity=float(rng.uniform(0.0, 20.0)),
            )
            accel = tuple(rng.normal(0.0, 3.0, 3).tolist())
            wind = tuple(rng.normal(0.0, 0.5, 3).tolist())
            dt = float(rng.choice([1.0 / 400.0, 1.0 / 100.0, 0.05]))
            assert repr(step_ball(ball, accel, wind, params, dt)) == repr(
                reference_step_ball(ball, accel, wind, params, dt)
            )

    def test_vertical_branch_bit_for_bit(self):
        # Hanging straight down with no sideways force: the rod stays
        # vertical, the azimuth is kept and its rate is zero.
        for phi in (0.0, 0.7, -2.9):
            ball = BallState(theta=0.0, phi=phi, phi_dot=1.3)
            out = step_ball(ball, (0.0, 0.0, 0.4), (0.0, 0.0, -0.01), BallParams(), DT)
            assert (out.theta, out.phi, out.phi_dot) == (0.0, phi, 0.0)
            ref = reference_step_ball(ball, (0.0, 0.0, 0.4), (0.0, 0.0, -0.01), BallParams(), DT)
            assert repr(out) == repr(ref)


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
        T = 2.0 * math.pi / pat.omega
        for t in (0.0, 1.7, 5.2):
            p1, _ = target_pose(pat, t)
            p2, _ = target_pose(pat, t + T)
            assert math.dist(p1, p2) < 1e-9

    def test_figure_eight_mean_speed_matches(self):
        pat = TrajectoryPattern(
            PatternKind.FIGURE_EIGHT, center=[0.0, 0.0, 5.0], speed=0.7, extent=3.0
        )
        T = 2.0 * math.pi / pat.omega
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
            fd = (np.asarray(p1) - p0) / h
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
        p1 = np.asarray(ball_world_position(np.zeros(3), stepped, params.length))
        v = ball_world_velocity(np.zeros(3), ball, params.length)
        assert np.allclose((p1 - p0) / h, v, atol=1e-5)

    def test_detached_ball_is_not_integrated(self):
        # once detached the ball rides in the basket; stepping it is a bug
        ball = BallState(theta=0.2, theta_dot=1.0)
        free = detach(ball)
        assert not free.attached and ball.attached
        assert (free.theta, free.theta_dot) == (0.2, 1.0)
        with pytest.raises(ValueError):
            step_ball(free, np.zeros(3), np.zeros(3), BallParams(), DT)


class TestWind:
    def test_stationary_statistics(self):
        rng = np.random.default_rng(11)
        wind = OrnsteinUhlenbeckWind(sigma=0.3, tau=2.0, rng=rng)
        samples = []
        for _ in range(200000):
            samples.append(wind.step(DT))
        arr = np.array(samples[40000:])
        assert abs(arr.mean()) < 0.02
        assert arr.std() == pytest.approx(0.3, rel=0.1)

    def test_mean_reversion(self):
        rng = np.random.default_rng(1)
        wind = OrnsteinUhlenbeckWind(mean=np.array([1.0, 0.0, 0.0]), sigma=0.0, tau=0.5, rng=rng)
        for _ in range(4000):
            f = wind.step(DT)
        assert f[0] == pytest.approx(1.0, abs=1e-3)

    def test_block_draws_equal_one_draw_per_step(self):
        # The wind draws its noise a block ahead; across block boundaries
        # its forces must stay bit-equal to one standard_normal(3) a step.
        steps = 5000
        assert steps > 2 * world._WIND_BLOCK
        mean, sigma, tau = np.array([0.3, -0.2, 0.1]), 0.4, 1.5
        rng, ref_rng = np.random.default_rng(42), np.random.default_rng(42)
        wind = OrnsteinUhlenbeckWind(mean=mean.copy(), sigma=sigma, tau=tau, rng=rng)
        a = DT / tau
        f = np.zeros(3)
        for _ in range(steps):
            f = f + (mean - f) * a + sigma * math.sqrt(2.0 * a) * ref_rng.standard_normal(3)
            assert np.array(wind.step(DT)).tobytes() == f.tobytes()


class TestInputsUnchanged:
    def test_step_uav_leaves_state_unmutated(self):
        s = UavState(np.array([1.0, -2.0, 3.0]), np.array([0.4, 0.1, -0.2]), yaw=0.3, yaw_rate=0.1)
        pos, vel = s.position, s.velocity
        cmd = VelocityCommand(vx=5.0, vy=-4.0, vz=3.0, yaw_rate=2.0)
        out = step_uav(s, cmd, 0.4, LimitsConfig(), DT)
        assert s.position is pos and s.velocity is vel
        assert pos.tolist() == [1.0, -2.0, 3.0] and vel.tolist() == [0.4, 0.1, -0.2]
        assert (s.yaw, s.yaw_rate) == (0.3, 0.1)
        assert out.position is not pos and out.velocity is not vel

    def test_step_ball_leaves_state_and_inputs_unmutated(self):
        accel, wind = np.array([0.5, -0.3, 0.2]), np.array([0.01, 0.02, -0.01])
        ball = BallState(theta=0.3, phi=0.2, theta_dot=0.5, phi_dot=-0.4)
        before = (ball.theta, ball.phi, ball.theta_dot, ball.phi_dot, ball.attached)
        out = step_ball(ball, accel, wind, BallParams(), DT)
        assert out is not ball
        assert before == (ball.theta, ball.phi, ball.theta_dot, ball.phi_dot, ball.attached)
        assert accel.tolist() == [0.5, -0.3, 0.2] and wind.tolist() == [0.01, 0.02, -0.01]


def _three_vectors():
    """Each 3-vector the run path produces, by name."""
    uav = UavState.at(1.0, -2.0, 3.0, yaw=0.4)
    ball = BallState(theta=0.3, phi=0.2, theta_dot=0.5, phi_dot=-0.4)
    stepped = step_uav(uav, VelocityCommand(1.0, -0.5, 0.2, 0.1), 0.4, LimitsConfig(), DT)
    out = {"step_uav.position": stepped.position, "step_uav.velocity": stepped.velocity}
    for kind in PatternKind:
        pat = TrajectoryPattern(kind, center=(1.0, 2.0, 5.0), heading=0.3, speed=0.5)
        out[f"target_pose.{kind.value}.p"], out[f"target_pose.{kind.value}.v"] = target_pose(pat, 1.3)
    out["ball_world_position"] = ball_world_position((0.0, 0.0, 5.0), ball, 1.5)
    out["ball_world_velocity"] = ball_world_velocity((0.5, 0.0, 0.0), ball, 1.5)
    wind = OrnsteinUhlenbeckWind(mean=(0.1, 0.0, 0.0), sigma=0.3, rng=np.random.default_rng(0))
    out["wind_step"] = wind.step(DT)
    mount = CameraMount((0.4, 0.1, -0.1))
    out["camera_position"] = camera_position(uav, mount)
    out["back_project"] = back_project(300.0, 250.0, 4.0, uav, mount, CameraIntrinsics())
    out["body_to_world"] = body_to_world(uav.position, uav.yaw, (0.4, 0.1, -0.1))
    out["world_to_body"] = world_to_body((2.0, -1.0, 4.0), uav.position, uav.yaw)
    out["gripper_point"] = gripper_point(uav, CaptureConfig())
    return out


_THREE_VECTORS = _three_vectors()


@pytest.mark.parametrize("name", sorted(_THREE_VECTORS))
def test_three_vectors_are_float_tuples(name):
    v = _THREE_VECTORS[name]
    assert type(v) is tuple and len(v) == 3
    assert all(type(c) is float for c in v)


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
