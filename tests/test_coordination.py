import math
from dataclasses import replace

import numpy as np
import pytest

from skygrab import camera as cam
from skygrab.camera import CameraIntrinsics, CameraMount, DetectionClass
from skygrab.config import CaptureConfig, ChannelConfig, LimitsConfig, MissionConfig
from skygrab.coordination import (
    Channel,
    DroneAgent,
    DroneMessage,
    MessageKind,
    MissionPhase,
    POLICIES,
    TERMINAL_PHASES,
    grab_detect,
    gripper_point,
    validate_phase_trace,
)
from skygrab.guidance import GuidanceGains
from skygrab.perception import FilterParams, PerceptionState, TrackStatus, initialize_track
from skygrab.camera import ImageDetection
from skygrab.world import UavState


def make_uav(x=0.0, y=0.0, z=3.5, yaw=0.0, vel=None):
    s = UavState.at(x, y, z, yaw=yaw)
    if vel is not None:
        s.velocity = np.asarray(vel, dtype=float)
    return s


class TestGrabDetect:
    GEOM = CaptureConfig()

    def test_ball_at_gripper_point(self):
        uav = make_uav()
        gp = gripper_point(uav, self.GEOM)
        assert grab_detect(gp, np.zeros(3), uav, self.GEOM)

    def test_ball_behind_is_outside_cone(self):
        uav = make_uav()
        gp = gripper_point(uav, self.GEOM)
        assert not grab_detect(gp - np.array([1.0, 0.0, 0.0]), np.zeros(3), uav, self.GEOM)

    def test_boundary_on_axis_inclusive(self):
        uav = make_uav()
        gp = gripper_point(uav, self.GEOM)
        ball = gp + np.array([self.GEOM.radius, 0.0, 0.0])
        assert grab_detect(ball, np.zeros(3), uav, self.GEOM)

    def test_relative_speed_bound(self):
        uav = make_uav()
        gp = gripper_point(uav, self.GEOM)
        assert not grab_detect(gp, np.array([2.0, 0.0, 0.0]), uav, self.GEOM)
        assert grab_detect(gp, np.array([1.4, 0.0, 0.0]), uav, self.GEOM)

    def test_cone_rejects_lateral_contact(self):
        uav = make_uav()
        gp = gripper_point(uav, self.GEOM)
        ball = gp + np.array([0.0, 0.0, 0.2])  # straight above, 90 deg off axis
        assert not grab_detect(ball, np.zeros(3), uav, self.GEOM)

    def test_gripper_point_rotates_with_yaw(self):
        uav = make_uav(yaw=math.pi / 2)
        gp = gripper_point(uav, self.GEOM)
        assert gp[1] == pytest.approx(0.4)
        assert gp[0] == pytest.approx(0.0, abs=1e-12)


class TestChannel:
    def msg(self, sender="tracker", t=0.0, kind=MessageKind.BALL_SIGHTING):
        pos = np.zeros(3) if kind is MessageKind.BALL_SIGHTING else None
        return DroneMessage(sender=sender, t_sent=t, kind=kind, position=pos)

    def test_lossless_zero_latency_delivers_same_tick(self):
        ch = Channel(ChannelConfig(latency=0.0, drop_probability=0.0), np.random.default_rng(0))
        statuses = ch.submit([self.msg()], 0.0)
        assert statuses[0][1] == "sent"
        assert len(ch.collect(0.0)) == 1

    def test_full_drop_delivers_nothing(self):
        ch = Channel(ChannelConfig(latency=0.0, drop_probability=1.0), np.random.default_rng(0))
        ch.submit([self.msg()], 0.0)
        assert ch.collect(0.0) == []
        assert ch.collect(100.0) == []

    def test_latency_is_exact_tick_count(self):
        # 0.2 s latency on a 20 Hz control grid: delivery on the 4th tick
        ch = Channel(ChannelConfig(latency=0.2, drop_probability=0.0), np.random.default_rng(0))
        dt = 1.0 / 20.0
        ch.submit([self.msg(t=0.0)], 0.0)
        arrivals = [k for k in range(1, 10) if ch.collect(k * dt)]
        assert arrivals == [4]

    def test_fifo_per_sender(self):
        ch = Channel(ChannelConfig(latency=0.1, drop_probability=0.0, rate_hz=100.0),
                     np.random.default_rng(0))
        for k in range(5):
            ch.submit([self.msg(t=k * 0.05)], k * 0.05)
        out = ch.collect(10.0)
        times = [m.t_sent for m in out]
        assert times == sorted(times) and len(times) == 5

    def test_rate_limit_refuses_at_send(self):
        ch = Channel(ChannelConfig(latency=0.0, drop_probability=0.0, rate_hz=5.0),
                     np.random.default_rng(0))
        s1 = ch.submit([self.msg(t=0.0)], 0.0)
        s2 = ch.submit([self.msg(t=0.05)], 0.05)
        s3 = ch.submit([self.msg(t=0.2)], 0.2)
        assert s1[0][1] == "sent"
        assert s2[0][1] == "rate_limited"
        assert s3[0][1] == "sent"

    def test_two_senders_arrive_in_global_send_order(self):
        ch = Channel(ChannelConfig(latency=0.2, drop_probability=0.0, rate_hz=100.0),
                     np.random.default_rng(0))
        order = [("tracker", "grabber"), ("grabber", "tracker"), ("tracker", "grabber")]
        sent = []
        for k, senders in enumerate(order):
            t = k * 0.05
            ch.submit([self.msg(sender=s, t=t) for s in senders], t)
            sent += [(s, t) for s in senders]
        first = [(m.sender, m.t_sent) for m in ch.collect(0.2)]
        rest = [(m.sender, m.t_sent) for m in ch.collect(10.0)]
        assert first == sent[:2]
        assert rest == sent[2:]

    def test_sighting_payload_required(self):
        with pytest.raises(ValueError):
            DroneMessage(sender="a", t_sent=0.0, kind=MessageKind.BALL_SIGHTING)
        with pytest.raises(ValueError):
            DroneMessage(
                sender="a", t_sent=0.0, kind=MessageKind.GRAB_CONFIRMED, position=np.zeros(3)
            )


def make_agent(role, collaborative=True, settings=MissionConfig()):
    return DroneAgent(
        drone_id=role,
        role=role,
        settings=settings,
        gains=GuidanceGains(),
        limits=LimitsConfig(),
        intr=CameraIntrinsics(),
        mount=CameraMount(translation=(0.4, 0.0, 0.0)),
        home=(-14.0, -6.0, 0.0),
        collaborative=collaborative,
    )


def step(agent, percep, uav, inbox, grab_flag, t):
    """``agent.step`` plus the tick's (phase before, phase after) pair."""
    before = agent.phase
    cmd, msg = agent.step(percep, uav, inbox, grab_flag, t)
    return cmd, msg, (before, agent.phase)


def make_percep():
    return PerceptionState(
        drone_params=FilterParams(init_range=None),
        ball_params=FilterParams(init_range=6.0),
        switch_range=8.0,
    )


def tracking_ball(percep, r=4.0):
    det = ImageDetection(320.0, 240.0, 30.0, 30.0, DetectionClass.BALL, 0.0)
    percep.ball_track = initialize_track(DetectionClass.BALL, det, r, percep.ball_params, 0.0)
    return percep


def confirmation():
    return DroneMessage(sender="grabber", t_sent=9.0, kind=MessageKind.GRAB_CONFIRMED)


class TestPolicyTable:
    @pytest.mark.parametrize("role", ["tracker", "grabber"])
    def test_handlers_are_the_non_terminal_phases_of_the_graph(self, role):
        # the table is closed: terminal phases have no entry, and every
        # edge leads to a phase with an entry or to a terminal phase
        table = POLICIES[role]
        assert not set(table) & set(TERMINAL_PHASES)
        for _, edges in table.values():
            assert edges <= set(table) | set(TERMINAL_PHASES)

    @pytest.mark.parametrize("role", ["tracker", "grabber"])
    @pytest.mark.parametrize("phase", TERMINAL_PHASES, ids=lambda p: p.value)
    def test_terminal_agent_holds_still_and_stays(self, role, phase):
        agent = make_agent(role)
        agent.phase = phase
        percep = tracking_ball(make_percep(), r=2.5)
        cmd, msg, change = step(agent, percep, make_uav(), [confirmation()], True, 1.0)
        assert (cmd.vx, cmd.vy, cmd.vz, cmd.yaw_rate) == (0.0, 0.0, 0.0, 0.0)
        assert msg is None
        assert change == (phase, phase)


class TestTrackerFsm:
    def test_idle_transitions_to_takeoff(self):
        agent = make_agent("tracker")
        cmd, msg, change = step(agent, make_percep(), make_uav(z=0.0), [], False, 0.0)
        assert change == (MissionPhase.IDLE, MissionPhase.TAKEOFF)
        assert msg is None

    def test_takeoff_commands_climb(self):
        agent = make_agent("tracker")
        agent.phase = MissionPhase.TAKEOFF
        cmd, _, _ = step(agent, make_percep(), make_uav(z=0.5), [], False, 1.0)
        assert cmd.vz > 0.0

    def test_ball_lock_enters_track_phase_and_emits_sighting(self):
        agent = make_agent("tracker")
        agent.phase = MissionPhase.EXPLORE
        percep = tracking_ball(make_percep())
        cmd, msg, change = step(agent, percep, make_uav(), [], False, 5.0)
        assert change == (MissionPhase.EXPLORE, MissionPhase.TRACK_DRONE)
        assert msg is None
        _, msg, _ = step(agent, percep, make_uav(), [], False, 5.05)
        assert msg is not None and msg.kind is MessageKind.BALL_SIGHTING

    def test_sighting_rate_limited_by_period(self):
        agent = make_agent("tracker")
        agent.phase = MissionPhase.TRACK_DRONE
        percep = tracking_ball(make_percep())
        _, m1, _ = step(agent, percep, make_uav(), [], False, 5.0)
        _, m2, _ = step(agent, percep, make_uav(), [], False, 5.05)
        _, m3, _ = step(agent, percep, make_uav(), [], False, 5.25)
        assert m1 is not None and m2 is None and m3 is not None

    def test_sighting_position_is_the_back_projected_ball_track(self):
        agent = make_agent("tracker")
        agent.phase = MissionPhase.TRACK_DRONE
        percep = make_percep()
        det = ImageDetection(250.0, 300.0, 30.0, 30.0, DetectionClass.BALL, 0.0)
        percep.ball_track = initialize_track(DetectionClass.BALL, det, 5.5, percep.ball_params, 0.0)
        uav = make_uav(x=1.0, y=-2.0, z=4.0, yaw=0.7)
        _, msg, _ = step(agent, percep, uav, [], False, 5.0)
        track = percep.ball_track
        assert track.status is TrackStatus.TRACKING
        assert msg.kind is MessageKind.BALL_SIGHTING
        x, y = track.pixel
        assert msg.position == cam.back_project(x, y, track.range, uav, agent.mount, agent.intr)

    def test_grab_confirmed_finishes_within_one_tick(self):
        for phase in (MissionPhase.TAKEOFF, MissionPhase.EXPLORE, MissionPhase.TRACK_DRONE):
            agent = make_agent("tracker")
            agent.phase = phase
            percep = tracking_ball(make_percep())
            _, _, change = step(agent, percep, make_uav(), [confirmation()], False, 9.1)
            assert change == (phase, MissionPhase.DONE)

    def test_grab_confirmed_ignored_while_idle(self):
        agent = make_agent("tracker")
        _, _, change = step(agent, make_percep(), make_uav(z=0.0), [confirmation()], False, 9.1)
        assert change == (MissionPhase.IDLE, MissionPhase.TAKEOFF)

    def test_mission_budget_checked_before_confirmation(self):
        agent = make_agent("tracker", settings=replace(MissionConfig(), mission_budget=9.0))
        agent.phase = MissionPhase.TRACK_DRONE
        _, _, change = step(agent, tracking_ball(make_percep()), make_uav(), [confirmation()], False, 9.1)
        assert change == (MissionPhase.TRACK_DRONE, MissionPhase.FAILED)


class TestGrabberFsm:
    def test_collaborative_idle_without_sighting(self):
        agent = make_agent("grabber")
        cmd, msg, change = step(agent, make_percep(), make_uav(z=0.0), [], False, 0.0)
        assert change == (MissionPhase.IDLE, MissionPhase.IDLE)
        assert msg is None
        assert (cmd.vx, cmd.vy, cmd.vz) == (0.0, 0.0, 0.0)

    def test_single_mode_takes_off_immediately(self):
        agent = make_agent("grabber", collaborative=False)
        _, _, change = step(agent, make_percep(), make_uav(z=0.0), [], False, 0.0)
        assert change == (MissionPhase.IDLE, MissionPhase.TAKEOFF)
        _, _, change = step(agent, make_percep(), make_uav(z=3.5), [], False, 1.0)
        assert change == (MissionPhase.TAKEOFF, MissionPhase.EXPLORE)

    def test_sighting_triggers_takeoff_then_approach(self):
        agent = make_agent("grabber")
        sighting = DroneMessage(
            sender="tracker", t_sent=0.0, kind=MessageKind.BALL_SIGHTING,
            position=(5.0, 2.0, 3.5),
        )
        _, _, change1 = step(agent, make_percep(), make_uav(z=0.0), [sighting], False, 0.0)
        assert change1 == (MissionPhase.IDLE, MissionPhase.TAKEOFF)
        _, _, change2 = step(agent, make_percep(), make_uav(z=3.5), [], False, 1.0)
        assert change2 == (MissionPhase.TAKEOFF, MissionPhase.APPROACH_HANDOFF)

    def test_approach_flies_toward_sighting(self):
        agent = make_agent("grabber")
        agent.phase = MissionPhase.APPROACH_HANDOFF
        p = (8.0, 3.0, 3.5)
        agent.latest_sighting = p
        agent.latest_sighting_t = 0.0
        cmd, _, _ = step(agent, make_percep(), make_uav(), [], False, 0.05)
        ip = cmd.vx * (p[0] - 0.0) + cmd.vy * (p[1] - 0.0)
        assert ip > 0.0

    def test_ball_lock_enters_servo(self):
        agent = make_agent("grabber")
        agent.phase = MissionPhase.APPROACH_HANDOFF
        agent.latest_sighting = (5.0, 0.0, 3.5)
        agent.latest_sighting_t = 0.0
        percep = tracking_ball(make_percep())
        _, _, change = step(agent, percep, make_uav(), [], False, 1.0)
        assert change == (MissionPhase.APPROACH_HANDOFF, MissionPhase.SERVO_BALL)

    def test_aligned_servo_enters_grab(self):
        agent = make_agent("grabber")
        agent.phase = MissionPhase.SERVO_BALL
        percep = tracking_ball(make_percep(), r=2.5)
        _, _, change = step(agent, percep, make_uav(), [], False, 2.0)
        assert change == (MissionPhase.SERVO_BALL, MissionPhase.GRAB)

    def test_grab_flag_confirms_once_and_retreats(self):
        agent = make_agent("grabber")
        agent.phase = MissionPhase.GRAB
        agent.grab_entered_t = 0.0
        percep = tracking_ball(make_percep(), r=0.5)
        cmd, msg, change = step(agent, percep, make_uav(), [], True, 1.0)
        assert change == (MissionPhase.GRAB, MissionPhase.RETREAT_LAND)
        assert msg is not None and msg.kind is MessageKind.GRAB_CONFIRMED
        # no edge leads back to GRAB, so the confirmation is sent once
        _, retreat_edges = POLICIES["grabber"][MissionPhase.RETREAT_LAND]
        assert retreat_edges <= set(TERMINAL_PHASES)

    def test_track_loss_in_grab_reapproaches_with_sighting(self):
        agent = make_agent("grabber")
        agent.phase = MissionPhase.GRAB
        agent.grab_entered_t = 0.0
        agent.latest_sighting = (5.0, 0.0, 3.5)
        agent.latest_sighting_t = 0.9
        _, _, change = step(agent, make_percep(), make_uav(), [], False, 1.0)
        assert change == (MissionPhase.GRAB, MissionPhase.APPROACH_HANDOFF)

    def test_track_loss_single_mode_reexplores(self):
        agent = make_agent("grabber", collaborative=False)
        agent.phase = MissionPhase.GRAB
        agent.grab_entered_t = 0.0
        _, _, change = step(agent, make_percep(), make_uav(), [], False, 1.0)
        assert change == (MissionPhase.GRAB, MissionPhase.EXPLORE)

    def test_retreat_descends_at_home_then_done(self):
        agent = make_agent("grabber")
        agent.phase = MissionPhase.RETREAT_LAND
        home_uav = make_uav(x=-14.0, y=-6.0, z=2.0)
        cmd, _, _ = step(agent, make_percep(), home_uav, [], True, 50.0)
        assert cmd.vz < 0.0
        landed = make_uav(x=-14.0, y=-6.0, z=0.02)
        _, _, change = step(agent, make_percep(), landed, [], True, 60.0)
        assert change == (MissionPhase.RETREAT_LAND, MissionPhase.DONE)

    def test_mission_budget_fails_out(self):
        agent = make_agent("grabber", settings=replace(MissionConfig(), mission_budget=10.0))
        agent.phase = MissionPhase.APPROACH_HANDOFF
        agent.latest_sighting = (5.0, 0.0, 3.5)
        _, _, change = step(agent, make_percep(), make_uav(), [], False, 10.1)
        assert change == (MissionPhase.APPROACH_HANDOFF, MissionPhase.FAILED)

    def test_sighting_folded_before_budget_check(self):
        agent = make_agent("grabber", settings=replace(MissionConfig(), mission_budget=10.0))
        sighting = DroneMessage(
            sender="tracker", t_sent=10.05, kind=MessageKind.BALL_SIGHTING, position=(5.0, 0.0, 3.5),
        )
        _, _, change = step(agent, make_percep(), make_uav(z=0.0), [sighting], False, 10.1)
        assert change == (MissionPhase.IDLE, MissionPhase.FAILED)
        assert (agent.latest_sighting, agent.latest_sighting_t) == ((5.0, 0.0, 3.5), 10.05)

    def test_nominal_collaborative_phase_sequence(self):
        # the canonical happy path: idle, takeoff, approach, servo, grab,
        # retreat, done; exercised end to end in the engine tests, spot
        # checked here against the declared graph
        seq = [
            (MissionPhase.IDLE, MissionPhase.TAKEOFF),
            (MissionPhase.TAKEOFF, MissionPhase.APPROACH_HANDOFF),
            (MissionPhase.APPROACH_HANDOFF, MissionPhase.SERVO_BALL),
            (MissionPhase.SERVO_BALL, MissionPhase.GRAB),
            (MissionPhase.GRAB, MissionPhase.RETREAT_LAND),
            (MissionPhase.RETREAT_LAND, MissionPhase.DONE),
        ]
        validate_phase_trace(seq, "grabber")


class TestTraceValidator:
    def test_graphs_have_terminal_sinks(self):
        P = MissionPhase
        to_done = {
            "tracker": [(P.IDLE, P.TAKEOFF), (P.TAKEOFF, P.DONE)],
            "grabber": [
                (P.IDLE, P.TAKEOFF), (P.TAKEOFF, P.EXPLORE), (P.EXPLORE, P.SERVO_BALL),
                (P.SERVO_BALL, P.GRAB), (P.GRAB, P.RETREAT_LAND), (P.RETREAT_LAND, P.DONE),
            ],
        }
        for role, done in to_done.items():
            for trace in (done, [(P.IDLE, P.FAILED)]):
                validate_phase_trace(trace, role)
                end = trace[-1][1]
                with pytest.raises(
                    ValueError, match=f"^illegal transition {end.value} -> takeoff for role {role}$"
                ):
                    validate_phase_trace(trace + [(end, P.TAKEOFF)], role)

    def test_illegal_edge_rejected(self):
        with pytest.raises(ValueError):
            validate_phase_trace([(MissionPhase.IDLE, MissionPhase.GRAB)], "grabber")

    def test_discontinuous_trace_rejected(self):
        with pytest.raises(ValueError):
            validate_phase_trace(
                [
                    (MissionPhase.IDLE, MissionPhase.TAKEOFF),
                    (MissionPhase.EXPLORE, MissionPhase.SERVO_BALL),
                ],
                "grabber",
            )

    def test_must_start_from_idle(self):
        with pytest.raises(ValueError):
            validate_phase_trace([(MissionPhase.TAKEOFF, MissionPhase.EXPLORE)], "tracker")


class TestBallWorldEstimate:
    def test_reconstructs_truth_from_clean_track(self):
        agent = make_agent("tracker")
        agent.phase = MissionPhase.TRACK_DRONE
        percep = make_percep()
        uav = make_uav(x=1.0, y=2.0, z=3.5, yaw=0.3)
        truth = np.array([5.0, 3.0, 3.2])
        x, y, depth = cam.project(truth, uav, agent.mount, agent.intr)
        det = ImageDetection(x, y, 30.0, 30.0, DetectionClass.BALL, 0.0)
        percep.ball_track = initialize_track(DetectionClass.BALL, det, depth, percep.ball_params, 0.0)
        _, msg, _ = step(agent, percep, uav, [], False, 5.0)
        assert msg.kind is MessageKind.BALL_SIGHTING
        assert np.allclose(msg.position, truth, atol=1e-9)
