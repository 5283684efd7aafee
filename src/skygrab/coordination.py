"""Mission state machines, the inter-drone message channel, and grab
detection.

Two roles exist. The tracker's job is to find the ball, keep it in its
camera field of view from a standoff, and broadcast its world-frame
position. The grabber either flies to the communicated position
(collaborative mode) or explores on its own (single mode), servos onto
the ball, ramps its standoff down to contact, and confirms the grab.

Every phase transition must be an edge of the per-role graphs declared
at the bottom of this module; the run-log validator enforces that.
"""

from __future__ import annotations

import enum
import heapq
import math
from dataclasses import dataclass, replace

import numpy as np

from . import camera as cam
from .frames import Vec3, wrap_angle
from .camera import CameraIntrinsics, CameraMount, DetectionClass
from .guidance import (
    CommandLimits,
    ExplorePlan,
    GuidanceError,
    GuidanceGains,
    explore_command,
    goto_command,
    saturate,
    servo_command,
)
from .perception import PerceptionState, TrackStatus
from .world import UavState, VelocityCommand


class MissionPhase(enum.Enum):
    IDLE = "idle"
    TAKEOFF = "takeoff"
    EXPLORE = "explore"
    TRACK_DRONE = "track_drone"
    APPROACH_HANDOFF = "approach_handoff"
    SERVO_BALL = "servo_ball"
    GRAB = "grab"
    RETREAT_LAND = "retreat_land"
    DONE = "done"
    FAILED = "failed"


TERMINAL_PHASES = (MissionPhase.DONE, MissionPhase.FAILED)

# Nose weave while flying exploration lanes, so the camera sweeps the
# ground abeam of the track.
_EXPLORE_SCAN_AMPLITUDE = 0.7  # rad


class MessageKind(enum.Enum):
    BALL_SIGHTING = "ball_sighting"
    GRAB_CONFIRMED = "grab_confirmed"


@dataclass
class DroneMessage:
    sender: str
    t_sent: float
    kind: MessageKind
    position: Vec3 | None = None      # world-frame ball estimate

    def __post_init__(self):
        if (self.kind is MessageKind.BALL_SIGHTING) != (self.position is not None):
            raise ValueError("ball_sighting messages carry a position; others do not")


# ---------------------------------------------------------------------------
# Message channel
# ---------------------------------------------------------------------------

@dataclass
class ChannelModel:
    latency: float = 0.1
    drop_probability: float = 0.05
    rate_limit_hz: float = 5.0

    def __post_init__(self):
        if self.latency < 0.0 or not 0.0 <= self.drop_probability <= 1.0 or self.rate_limit_hz <= 0.0:
            raise ValueError("invalid channel model")


class Channel:
    """Lossy, delayed, rate-limited broadcast channel.

    Messages are independently dropped, survivors are delivered at
    t_sent + latency in send order (constant latency keeps per-sender
    FIFO), and sends exceeding the per-sender-and-kind rate are refused
    at the source.
    """

    _TIME_EPS = 1e-9

    def __init__(self, model: ChannelModel, rng: np.random.Generator):
        self.model = model
        self.rng = rng
        self._queue: list[tuple[float, int, DroneMessage]] = []
        self._seq = 0
        self._last_send: dict[tuple[str, MessageKind], float] = {}

    def submit(self, messages, t: float) -> list[tuple[DroneMessage, str]]:
        """Admit messages at time t; returns (message, status) pairs with
        status in {sent, dropped, rate_limited}."""
        period = 1.0 / self.model.rate_limit_hz
        out = []
        for msg in messages:
            key = (msg.sender, msg.kind)
            last = self._last_send.get(key)
            if last is not None and t - last < period - self._TIME_EPS:
                out.append((msg, "rate_limited"))
                continue
            self._last_send[key] = t
            if self.rng.random() < self.model.drop_probability:
                out.append((msg, "dropped"))
                continue
            heapq.heappush(self._queue, (t + self.model.latency, self._seq, msg))
            self._seq += 1
            out.append((msg, "sent"))
        return out

    def collect(self, t: float) -> list[DroneMessage]:
        """All messages whose delivery time has arrived, in send order."""
        ready = []
        while self._queue and self._queue[0][0] <= t + self._TIME_EPS:
            ready.append(heapq.heappop(self._queue)[2])
        return ready


# ---------------------------------------------------------------------------
# Grab detection
# ---------------------------------------------------------------------------

@dataclass
class CaptureGeometry:
    """Geometric stand-in for the passive basket end effector."""

    radius: float = 0.25
    cone_half_angle: float = math.radians(45.0)
    max_rel_speed: float = 1.5
    gripper_offset: Vec3 = (0.4, 0.0, 0.0)


def gripper_point(uav: UavState, geom: CaptureGeometry) -> Vec3:
    """World position of the capture reference point."""
    c, s = math.cos(uav.yaw), math.sin(uav.yaw)
    ox, oy, oz = geom.gripper_offset
    px, py, pz = uav.position
    return (px + c * ox - s * oy, py + s * ox + c * oy, pz + oz)


def grab_detect(ball_pos, ball_vel, uav: UavState, geom: CaptureGeometry) -> bool:
    """True when the ball sits in the capture volume.

    Requires the ball within the capture radius of the gripper point
    (inclusive), inside the forward approach cone, and with relative
    speed at most the configured bound.
    """
    gp = gripper_point(uav, geom)
    dist = math.dist(ball_pos, gp)
    if dist > geom.radius:
        return False
    if dist > 1e-9:
        c, s = math.cos(uav.yaw), math.sin(uav.yaw)
        cos_ang = ((ball_pos[0] - gp[0]) * c + (ball_pos[1] - gp[1]) * s) / dist
        if cos_ang < math.cos(geom.cone_half_angle) - 1e-12:
            return False
    return math.dist(ball_vel, uav.velocity) <= geom.max_rel_speed


# ---------------------------------------------------------------------------
# Mission state machines
# ---------------------------------------------------------------------------

@dataclass
class MissionSettings:
    """Shared coordination parameters (see configs for the documented set)."""

    takeoff_altitude: float = 3.5
    takeoff_speed: float = 1.0
    explore_area: tuple[float, float, float, float] = (-15.0, 15.0, -10.0, 10.0)
    explore_speed: float = 1.5
    lane_spacing: float = 4.0
    yaw_gain: float = 1.5
    tracker_standoff: float = 5.0
    grabber_standoff: float = 2.5
    drone_approach_range: float = 5.0
    approach_speed: float = 2.5
    arrival_radius: float = 3.0
    scan_yaw_rate: float = 0.6
    align_px: float = 60.0
    align_range_tol: float = 1.0
    grab_ramp_rate: float = 0.5
    grab_closing_bias: float = 0.8
    grab_time_budget: float = 10.0
    sighting_period: float = 0.2
    land_speed: float = 0.7
    home_tolerance: float = 1.0
    memory_timeout: float = 12.0
    mission_budget: float = math.inf


def ball_world_estimate(
    percep: PerceptionState,
    uav: UavState,
    mount: CameraMount,
    intr: CameraIntrinsics,
) -> Vec3:
    """World-frame ball position from the own ball track: the filtered
    pixel center back-projected at the filtered range."""
    track = percep.ball_track
    x, y = track.pixel
    return cam.back_project(x, y, track.range, uav, mount, intr)


@dataclass
class DroneAgent:
    """One drone's mission state plus everything its policy needs."""

    drone_id: str
    role: str  # "tracker" or "grabber"
    settings: MissionSettings
    gains: GuidanceGains
    limits: CommandLimits
    intr: CameraIntrinsics
    mount: CameraMount
    home: Vec3
    collaborative: bool = True
    phase: MissionPhase = MissionPhase.IDLE
    explore: ExplorePlan = None
    latest_sighting: Vec3 | None = None
    latest_sighting_t: float = -math.inf
    last_target_point: Vec3 | None = None
    last_target_t: float = -math.inf
    grab_entered_t: float = 0.0
    last_sighting_sent: float = -math.inf
    confirm_sent: bool = False

    def __post_init__(self):
        if self.explore is None:
            self.explore = ExplorePlan.lawnmower(
                self.settings.explore_area,
                self.settings.lane_spacing,
                self.settings.takeoff_altitude,
            )

    def step(self, percep, uav, inbox, grab_flag, t):
        self._remember_target(percep, uav, t)
        if self.role == "tracker":
            return tracker_step(self, percep, uav, inbox, t)
        return grabber_step(self, percep, uav, inbox, grab_flag, t)

    def _remember_target(self, percep, uav, t):
        # Own memory of where the target group was last seen, used to
        # restart a search near the loss point instead of blind lanes.
        track = None
        if percep.ball_track.status is TrackStatus.TRACKING:
            track = percep.ball_track
        elif percep.drone_track.status is TrackStatus.TRACKING:
            track = percep.drone_track
        if track is not None:
            x, y = track.pixel
            self.last_target_point = cam.back_project(
                x, y, track.range, uav, self.mount, self.intr
            )
            self.last_target_t = t


def _finish(agent, cmd, msgs, transitions, new_phase=None):
    if new_phase is not None and new_phase is not agent.phase:
        transitions.append((agent.phase, new_phase))
        agent.phase = new_phase
    return cmd, msgs, transitions


def _zero(agent) -> VelocityCommand:
    return VelocityCommand()


def _takeoff_cmd(agent, uav) -> VelocityCommand:
    err = agent.settings.takeoff_altitude - uav.position[2]
    vz = min(agent.settings.takeoff_speed, max(0.0, 1.5 * err))
    return VelocityCommand(vz=vz)


def _at_altitude(agent, uav) -> bool:
    return uav.position[2] >= agent.settings.takeoff_altitude - 0.2


def _servo(agent, track, uav, r_des, closing_bias=0.0) -> VelocityCommand:
    gains = replace(agent.gains, r_des=r_des)
    cmd = servo_command(track, agent.intr, gains, uav.yaw, closing_bias)
    return saturate(cmd, agent.limits)


def _search_cmd(agent, percep, uav, t=None) -> VelocityCommand:
    """Pre-lock guidance: home on any usable track; failing that, search
    near the remembered target position; failing that, fly the pattern."""
    active = percep.active_track()
    if active.status is not TrackStatus.UNINITIALIZED:
        r_des = (
            agent.settings.drone_approach_range
            if active.cls is DetectionClass.DRONE
            else agent.settings.tracker_standoff
        )
        try:
            return _servo(agent, active, uav, r_des)
        except GuidanceError:
            pass
    if (
        t is not None
        and agent.last_target_point is not None
        and t - agent.last_target_t < agent.settings.memory_timeout
    ):
        goal = agent.last_target_point
        if math.dist(goal, uav.position) > agent.settings.arrival_radius:
            return saturate(
                goto_command(goal, uav, agent.settings.approach_speed, agent.settings.yaw_gain),
                agent.limits,
            )
    return saturate(
        explore_command(
            agent.explore, uav, agent.settings.explore_speed, agent.settings.yaw_gain,
            t=t, scan_amplitude=_EXPLORE_SCAN_AMPLITUDE,
        ),
        agent.limits,
    )


def tracker_step(agent, percep, uav, inbox, t):
    """Tracker policy: explore, hold the ball in FOV from a standoff,
    broadcast sightings, finish only once the grab is confirmed."""
    msgs: list[DroneMessage] = []
    transitions: list[tuple[MissionPhase, MissionPhase]] = []
    st = agent.settings

    if agent.phase in TERMINAL_PHASES:
        return _finish(agent, _zero(agent), msgs, transitions)
    if t > st.mission_budget:
        return _finish(agent, _zero(agent), msgs, transitions, MissionPhase.FAILED)
    if any(m.kind is MessageKind.GRAB_CONFIRMED for m in inbox) and agent.phase in (
        MissionPhase.TAKEOFF,
        MissionPhase.EXPLORE,
        MissionPhase.TRACK_DRONE,
    ):
        return _finish(agent, _zero(agent), msgs, transitions, MissionPhase.DONE)

    if agent.phase is MissionPhase.IDLE:
        return _finish(agent, _zero(agent), msgs, transitions, MissionPhase.TAKEOFF)

    if agent.phase is MissionPhase.TAKEOFF:
        if _at_altitude(agent, uav):
            return _finish(agent, _search_cmd(agent, percep, uav, t), msgs, transitions, MissionPhase.EXPLORE)
        return _finish(agent, _takeoff_cmd(agent, uav), msgs, transitions)

    ball = percep.ball_track

    if agent.phase is MissionPhase.EXPLORE:
        if ball.status is TrackStatus.TRACKING:
            cmd = _servo(agent, ball, uav, st.tracker_standoff)
            return _finish(agent, cmd, msgs, transitions, MissionPhase.TRACK_DRONE)
        return _finish(agent, _search_cmd(agent, percep, uav, t), msgs, transitions)

    # TRACK_DRONE: hold standoff on the ball, fall back to exploring on loss.
    if ball.status is TrackStatus.UNINITIALIZED:
        return _finish(agent, _search_cmd(agent, percep, uav, t), msgs, transitions, MissionPhase.EXPLORE)
    cmd = _servo(agent, ball, uav, st.tracker_standoff)
    if ball.status is TrackStatus.TRACKING and t - agent.last_sighting_sent >= st.sighting_period - 1e-9:
        msgs.append(
            DroneMessage(
                sender=agent.drone_id,
                t_sent=t,
                kind=MessageKind.BALL_SIGHTING,
                position=ball_world_estimate(percep, uav, agent.mount, agent.intr),
            )
        )
        agent.last_sighting_sent = t
    return _finish(agent, cmd, msgs, transitions)


def grabber_step(agent, percep, uav, inbox, grab_flag, t):
    """Grabber policy: reach the ball (via handoff or own exploration),
    servo to standoff, ramp in to contact, confirm, retreat, land."""
    msgs: list[DroneMessage] = []
    transitions: list[tuple[MissionPhase, MissionPhase]] = []
    st = agent.settings

    for m in inbox:
        if m.kind is MessageKind.BALL_SIGHTING and m.t_sent > agent.latest_sighting_t:
            agent.latest_sighting = m.position
            agent.latest_sighting_t = m.t_sent

    if agent.phase in TERMINAL_PHASES:
        return _finish(agent, _zero(agent), msgs, transitions)
    if t > st.mission_budget:
        return _finish(agent, _zero(agent), msgs, transitions, MissionPhase.FAILED)

    ball = percep.ball_track

    if agent.phase is MissionPhase.IDLE:
        if not agent.collaborative or agent.latest_sighting is not None:
            return _finish(agent, _takeoff_cmd(agent, uav), msgs, transitions, MissionPhase.TAKEOFF)
        return _finish(agent, _zero(agent), msgs, transitions)

    if agent.phase is MissionPhase.TAKEOFF:
        if _at_altitude(agent, uav):
            nxt = MissionPhase.APPROACH_HANDOFF if agent.collaborative else MissionPhase.EXPLORE
            return _finish(agent, _zero(agent), msgs, transitions, nxt)
        return _finish(agent, _takeoff_cmd(agent, uav), msgs, transitions)

    if agent.phase is MissionPhase.EXPLORE:
        if ball.status is TrackStatus.TRACKING:
            return _finish(
                agent, _servo(agent, ball, uav, st.grabber_standoff), msgs, transitions, MissionPhase.SERVO_BALL
            )
        return _finish(agent, _search_cmd(agent, percep, uav, t), msgs, transitions)

    if agent.phase is MissionPhase.APPROACH_HANDOFF:
        if ball.status is TrackStatus.TRACKING:
            return _finish(
                agent, _servo(agent, ball, uav, st.grabber_standoff), msgs, transitions, MissionPhase.SERVO_BALL
            )
        goal = agent.latest_sighting
        if math.dist(goal, uav.position) > st.arrival_radius:
            cmd = goto_command(goal, uav, st.approach_speed, st.yaw_gain)
        else:
            # On station without a ball track: face the communicated point
            # while the sighting is fresh, otherwise sweep the camera.
            bearing_err = 0.0
            dx, dy = goal[0] - uav.position[0], goal[1] - uav.position[1]
            if abs(dx) + abs(dy) > 1e-9:
                bearing_err = wrap_angle(math.atan2(dy, dx) - uav.yaw)
            fresh = t - agent.latest_sighting_t < 1.0
            yaw_rate = st.yaw_gain * bearing_err if fresh else st.scan_yaw_rate
            cmd = VelocityCommand(
                vz=min(max(1.0 * (goal[2] - uav.position[2]), -st.land_speed), st.land_speed),
                yaw_rate=yaw_rate,
            )
        return _finish(agent, saturate(cmd, agent.limits), msgs, transitions)

    def _reapproach():
        if agent.collaborative and agent.latest_sighting is not None:
            return MissionPhase.APPROACH_HANDOFF
        return MissionPhase.EXPLORE

    if agent.phase is MissionPhase.SERVO_BALL:
        if ball.status is TrackStatus.UNINITIALIZED:
            return _finish(agent, _search_cmd(agent, percep, uav, t), msgs, transitions, _reapproach())
        cmd = _servo(agent, ball, uav, st.grabber_standoff)
        x, y = ball.pixel
        aligned = (
            ball.status is TrackStatus.TRACKING
            and abs(x - agent.intr.cx) <= st.align_px
            and abs(y - agent.intr.cy) <= st.align_px
            and abs(ball.range - st.grabber_standoff) <= st.align_range_tol
        )
        if aligned:
            agent.grab_entered_t = t
            return _finish(agent, cmd, msgs, transitions, MissionPhase.GRAB)
        return _finish(agent, cmd, msgs, transitions)

    if agent.phase is MissionPhase.GRAB:
        if grab_flag:
            if not agent.confirm_sent:
                msgs.append(
                    DroneMessage(sender=agent.drone_id, t_sent=t, kind=MessageKind.GRAB_CONFIRMED)
                )
                agent.confirm_sent = True
            return _finish(agent, _zero(agent), msgs, transitions, MissionPhase.RETREAT_LAND)
        if ball.status is TrackStatus.UNINITIALIZED or t - agent.grab_entered_t > st.grab_time_budget:
            return _finish(agent, _search_cmd(agent, percep, uav, t), msgs, transitions, _reapproach())
        ramp = st.grabber_standoff - st.grab_ramp_rate * (t - agent.grab_entered_t)
        cmd = _servo(agent, ball, uav, max(0.0, ramp), closing_bias=st.grab_closing_bias)
        return _finish(agent, cmd, msgs, transitions)

    # RETREAT_LAND: home first at altitude, then descend.
    dx = agent.home[0] - uav.position[0]
    dy = agent.home[1] - uav.position[1]
    if math.hypot(dx, dy) > st.home_tolerance:
        goal = (agent.home[0], agent.home[1], st.takeoff_altitude)
        cmd = saturate(goto_command(goal, uav, st.approach_speed, st.yaw_gain), agent.limits)
        return _finish(agent, cmd, msgs, transitions)
    if uav.position[2] <= 0.05:
        return _finish(agent, _zero(agent), msgs, transitions, MissionPhase.DONE)
    return _finish(agent, VelocityCommand(vz=-st.land_speed), msgs, transitions)


# ---------------------------------------------------------------------------
# Declared phase graphs and the trace validator
# ---------------------------------------------------------------------------

P = MissionPhase
TRACKER_GRAPH: dict[MissionPhase, set[MissionPhase]] = {
    P.IDLE: {P.TAKEOFF, P.FAILED},
    P.TAKEOFF: {P.EXPLORE, P.DONE, P.FAILED},
    P.EXPLORE: {P.TRACK_DRONE, P.DONE, P.FAILED},
    P.TRACK_DRONE: {P.EXPLORE, P.DONE, P.FAILED},
    P.DONE: set(),
    P.FAILED: set(),
}
GRABBER_GRAPH: dict[MissionPhase, set[MissionPhase]] = {
    P.IDLE: {P.TAKEOFF, P.FAILED},
    P.TAKEOFF: {P.EXPLORE, P.APPROACH_HANDOFF, P.FAILED},
    P.EXPLORE: {P.SERVO_BALL, P.FAILED},
    P.APPROACH_HANDOFF: {P.SERVO_BALL, P.FAILED},
    P.SERVO_BALL: {P.GRAB, P.APPROACH_HANDOFF, P.EXPLORE, P.FAILED},
    P.GRAB: {P.RETREAT_LAND, P.APPROACH_HANDOFF, P.EXPLORE, P.FAILED},
    P.RETREAT_LAND: {P.DONE, P.FAILED},
    P.DONE: set(),
    P.FAILED: set(),
}
del P

PHASE_GRAPHS = {"tracker": TRACKER_GRAPH, "grabber": GRABBER_GRAPH}


def validate_phase_trace(transitions, role: str) -> None:
    """Check a (from, to) transition sequence against the declared graph.

    Raises ValueError on an illegal edge, a transition out of a terminal
    phase, or a chain that does not start from IDLE.
    """
    graph = PHASE_GRAPHS[role]
    prev_to = MissionPhase.IDLE
    for i, (src, dst) in enumerate(transitions):
        if i == 0 and src is not MissionPhase.IDLE:
            raise ValueError(f"trace must start from idle, got {src.value}")
        if src is not prev_to:
            raise ValueError(f"discontinuous trace at step {i}: {prev_to.value} -> {src.value}")
        if dst not in graph[src]:
            raise ValueError(f"illegal transition {src.value} -> {dst.value} for role {role}")
        prev_to = dst
