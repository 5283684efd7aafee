"""Mission state machines, the inter-drone message channel, and grab
detection.

Two roles exist. The tracker's job is to find the ball, keep it in its
camera field of view from a standoff, and broadcast its world-frame
position. The grabber either flies to the communicated position
(collaborative mode) or explores on its own (single mode), servos onto
the ball, ramps its standoff down to contact, and confirms the grab.

Each role's mission is one table, ``POLICIES`` at the bottom of this
module, that maps every non-terminal phase to its handler and its
edges; terminal phases have no entry. ``DroneAgent.step`` does the work
every phase shares (target memory, inbox, the terminal and budget
checks) and then runs the handler of the current phase, which may change
the phase and returns the command and at most one message. Every phase
transition must be one of the edges of the phase it leaves; the run-log
validator enforces that.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import camera as cam
from .frames import Vec3, body_to_world, world_to_body
from .camera import CameraIntrinsics, CameraMount, DetectionClass
from .config import CaptureConfig, ChannelConfig, LimitsConfig, MissionConfig
from .guidance import (
    ExplorePlan,
    GuidanceGains,
    bearing_error,
    explore_command,
    goto_command,
    lawnmower_waypoints,
    saturate,
    servo_command,
)
from .perception import TrackStatus
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

class Channel:
    """Lossy, delayed, rate-limited broadcast channel.

    Messages are independently dropped, survivors are delivered at
    t_sent + latency in send order, and sends exceeding the
    per-sender-and-kind rate are refused at the source.

    ``submit`` must be called at nondecreasing times. The latency is
    constant, so delivery times never decrease either, and the queue is
    a FIFO.
    """

    _TIME_EPS = 1e-9

    def __init__(self, config: ChannelConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng
        self._queue: deque[tuple[float, DroneMessage]] = deque()
        self._last_send: dict[tuple[str, MessageKind], float] = {}

    def submit(self, messages, t: float) -> list[tuple[DroneMessage, str]]:
        """Admit messages at time t; returns (message, status) pairs with
        status in {sent, dropped, rate_limited}."""
        period = 1.0 / self.config.rate_hz
        out = []
        for msg in messages:
            key = (msg.sender, msg.kind)
            last = self._last_send.get(key)
            if last is not None and t - last < period - self._TIME_EPS:
                out.append((msg, "rate_limited"))
                continue
            self._last_send[key] = t
            if self.rng.random() < self.config.drop_probability:
                out.append((msg, "dropped"))
                continue
            self._queue.append((t + self.config.latency, msg))
            out.append((msg, "sent"))
        return out

    def collect(self, t: float) -> list[DroneMessage]:
        """All messages whose delivery time has arrived, in send order."""
        ready = []
        while self._queue and self._queue[0][0] <= t + self._TIME_EPS:
            ready.append(self._queue.popleft()[1])
        return ready


# ---------------------------------------------------------------------------
# Grab detection
# ---------------------------------------------------------------------------

def gripper_point(uav: UavState, capture: CaptureConfig) -> Vec3:
    """World position of the capture reference point."""
    return body_to_world(uav.position, uav.yaw, capture.gripper_offset)


def grab_detect(ball_pos, ball_vel, uav: UavState, capture: CaptureConfig) -> bool:
    """True when the ball sits in the capture volume of the passive basket.

    Requires the ball within the capture radius of the gripper point
    (inclusive), inside the forward approach cone, and with relative
    speed at most the configured bound.
    """
    gp = gripper_point(uav, capture)
    dist = math.dist(ball_pos, gp)
    if dist > capture.radius:
        return False
    if dist > 1e-9:
        cos_ang = world_to_body(ball_pos, gp, uav.yaw)[0] / dist
        if cos_ang < math.cos(math.radians(capture.cone_half_angle_deg)) - 1e-12:
            return False
    return math.dist(ball_vel, uav.velocity) <= capture.max_rel_speed


# ---------------------------------------------------------------------------
# Mission agent
# ---------------------------------------------------------------------------

@dataclass
class DroneAgent:
    """One drone's mission state plus everything its policy needs."""

    drone_id: str
    role: str  # "tracker" or "grabber"
    settings: MissionConfig
    gains: GuidanceGains
    limits: LimitsConfig
    intr: CameraIntrinsics
    mount: CameraMount
    home: Vec3
    collaborative: bool = True
    phase: MissionPhase = field(init=False, default=MissionPhase.IDLE)
    explore: ExplorePlan = field(init=False)
    latest_sighting: Vec3 | None = field(init=False, default=None)
    latest_sighting_t: float = field(init=False, default=-math.inf)
    last_target_point: Vec3 | None = field(init=False, default=None)
    last_target_t: float = field(init=False, default=-math.inf)
    grab_entered_t: float = field(init=False, default=0.0)
    last_sighting_sent: float = field(init=False, default=-math.inf)

    def __post_init__(self):
        self.explore = ExplorePlan(lawnmower_waypoints(
            self.settings.explore_area,
            self.settings.lane_spacing,
            self.settings.takeoff_altitude,
        ))

    def step(self, percep, uav, inbox, grab_flag, t):
        """One control tick; returns (command, message or None).

        Remembers the target, folds the inbox, holds still once terminal,
        fails out past the mission budget, ends the mission on a
        ``GRAB_CONFIRMED`` in a phase with a DONE edge, and otherwise runs
        the handler of this phase. ``POLICIES`` holds the handler and the
        edges of every non-terminal phase of this role. ``grab_flag`` is
        the engine's contact check: the ball is in this drone's basket.
        """
        self._remember_target(percep, uav, t)
        confirmed = False
        for m in inbox:
            if m.kind is MessageKind.GRAB_CONFIRMED:
                confirmed = True
            elif m.t_sent > self.latest_sighting_t:
                self.latest_sighting = m.position
                self.latest_sighting_t = m.t_sent
        if self.phase in TERMINAL_PHASES:
            return VelocityCommand(), None
        budget = self.settings.mission_budget
        if budget is not None and t > budget:
            return _hold(self, MissionPhase.FAILED)
        handler, edges = POLICIES[self.role][self.phase]
        if confirmed and MissionPhase.DONE in edges:
            return _hold(self, MissionPhase.DONE)
        return handler(self, percep, uav, grab_flag, t)

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


def _hold(agent, phase):
    """Enter phase with a zero command and no message."""
    agent.phase = phase
    return VelocityCommand(), None


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


def _search_cmd(agent, percep, uav, t) -> VelocityCommand:
    """Pre-lock guidance: home on any usable track; failing that, search
    near the remembered target position; failing that, fly the pattern."""
    st = agent.settings
    active = percep.active_track()
    if active.status is not TrackStatus.UNINITIALIZED:
        r_des = st.drone_approach_range if active.cls is DetectionClass.DRONE else st.tracker_standoff
        return _servo(agent, active, uav, r_des)
    if agent.last_target_point is not None and t - agent.last_target_t < st.memory_timeout:
        goal = agent.last_target_point
        if math.dist(goal, uav.position) > st.arrival_radius:
            return saturate(goto_command(goal, uav, st.approach_speed, st.yaw_gain), agent.limits)
    return saturate(explore_command(agent.explore, uav, st.explore_speed, st.yaw_gain, t), agent.limits)


def _reacquire_phase(agent) -> MissionPhase:
    """Where a grabber without a ball track goes: to the communicated
    position when it has one, else to its own exploration."""
    if agent.latest_sighting is not None:
        return MissionPhase.APPROACH_HANDOFF
    return MissionPhase.EXPLORE


# Mission policies, one handler per non-terminal phase and role (the
# table ``POLICIES`` below). A handler is called as
# handler(agent, percep, uav, grab_flag, t); it sets ``agent.phase`` on a
# transition and returns (command, message or None).

def _tracker_idle(agent, percep, uav, grab_flag, t):
    return _hold(agent, MissionPhase.TAKEOFF)


def _tracker_takeoff(agent, percep, uav, grab_flag, t):
    if _at_altitude(agent, uav):
        agent.phase = MissionPhase.EXPLORE
        return _search_cmd(agent, percep, uav, t), None
    return _takeoff_cmd(agent, uav), None


def _tracker_explore(agent, percep, uav, grab_flag, t):
    ball = percep.ball_track
    if ball.status is TrackStatus.TRACKING:
        agent.phase = MissionPhase.TRACK_DRONE
        return _servo(agent, ball, uav, agent.settings.tracker_standoff), None
    return _search_cmd(agent, percep, uav, t), None


def _tracker_track(agent, percep, uav, grab_flag, t):
    """Hold the standoff on the ball and broadcast sightings; explore
    again once the track is gone."""
    st, ball = agent.settings, percep.ball_track
    if ball.status is TrackStatus.UNINITIALIZED:
        agent.phase = MissionPhase.EXPLORE
        return _search_cmd(agent, percep, uav, t), None
    cmd = _servo(agent, ball, uav, st.tracker_standoff)
    if ball.status is not TrackStatus.TRACKING or t - agent.last_sighting_sent < st.sighting_period - 1e-9:
        return cmd, None
    agent.last_sighting_sent = t
    return cmd, DroneMessage(
        sender=agent.drone_id,
        t_sent=t,
        kind=MessageKind.BALL_SIGHTING,
        position=agent.last_target_point,  # the ball track, back-projected this tick
    )


def _grabber_idle(agent, percep, uav, grab_flag, t):
    """Wait for the first sighting; a single grabber leaves at once."""
    if agent.collaborative and agent.latest_sighting is None:
        return VelocityCommand(), None
    agent.phase = MissionPhase.TAKEOFF
    return _takeoff_cmd(agent, uav), None


def _grabber_takeoff(agent, percep, uav, grab_flag, t):
    if _at_altitude(agent, uav):
        return _hold(agent, _reacquire_phase(agent))
    return _takeoff_cmd(agent, uav), None


def _grabber_explore(agent, percep, uav, grab_flag, t):
    ball = percep.ball_track
    if ball.status is TrackStatus.TRACKING:
        agent.phase = MissionPhase.SERVO_BALL
        return _servo(agent, ball, uav, agent.settings.grabber_standoff), None
    return _search_cmd(agent, percep, uav, t), None


def _grabber_approach(agent, percep, uav, grab_flag, t):
    """Fly to the communicated position; on station without a ball track,
    face it while the sighting is fresh, otherwise sweep the camera."""
    st, ball = agent.settings, percep.ball_track
    if ball.status is TrackStatus.TRACKING:
        agent.phase = MissionPhase.SERVO_BALL
        return _servo(agent, ball, uav, st.grabber_standoff), None
    goal = agent.latest_sighting
    if math.dist(goal, uav.position) > st.arrival_radius:
        cmd = goto_command(goal, uav, st.approach_speed, st.yaw_gain)
    else:
        fresh = t - agent.latest_sighting_t < 1.0
        yaw_rate = st.yaw_gain * bearing_error(goal, uav) if fresh else st.scan_yaw_rate
        cmd = VelocityCommand(
            vz=min(max(1.0 * (goal[2] - uav.position[2]), -st.land_speed), st.land_speed),
            yaw_rate=yaw_rate,
        )
    return saturate(cmd, agent.limits), None


def _grabber_servo(agent, percep, uav, grab_flag, t):
    """Servo to the standoff; enter the grab once aligned with the ball."""
    st, ball = agent.settings, percep.ball_track
    if ball.status is TrackStatus.UNINITIALIZED:
        agent.phase = _reacquire_phase(agent)
        return _search_cmd(agent, percep, uav, t), None
    cmd = _servo(agent, ball, uav, st.grabber_standoff)
    x, y = ball.pixel
    if (
        ball.status is TrackStatus.TRACKING
        and abs(x - agent.intr.cx) <= st.align_px
        and abs(y - agent.intr.cy) <= st.align_px
        and abs(ball.range - st.grabber_standoff) <= st.align_range_tol
    ):
        agent.grab_entered_t = t
        agent.phase = MissionPhase.GRAB
    return cmd, None


def _grabber_grab(agent, percep, uav, grab_flag, t):
    """Ramp the standoff down to contact; confirm the grab, once: the
    retreat's edges lead only to terminal phases."""
    st, ball = agent.settings, percep.ball_track
    if grab_flag:
        agent.phase = MissionPhase.RETREAT_LAND
        msg = DroneMessage(sender=agent.drone_id, t_sent=t, kind=MessageKind.GRAB_CONFIRMED)
        return VelocityCommand(), msg
    if ball.status is TrackStatus.UNINITIALIZED or t - agent.grab_entered_t > st.grab_time_budget:
        agent.phase = _reacquire_phase(agent)
        return _search_cmd(agent, percep, uav, t), None
    ramp = st.grabber_standoff - st.grab_ramp_rate * (t - agent.grab_entered_t)
    return _servo(agent, ball, uav, max(0.0, ramp), closing_bias=st.grab_closing_bias), None


def _grabber_retreat(agent, percep, uav, grab_flag, t):
    """Home first at altitude, then descend."""
    st, home = agent.settings, agent.home
    if math.hypot(home[0] - uav.position[0], home[1] - uav.position[1]) > st.home_tolerance:
        goal = (home[0], home[1], st.takeoff_altitude)
        return saturate(goto_command(goal, uav, st.approach_speed, st.yaw_gain), agent.limits), None
    if uav.position[2] <= 0.05:
        return _hold(agent, MissionPhase.DONE)
    return VelocityCommand(vz=-st.land_speed), None


# ---------------------------------------------------------------------------
# Mission tables and the trace validator
# ---------------------------------------------------------------------------

P = MissionPhase
# Per role, the handler and the edges of each non-terminal phase.
POLICIES = {
    "tracker": {
        P.IDLE: (_tracker_idle, {P.TAKEOFF, P.FAILED}),
        P.TAKEOFF: (_tracker_takeoff, {P.EXPLORE, P.DONE, P.FAILED}),
        P.EXPLORE: (_tracker_explore, {P.TRACK_DRONE, P.DONE, P.FAILED}),
        P.TRACK_DRONE: (_tracker_track, {P.EXPLORE, P.DONE, P.FAILED}),
    },
    "grabber": {
        P.IDLE: (_grabber_idle, {P.TAKEOFF, P.FAILED}),
        P.TAKEOFF: (_grabber_takeoff, {P.EXPLORE, P.APPROACH_HANDOFF, P.FAILED}),
        P.EXPLORE: (_grabber_explore, {P.SERVO_BALL, P.FAILED}),
        P.APPROACH_HANDOFF: (_grabber_approach, {P.SERVO_BALL, P.FAILED}),
        P.SERVO_BALL: (_grabber_servo, {P.GRAB, P.APPROACH_HANDOFF, P.EXPLORE, P.FAILED}),
        P.GRAB: (_grabber_grab, {P.RETREAT_LAND, P.APPROACH_HANDOFF, P.EXPLORE, P.FAILED}),
        P.RETREAT_LAND: (_grabber_retreat, {P.DONE, P.FAILED}),
    },
}
del P


def validate_phase_trace(transitions, role: str) -> None:
    """Check a (from, to) transition sequence against the role's table.

    Raises ValueError on a transition to a phase outside the edges of the
    phase it leaves, a transition out of a terminal phase, or a chain that
    does not start from IDLE.
    """
    table = POLICIES[role]
    prev_to = MissionPhase.IDLE
    for i, (src, dst) in enumerate(transitions):
        if i == 0 and src is not MissionPhase.IDLE:
            raise ValueError(f"trace must start from idle, got {src.value}")
        if src is not prev_to:
            raise ValueError(f"discontinuous trace at step {i}: {prev_to.value} -> {src.value}")
        if src not in table or dst not in table[src][1]:
            raise ValueError(f"illegal transition {src.value} -> {dst.value} for role {role}")
        prev_to = dst
