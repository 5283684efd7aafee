"""Deterministic multirate simulation engine and Monte Carlo driver.

A scenario advances at the dynamics rate; vision (detection synthesis
plus tracking) and control (mission logic, guidance, channel) fire on
the nearest dynamics steps to their configured rates. One global seed
fans out into named per-subsystem streams (wind, channel, one per
camera) so toggling a noise source never shifts the others' draws; a
run is a pure function of (config, seed) down to the log bytes.

The world (target, wind, ball, own vehicles) is one plant with one
``advance``, which integrates a block of dynamics steps in one call.
``run_scenario`` runs the stages due on a step, then advances the plant
to the next vision or control tick. Nothing else reads the world
between those steps, and the commands are held, so a block gives the
same floats as stepping one at a time. The plant applies its own rules
inside a block and reports each to an event sink, stamped with the time
at the start of the step concerned: while the grabber is in GRAB, the
first state with the ball in the basket volume detaches the ball (a
``capture``); the first over-swing is flagged; a state that is no
longer finite ends the run. A ball that hangs still, with no wind and a
target of constant velocity, is a fixed point of its integrator, so the
plant does not integrate it. ``run_scenario`` alone decides the
schedule, and the log records it: ``replay_divergence`` drives the same
``advance`` open loop from the log's command, state and phase records in
log order, the grabber's phase records arming contact, so the ball
leaves its rod by the same rule in run and replay. ``outcome`` reads the
verdict from the log's phase and event records.
"""

from __future__ import annotations

import math

import numpy as np

from . import camera as cam
from . import coordination as coord
from .camera import (
    CameraIntrinsics,
    CameraMount,
    DetectionClass,
    DetectionNoise,
    estimate_range,
    gate_below_drone,
    synth_detection,
)
from .config import ScenarioConfig, config_from_dict
from .coordination import Channel, DroneAgent, MissionPhase
from .frames import Vec3
from .guidance import GuidanceGains
from .logs import SCHEMA_NAME, SCHEMA_VERSION, SimLog
from .perception import FilterParams, PerceptionState
from .world import (
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
    step_ball,
    step_uav,
    target_pose,
)

# Named substream ids under the scenario seed.
_STREAM_WIND = 0
_STREAM_CHANNEL = 1
_STREAM_CAMERA_BASE = 16

_NO_WIND = (0.0, 0.0, 0.0)


def substream(seed: int, stream_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream_id)))


def _build_pattern(cfg: ScenarioConfig) -> TrajectoryPattern:
    return TrajectoryPattern(
        kind=PatternKind(cfg.target.pattern),
        center=cfg.target.center,
        heading=cfg.target.heading,
        speed=cfg.target.speed,
        extent=cfg.target.extent,
    )


def _filter_params(cfg: ScenarioConfig, cls: DetectionClass) -> FilterParams:
    p = cfg.perception
    ball = cls is DetectionClass.BALL
    return FilterParams(
        q_pixel=p.q_pixel_ball if ball else p.q_pixel,
        q_range=p.q_range_ball if ball else p.q_range,
        sigma_px=p.sigma_px,
        sigma_range=p.sigma_range,
        init_range=p.init_range_ball if ball else None,
        loss_timeout=p.loss_timeout,
        gate_chi2=p.gate_chi2,
        init_vel_var=p.init_vel_var,
        init_range_rate_var=p.init_range_rate_var,
    )


class _DroneRuntime:
    """One own drone's onboard stack: camera, perception and mission agent."""

    def __init__(self, dcfg, cfg: ScenarioConfig, collaborative: bool, rng: np.random.Generator):
        self.id = dcfg.id
        self.role = dcfg.role
        self.intr = CameraIntrinsics(
            width=dcfg.camera.width,
            height=dcfg.camera.height,
            focal_px=dcfg.camera.focal_px,
        )
        self.mount = CameraMount(translation=dcfg.camera.mount)
        self.noise = DetectionNoise(
            sigma_center_px=dcfg.camera.sigma_center_px,
            sigma_size_px=dcfg.camera.sigma_size_px,
            p_det_near_m=dcfg.camera.p_det_near,
            p_det_far_m=dcfg.camera.p_det_far,
            p_det_floor=dcfg.camera.p_det_floor,
            min_box_px=dcfg.camera.min_box_px,
        )
        self.rng = rng
        self.percep = PerceptionState(
            drone_params=_filter_params(cfg, DetectionClass.DRONE),
            ball_params=_filter_params(cfg, DetectionClass.BALL),
            switch_range=cfg.perception.switch_range,
        )
        self.agent = DroneAgent(
            drone_id=dcfg.id,
            role=dcfg.role,
            settings=cfg.mission,
            gains=GuidanceGains(**vars(dcfg.gains)),
            limits=dcfg.limits,
            intr=self.intr,
            mount=self.mount,
            home=dcfg.start,
            collaborative=collaborative,
        )


def _det_record(det) -> dict | None:
    if det is None:
        return None
    return {"x": det.x, "y": det.y, "w": det.w, "h": det.h}


def _track_record(track) -> dict:
    x, y, x_rate, y_rate, r, r_rate = track.state
    return {
        "status": track.status.value,
        "x": x,
        "y": y,
        "x_rate": x_rate,
        "y_rate": y_rate,
        "r": r,
        "r_rate": r_rate,
    }


class _Plant:
    """The simulated world, advanced a block of dynamics steps at a time.

    It holds the target pose, the OU wind, the ball and every own
    drone's vehicle, indexed like ``config.drones``. ``run_scenario``
    drives it with the agents' commands and ``replay_divergence`` with
    the logged ones, read in log order, so both integrate the world
    through ``advance``. ``event(t, name, drone, data)`` receives the
    events the plant's rules raise: the run passes its log's
    ``append_event``, replay a no-op.
    Each vehicle's command is held over a block, so its state is stepped
    once per block, for all the block's steps. Contact is a rule of the
    plant: while it is armed, the first state with the ball in the
    grabber's basket detaches the ball. Once detached, the ball rides in
    the basket; the plant never integrates free flight, and the wind,
    which acts only on the hanging ball, is no longer stepped. ``still``
    holds when the hanging ball can never leave rest: the wind is off,
    the target's velocity is constant, and one trial step from rest
    returns rest exactly. The ball is then not integrated at all, and
    its state stays the rest it would have computed.
    """

    def __init__(self, config: ScenarioConfig, event):
        w = config.world
        self.dt = 1.0 / config.rates.dynamics
        self.k = 0
        self.event = event
        self.pattern = _build_pattern(config)
        self.support_pos, self.support_vel = target_pose(self.pattern, 0.0)
        self.wind = (
            OrnsteinUhlenbeckWind(
                mean=w.wind.mean, sigma=w.wind.sigma, tau=w.wind.tau,
                rng=substream(config.seed, _STREAM_WIND),
            )
            if w.wind.enabled
            else None
        )
        self.ball_params = BallParams(
            length=w.rod_length,
            diameter=w.ball_diameter,
            mass=w.ball_mass,
            damping=w.damping,
            gravity=w.gravity,
        )
        self.ball = BallState()
        self.capture = config.capture
        self.drones = config.drones
        self.grabber = next(i for i, d in enumerate(config.drones) if d.role == "grabber")
        self.uavs = [UavState.at(*d.start, yaw=d.yaw) for d in config.drones]
        self.cmds = [VelocityCommand() for _ in config.drones]
        self.swung = False
        # With no wind and a target of constant velocity, the pivot's
        # acceleration is exactly 0.0 on every step; if one step from rest
        # then returns rest bit for bit, so does every step after it.
        self.still = (
            self.wind is None
            and self.pattern.kind is not PatternKind.FIGURE_EIGHT
            and self._rest_is_fixed()
        )

    def _rest_is_fixed(self) -> bool:
        """Whether one step of the hanging ball, with no wind and no pivot
        acceleration, returns its state unchanged, signed zeros included."""
        try:
            trial = step_ball(self.ball, _NO_WIND, _NO_WIND, self.ball_params, self.dt)
        except OverflowError:
            return False
        return repr(trial) == repr(self.ball)

    def ball_position(self) -> Vec3:
        if self.ball.attached:
            return ball_world_position(self.support_pos, self.ball, self.ball_params.length)
        return coord.gripper_point(self.uavs[self.grabber], self.capture)

    def ball_velocity(self) -> Vec3:
        if self.ball.attached:
            return ball_world_velocity(self.support_vel, self.ball, self.ball_params.length)
        return self.uavs[self.grabber].velocity

    def advance(self, n: int, contact: bool = False) -> bool:
        """Integrate n steps of dt under the held commands; False when the
        world stopped being finite, which ends the block early.

        Each step poses the target, then steps the wind and the ball while
        it hangs and is not ``still``, then checks the state that can have
        changed: the ball while it is integrated, and the target unless it
        is a static hover. The vehicles are stepped once each, by the steps
        taken. ``contact`` (the grabber is in GRAB) arms contact while the
        ball hangs; the grabber is then stepped one step at a time, and
        each state is tested before its step. Each rule reports an event,
        stamped ``(j - 1) * dt`` for step ``j``, the start of the step:

        - ``capture``: the ball sits in the grabber's basket volume
          (``grab_detect``); it is detached, ``ball_p`` is the bob position
          tested, and the block goes on;
        - ``invalid_swing``: the step swung the hanging ball to or past
          horizontal, for the first such step only; the block goes on;
        - ``nonfinite_state``: the step raised OverflowError and was not
          taken, or it left the ball or target state not finite; the
          block ends there and ``k`` says how far it got.
        """
        dt, k = self.dt, self.k
        pattern, ball, ball_params = self.pattern, self.ball, self.ball_params
        wind, event = self.wind, self.event
        integrate = ball.attached and not self.still
        swing_armed = integrate and not self.swung
        check_target = pattern.kind is not PatternKind.STATIC_HOVER
        g = self.grabber
        grabber, grabber_cmd, grabber_cfg = self.uavs[g], self.cmds[g], self.drones[g]
        single = contact = contact and ball.attached
        pos, vel = self.support_pos, self.support_vel
        isfinite = math.isfinite
        done, finite = 0, True
        for j in range(k + 1, k + n + 1):
            if contact:
                bp = ball_world_position(pos, ball, ball_params.length)
                if coord.grab_detect(
                    bp, ball_world_velocity(vel, ball, ball_params.length), grabber, self.capture
                ):
                    event((j - 1) * dt, "capture", grabber_cfg.id, {"ball_p": list(bp)})
                    ball = detach(ball)
                    contact = integrate = swing_armed = False
            try:
                next_pos, next_vel = target_pose(pattern, j * dt)
                if integrate:
                    wind_force = wind.step(dt) if wind is not None else _NO_WIND
                    nx, ny, nz = next_vel
                    vx, vy, vz = vel
                    support_accel = ((nx - vx) / dt, (ny - vy) / dt, (nz - vz) / dt)
                    ball = step_ball(ball, support_accel, wind_force, ball_params, dt)
            except OverflowError:
                finite = False
                break
            pos, vel = next_pos, next_vel
            done += 1
            if single:
                grabber = step_uav(grabber, grabber_cmd, grabber_cfg.tau, grabber_cfg.limits, dt)
            if integrate:
                (ux, uy, uz), (dx, dy, dz) = ball.u, ball.du
                if not (isfinite(ux) and isfinite(uy) and isfinite(uz)
                        and isfinite(dx) and isfinite(dy) and isfinite(dz)):
                    finite = False
                    break
            if check_target:
                sx, sy, sz = pos
                if not (isfinite(sx) and isfinite(sy) and isfinite(sz)):
                    finite = False
                    break
            if swing_armed and ball.u[2] >= 0.0:
                self.swung, swing_armed = True, False
                event((j - 1) * dt, "invalid_swing", None, {"theta": ball.theta})
        self.ball = ball
        self.support_pos, self.support_vel = pos, vel
        if done:
            self.uavs = [
                grabber if single and i == g else step_uav(uav, cmd, d.tau, d.limits, dt, done)
                for i, (uav, cmd, d) in enumerate(zip(self.uavs, self.cmds, self.drones))
            ]
        self.k = k + done
        if not finite:
            event((j - 1) * dt, "nonfinite_state", None, {})
        return finite


def _message_record(msg, t: float, status: str) -> dict:
    return {
        "kind": "message",
        "t": t,
        "status": status,
        "sender": msg.sender,
        "msg_kind": msg.kind.value,
        "t_sent": msg.t_sent,
        "position": None if msg.position is None else list(msg.position),
    }


def outcome(log: SimLog) -> tuple[str, float | None, str | None]:
    """A run's ``(verdict, t_capture, failure)``, read from the grabber's
    id in the header and the phase and event records, which lean logs
    keep too."""
    events = log.events()
    capture = next((r for r in events if r["event"] == "capture"), None)
    if capture is not None:
        return "captured", capture["t"], None
    if any(r["event"] == "nonfinite_state" for r in events):
        return "invalid", None, "nonfinite_state"
    grabber = log.grabber["id"]
    if not any(r["to"] == "servo_ball" for r in log.iter_kind("phase")):
        return "timeout", None, "never_engaged"
    if any(
        r["event"] == "track_lost" and r["drone"] == grabber and r["data"]["cls"] == "ball"
        and r["data"]["phase"] in ("servo_ball", "grab")
        for r in events
    ):
        return "timeout", None, "terminal_track_loss"
    return "timeout", None, "other"


class _Run:
    """One scenario in progress: the plant, each drone's onboard stack,
    the channel and the log, from which the verdict is read.

    ``run_scenario`` runs the vision and control stages on the steps
    that select them, then advances the plant to the next such step; the
    plant appends its own events to the log.
    """

    def __init__(self, config: ScenarioConfig, detail: bool, log: SimLog):
        self.config = config
        self.detail = detail
        self.log = log
        self.plant = _Plant(config, log.append_event)
        self.channel = Channel(config.channel, substream(config.seed, _STREAM_CHANNEL))
        collaborative = any(d.role == "tracker" for d in config.drones)
        self.drones = [
            _DroneRuntime(dcfg, config, collaborative, substream(config.seed, _STREAM_CAMERA_BASE + i))
            for i, dcfg in enumerate(config.drones)
        ]
        self.grabber = self.drones[self.plant.grabber]
        self.vision_ticks = 0
        self.control_ticks = 0

    def vision(self, t: float) -> None:
        """Synthesize detections and update every drone's tracks."""
        self.vision_ticks += 1
        plant, log = self.plant, self.log
        span = self.config.target.span
        diameter = plant.ball_params.diameter
        bp = plant.ball_position()
        for d, uav in zip(self.drones, plant.uavs):
            drone_det = synth_detection(
                plant.support_pos, span, DetectionClass.DRONE,
                uav, d.mount, d.intr, d.noise, d.rng, t,
            )
            drone_range = gate = None
            if drone_det is not None:
                drone_range = estimate_range(drone_det, d.intr, span)
                gate = gate_below_drone(drone_det, drone_range, d.intr, plant.ball_params.length)
            ball_det = synth_detection(
                bp, diameter, DetectionClass.BALL,
                uav, d.mount, d.intr, d.noise, d.rng, t, gate=gate,
            )
            ball_range = estimate_range(ball_det, d.intr, diameter) if ball_det is not None else None
            events = d.percep.vision_update(
                drone_det, drone_range, ball_det, ball_range, t,
                ego_px_rate=d.intr.focal_px * uav.yaw_rate,
            )
            for name, cls in events:
                log.append_event(t, name, d.id, {"cls": cls, "phase": d.agent.phase.value})
            if self.detail:
                cp = cam.camera_position(uav, d.mount)
                log.append(
                    {
                        "kind": "vision",
                        "t": t,
                        "drone": d.id,
                        "dets": {
                            "drone": _det_record(drone_det),
                            "ball": _det_record(ball_det),
                        },
                        "tracks": {
                            "drone": _track_record(d.percep.drone_track),
                            "ball": _track_record(d.percep.ball_track),
                        },
                        "selection": d.percep.active.value,
                        "ball_depth": cam.point_depth(bp, cp, uav.yaw),
                        "ball_range": math.dist(bp, cp),
                    }
                )

    def control(self, t: float) -> bool:
        """Deliver messages, step every agent, hold its command and log
        its phase change.

        Returns False, after logging ``nonfinite_state``, when a drone's
        state or new command is not finite; the run then ends invalid
        before the plant integrates it.
        """
        self.control_ticks += 1
        plant, log, detail = self.plant, self.log, self.detail
        delivered = self.channel.collect(t)
        if detail:
            for msg in delivered:
                log.append(_message_record(msg, t, "delivered"))
        captured = not plant.ball.attached  # the ball detaches only at contact
        outbox = []
        for i, d in enumerate(self.drones):
            src = d.agent.phase
            inbox = [m for m in delivered if m.sender != d.id]
            cmd, msg = d.agent.step(d.percep, plant.uavs[i], inbox, captured and d.role == "grabber", t)
            plant.cmds[i] = cmd
            if msg is not None:
                outbox.append(msg)
            dst = d.agent.phase
            if dst is not src:
                log.append(
                    {"kind": "phase", "t": t, "drone": d.id, "from": src.value, "to": dst.value}
                )
            if detail:
                log.append(
                    {
                        "kind": "command",
                        "t": t,
                        "drone": d.id,
                        "phase": d.agent.phase.value,
                        "cmd": {
                            "vx": cmd.vx,
                            "vy": cmd.vy,
                            "vz": cmd.vz,
                            "yaw_rate": cmd.yaw_rate,
                        },
                    }
                )
        for msg, status in self.channel.submit(outbox, t):
            if detail or status == "sent":
                log.append(_message_record(msg, t, status))
        if detail:
            log.append(
                {
                    "kind": "state",
                    "t": t,
                    "target": {"p": list(plant.support_pos), "v": list(plant.support_vel)},
                    "ball": {
                        "p": list(plant.ball_position()),
                        "v": list(plant.ball_velocity()),
                        "attached": plant.ball.attached,
                        "theta": plant.ball.theta,
                        "phi": plant.ball.phi,
                    },
                    "drones": {
                        d.id: {"p": list(uav.position), "v": list(uav.velocity), "yaw": uav.yaw}
                        for d, uav in zip(self.drones, plant.uavs)
                    },
                }
            )
        if all(
            all(map(math.isfinite, uav.position + uav.velocity)) and cmd.is_finite()
            for uav, cmd in zip(plant.uavs, plant.cmds)
        ):
            return True
        log.append_event(t, "nonfinite_state", None, {})
        return False

    def verdict(self) -> dict:
        verdict, t_capture, failure = outcome(self.log)
        return {
            "kind": "verdict",
            "verdict": verdict,
            "t_end": self.plant.k * self.plant.dt,
            "t_capture": t_capture,
            "failure": failure,
            "counters": {
                "dynamics_steps": self.plant.k,
                "vision_ticks": self.vision_ticks,
                "control_ticks": self.control_ticks,
            },
        }


def run_scenario(config: ScenarioConfig, detail: bool = True) -> SimLog:
    """Simulate one scenario; deterministic for a fixed config.

    With detail=False the bulky state/vision/command/message records are
    skipped (phases, events, and the verdict are always logged), which
    Monte Carlo batches use for speed. Detail never affects the
    simulated trajectory.
    """
    rates = config.rates
    dt = 1.0 / rates.dynamics
    n_steps = round(config.duration * rates.dynamics)
    vision_every = max(1, round(rates.dynamics / rates.vision))
    control_every = max(1, round(rates.dynamics / rates.control))

    header = {
        "schema": SCHEMA_NAME,
        "version": SCHEMA_VERSION,
        "config": config.to_dict(),
        "multirate": {
            "dt": dt,
            "vision_every": vision_every,
            "control_every": control_every,
            "vision_hz": rates.dynamics / vision_every,
            "control_hz": rates.dynamics / control_every,
        },
    }
    run = _Run(config, detail, SimLog(header=header))
    plant = run.plant
    grabber_agent = run.grabber.agent
    k = 0
    while k < n_steps:
        t = k * dt
        if k % vision_every == 0:
            run.vision(t)
        if k % control_every == 0:
            if not run.control(t):
                break
            # Phases change only on control ticks; a terminal run ends after this step.
            if all(d.agent.phase in coord.TERMINAL_PHASES for d in run.drones):
                n_steps = k + 1
        end = min(
            (k // vision_every + 1) * vision_every,
            (k // control_every + 1) * control_every,
            n_steps,
        )
        if not plant.advance(end - k, grabber_agent.phase is MissionPhase.GRAB):
            break
        k = plant.k
    run.log.append(run.verdict())
    return run.log


# ---------------------------------------------------------------------------
# Replay validation
# ---------------------------------------------------------------------------

def _max_abs_error(actual: Vec3, logged) -> float:
    """Largest per-coordinate error; inf when a coordinate compared is not
    finite, which ``max`` alone would drop as a NaN."""
    (ax, ay, az), (bx, by, bz) = actual, logged
    ex, ey, ez = abs(ax - bx), abs(ay - by), abs(az - bz)
    return max(ex, ey, ez) if math.isfinite(ex + ey + ez) else math.inf


def replay_divergence(log: SimLog) -> float:
    """Re-run the plant open loop from a log; return the largest position
    deviation against the logged ground truth.

    Advances the same plant as ``run_scenario`` through the log's
    command, state and phase records in log order: the plant is advanced
    to each record's step, then holds the command, compares every drone
    and the ball against the state, or arms contact while the grabber's
    phase is GRAB. The ball therefore leaves its rod by the plant's own
    contact rule, as in the run; the log's events are not read. A plant
    step that is not finite reads as infinite divergence; a header
    config that validation rejects raises ConfigError, and a log with
    no state record, a lean one, ValueError before any step.
    """
    cfg = config_from_dict(log.header["config"])
    if not any(r["kind"] == "state" for r in log.records):
        raise ValueError("log has no state records to replay against")
    plant = _Plant(cfg, lambda *_: None)
    index = {d.id: i for i, d in enumerate(cfg.drones)}
    grabber = log.grabber["id"]
    worst, grab = 0.0, False
    for r in log.records:
        kind = r["kind"]
        if kind != "command" and kind != "state" and kind != "phase":
            continue
        k = round(r["t"] / plant.dt)
        if k > plant.k and not plant.advance(k - plant.k, grab):
            return math.inf
        if kind == "command":
            c = r["cmd"]
            plant.cmds[index[r["drone"]]] = VelocityCommand(c["vx"], c["vy"], c["vz"], c["yaw_rate"])
        elif kind == "state":
            for drone_id, s in r["drones"].items():
                worst = max(worst, _max_abs_error(plant.uavs[index[drone_id]].position, s["p"]))
            worst = max(worst, _max_abs_error(plant.ball_position(), r["ball"]["p"]))
        elif r["drone"] == grabber:
            grab = r["to"] == "grab"
    return worst


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

# One batch row's fields: a ``monte_carlo`` ``runs`` entry and a verdicts.csv row.
RUN_FIELDS = ("seed", "verdict", "t_capture", "failure")


def _mc_single(config: ScenarioConfig) -> dict:
    """One batch job's ``RUN_FIELDS``; an exception becomes an ``error``
    verdict naming its type, so one job cannot end the batch."""
    try:
        rec = run_scenario(config, detail=False).verdict_record
    except Exception as e:  # the batch boundary: report the run and go on
        rec = {"verdict": "error", "t_capture": None, "failure": type(e).__name__}
    rec = {**rec, "seed": config.seed}
    return {f: rec[f] for f in RUN_FIELDS}


def run_batch(jobs: list[ScenarioConfig], n_jobs: int = 1) -> list[dict]:
    """One ``RUN_FIELDS`` row per job, a validated config that carries its
    seed (``with_seed``), run lean as given; rows come in job order whatever
    ``n_jobs``, and a job that raises gives an ``error`` row, not an exception."""
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    workers = min(n_jobs, len(jobs))  # the pool forks all its workers at the first submit
    if workers > 1:
        # Imported here: the process pool costs ~20 ms of import that
        # single-process runs never need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(_mc_single, jobs))
    return [_mc_single(j) for j in jobs]


def monte_carlo(
    config: ScenarioConfig,
    n_runs: int,
    seed_base: int,
    n_jobs: int = 1,
) -> dict:
    """Run the scenario across seeds seed_base..seed_base+n_runs-1.

    Geometry stays fixed; only the seeded noise (wind, detection,
    channel) varies. The summary is keyed and ordered by seed, so it is
    invariant to the parallelism degree.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    # Once per call, not per run, since a config built in memory (by a
    # constructor or dataclasses.replace) skips load_config's checks:
    # ConfigError for an invalid config or seed_base.
    config = config_from_dict(config.to_dict())
    runs = run_batch([config.with_seed(seed_base + i) for i in range(n_runs)], n_jobs)

    captured = [r for r in runs if r["verdict"] == "captured"]
    failures: dict = {}
    for r in runs:
        if r["failure"]:
            failures[r["failure"]] = failures.get(r["failure"], 0) + 1
    times = [r["t_capture"] for r in captured]
    capture_time = None
    if times:
        arr = np.array(times)
        capture_time = {
            "mean": float(arr.mean()),
            "std": float(arr.std()),
            "min": float(arr.min()),
            "max": float(arr.max()),
        }
    return {
        "n_runs": n_runs,
        "seed_base": seed_base,
        "captured": len(captured),
        "success_rate": len(captured) / n_runs,
        "capture_time": capture_time,
        "failures": dict(sorted(failures.items())),
        "runs": runs,
    }
