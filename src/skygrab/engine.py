"""Deterministic multirate simulation engine and Monte Carlo driver.

A scenario advances at the dynamics rate; vision (detection synthesis
plus tracking) and control (mission logic, guidance, channel) fire on
the nearest dynamics steps to their configured rates. One global seed
fans out into named per-subsystem streams (wind, channel, one per
camera) so toggling a noise source never shifts the others' draws; a
run is a pure function of (config, seed) down to the log bytes.

The world (target, wind, ball, own vehicles) is one plant with one
integrate step. ``run_scenario`` closes the loop around it and
``replay_divergence`` drives it open loop from a log's commands, so
run and replay advance the world through the same code.
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
from .coordination import (
    Channel,
    ChannelModel,
    CaptureGeometry,
    DroneAgent,
    MissionPhase,
    MissionSettings,
)
from .guidance import CommandLimits, GuidanceGains
from .logs import SCHEMA_NAME, SCHEMA_VERSION, SimLog
from .perception import FilterParams, PerceptionState
from .world import (
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
        center=np.array(cfg.target.center),
        heading=cfg.target.heading,
        speed=cfg.target.speed,
        extent=cfg.target.extent,
    )


def _filter_params(cfg: ScenarioConfig, cls: DetectionClass) -> FilterParams:
    p = cfg.perception
    if cls is DetectionClass.BALL:
        return FilterParams(
            q_pixel=p.q_pixel_ball,
            q_range=p.q_range_ball,
            sigma_px=p.sigma_px,
            sigma_range=p.sigma_range,
            init_range=p.init_range_ball,
            loss_timeout=p.loss_timeout,
            gate_chi2=p.gate_chi2,
            init_vel_var=p.init_vel_var,
            init_range_rate_var=p.init_range_rate_var,
        )
    return FilterParams(
        q_pixel=p.q_pixel,
        q_range=p.q_range,
        sigma_px=p.sigma_px,
        sigma_range=p.sigma_range,
        init_range=None,
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
            frame_rate=cfg.rates.vision,
        )
        self.mount = CameraMount(translation=np.array(dcfg.camera.mount))
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
        )
        self.percep.selection.switch_range = cfg.perception.switch_range
        gains = GuidanceGains(
            kp_yaw=dcfg.gains.kp_yaw,
            kd_yaw=dcfg.gains.kd_yaw,
            kp_z=dcfg.gains.kp_z,
            kd_z=dcfg.gains.kd_z,
            kp_range=dcfg.gains.kp_range,
            kd_range=dcfg.gains.kd_range,
            r_des=cfg.mission.grabber_standoff,
        )
        limits = CommandLimits(
            v_max_xy=dcfg.limits.v_xy,
            v_max_z=dcfg.limits.v_z,
            yaw_rate_max=dcfg.limits.yaw_rate,
        )
        settings = MissionSettings(
            takeoff_altitude=cfg.mission.takeoff_altitude,
            takeoff_speed=cfg.mission.takeoff_speed,
            explore_area=tuple(cfg.mission.explore_area),
            explore_speed=cfg.mission.explore_speed,
            lane_spacing=cfg.mission.lane_spacing,
            yaw_gain=cfg.mission.yaw_gain,
            tracker_standoff=cfg.mission.tracker_standoff,
            grabber_standoff=cfg.mission.grabber_standoff,
            drone_approach_range=cfg.mission.drone_approach_range,
            approach_speed=cfg.mission.approach_speed,
            arrival_radius=cfg.mission.arrival_radius,
            scan_yaw_rate=cfg.mission.scan_yaw_rate,
            align_px=cfg.mission.align_px,
            align_range_tol=cfg.mission.align_range_tol,
            grab_ramp_rate=cfg.mission.grab_ramp_rate,
            grab_closing_bias=cfg.mission.grab_closing_bias,
            grab_time_budget=cfg.mission.grab_time_budget,
            sighting_period=cfg.mission.sighting_period,
            land_speed=cfg.mission.land_speed,
            home_tolerance=cfg.mission.home_tolerance,
            memory_timeout=cfg.mission.memory_timeout,
            mission_budget=(
                cfg.mission.mission_budget
                if cfg.mission.mission_budget is not None
                else math.inf
            ),
        )
        self.agent = DroneAgent(
            drone_id=dcfg.id,
            role=dcfg.role,
            settings=settings,
            gains=gains,
            limits=limits,
            intr=self.intr,
            mount=self.mount,
            home=np.array(dcfg.start),
            collaborative=collaborative,
        )
        self.inbox: list = []


def _det_record(det) -> dict | None:
    if det is None:
        return None
    return {"x": det.x, "y": det.y, "w": det.w, "h": det.h}


def _track_record(track) -> dict:
    return {
        "status": track.status.value,
        "x": track.state[0],
        "y": track.state[1],
        "x_rate": track.state[2],
        "y_rate": track.state[3],
        "r": track.state[4],
        "r_rate": track.state[5],
    }


class _Plant:
    """The simulated world, advanced one dynamics step at a time.

    It holds the target pose, the OU wind, the ball and every own
    drone's vehicle, indexed like ``config.drones``. ``run_scenario``
    drives it with the agents' commands and ``replay_divergence`` with
    the logged ones, so both integrate the world through ``step``. Once
    detached, the ball rides in the grabber's basket; the plant never
    integrates free flight.
    """

    def __init__(self, config: ScenarioConfig):
        w = config.world
        self.dt = 1.0 / config.rates.dynamics
        self.k = 0
        self.pattern = _build_pattern(config)
        self.support_pos, self.support_vel = target_pose(self.pattern, 0.0)
        self.wind = (
            OrnsteinUhlenbeckWind(mean=np.array(w.wind.mean), sigma=w.wind.sigma, tau=w.wind.tau)
            if w.wind.enabled
            else None
        )
        self.wind_rng = substream(config.seed, _STREAM_WIND)
        self.ball_params = BallParams(
            length=w.rod_length,
            diameter=w.ball_diameter,
            mass=w.ball_mass,
            damping=w.damping,
            gravity=w.gravity,
        )
        self.ball = BallState()
        self.geom = CaptureGeometry(
            radius=config.capture.radius,
            cone_half_angle=math.radians(config.capture.cone_half_angle_deg),
            max_rel_speed=config.capture.max_rel_speed,
            gripper_offset=np.array(config.capture.gripper_offset),
        )
        self.grabber = next(i for i, d in enumerate(config.drones) if d.role == "grabber")
        self.uavs = [UavState.at(*d.start, yaw=d.yaw) for d in config.drones]
        self.uav_params = [
            UavParams(tau=d.tau, v_max_xy=d.limits.v_xy, v_max_z=d.limits.v_z,
                      yaw_rate_max=d.limits.yaw_rate)
            for d in config.drones
        ]
        self.cmds = [VelocityCommand(frame=Frame.WORLD) for _ in config.drones]

    def ball_position(self) -> np.ndarray:
        if self.ball.attached:
            return ball_world_position(self.support_pos, self.ball, self.ball_params.length)
        return coord.gripper_point(self.uavs[self.grabber], self.geom)

    def ball_velocity(self) -> np.ndarray:
        if self.ball.attached:
            return ball_world_velocity(self.support_vel, self.ball, self.ball_params.length)
        return self.uavs[self.grabber].velocity.copy()

    def release(self) -> None:
        """Detach the ball from the rod into the grabber's basket."""
        self.ball = detach(self.ball, self.support_pos, self.support_vel, self.ball_params.length)

    def step(self) -> None:
        """Integrate t -> t + dt under the held commands."""
        dt = self.dt
        next_pos, next_vel = target_pose(self.pattern, (self.k + 1) * dt)
        wind_force = self.wind.step(self.wind_rng, dt) if self.wind is not None else _NO_WIND
        if self.ball.attached:
            nx, ny, nz = next_vel.tolist()
            vx, vy, vz = self.support_vel.tolist()
            support_accel = ((nx - vx) / dt, (ny - vy) / dt, (nz - vz) / dt)
            self.ball = step_ball(self.ball, support_accel, wind_force, self.ball_params, dt)
        self.uavs = [
            step_uav(uav, cmd, params, dt)
            for uav, cmd, params in zip(self.uavs, self.cmds, self.uav_params)
        ]
        self.support_pos, self.support_vel = next_pos, next_vel
        self.k += 1


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


class _Run:
    """One scenario in progress: the plant, each drone's onboard stack,
    the channel, the log, and the mission facts the verdict reads.

    Each dynamics step runs the vision, control and contact stages on
    the steps that select them, then the integrate stage.
    """

    def __init__(self, config: ScenarioConfig, detail: bool, log: SimLog):
        self.config = config
        self.detail = detail
        self.log = log
        self.plant = _Plant(config)
        self.channel = Channel(
            ChannelModel(
                latency=config.channel.latency,
                drop_probability=config.channel.drop_probability,
                rate_limit_hz=config.channel.rate_hz,
            ),
            substream(config.seed, _STREAM_CHANNEL),
        )
        collaborative = any(d.role == "tracker" for d in config.drones)
        self.drones = [
            _DroneRuntime(dcfg, config, collaborative, substream(config.seed, _STREAM_CAMERA_BASE + i))
            for i, dcfg in enumerate(config.drones)
        ]
        self.grabber = self.drones[self.plant.grabber]
        self.t_capture = None
        self.invalid = False
        self.swing_flagged = False
        self.engaged = False
        self.terminal_track_loss = False
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
            gate = (
                gate_below_drone(drone_det, d.intr, span, plant.ball_params.length)
                if drone_det is not None
                else None
            )
            ball_det = synth_detection(
                bp, diameter, DetectionClass.BALL,
                uav, d.mount, d.intr, d.noise, d.rng, t, gate=gate,
            )
            drone_range = estimate_range(drone_det, d.intr, span) if drone_det is not None else None
            ball_range = estimate_range(ball_det, d.intr, diameter) if ball_det is not None else None
            events = d.percep.vision_update(
                drone_det, drone_range, ball_det, ball_range, t,
                ego_px_rate=d.intr.focal_px * uav.yaw_rate,
            )
            for name, cls in events:
                if (
                    name == "track_lost"
                    and cls == "ball"
                    and d.role == "grabber"
                    and d.agent.phase in (MissionPhase.SERVO_BALL, MissionPhase.GRAB)
                ):
                    self.terminal_track_loss = True
                log.append(
                    {
                        "kind": "event",
                        "t": t,
                        "event": name,
                        "drone": d.id,
                        "data": {"cls": cls, "phase": d.agent.phase.value},
                    }
                )
            if self.detail:
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
                        "selection": d.percep.selection.active.value,
                        "ball_depth": cam.point_depth(bp, uav, d.mount),
                        "ball_range": float(
                            np.linalg.norm(bp - cam.camera_position(uav, d.mount))
                        ),
                    }
                )

    def control(self, t: float) -> bool:
        """Deliver messages, step every agent and hold its command.

        Returns False, after logging ``nonfinite_state``, when a drone's
        state or new command is not finite; the run then ends invalid
        before the plant integrates it.
        """
        self.control_ticks += 1
        plant, log, detail = self.plant, self.log, self.detail
        for msg in self.channel.collect(t):
            for d in self.drones:
                if d.id != msg.sender:
                    d.inbox.append(msg)
            if detail:
                log.append(_message_record(msg, t, "delivered"))
        captured = self.t_capture is not None
        outbox = []
        for i, d in enumerate(self.drones):
            cmd, msgs, transitions = d.agent.step(
                d.percep, plant.uavs[i], d.inbox, captured and d.role == "grabber", t
            )
            d.inbox = []
            plant.cmds[i] = cmd
            outbox.extend(msgs)
            for src, dst in transitions:
                if dst is MissionPhase.SERVO_BALL and d.role == "grabber":
                    self.engaged = True
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
                        "held": not plant.ball.attached,
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
            np.all(np.isfinite(uav.position)) and np.all(np.isfinite(uav.velocity)) and cmd.is_finite()
            for uav, cmd in zip(plant.uavs, plant.cmds)
        ):
            return True
        self.invalid = True
        log.append({"kind": "event", "t": t, "event": "nonfinite_state", "drone": None, "data": {}})
        return False

    def contact(self, t: float) -> None:
        """Capture the ball when it sits in the grabber's basket volume."""
        plant, w = self.plant, self.config.world
        bp = plant.ball_position()
        if coord.grab_detect(
            bp, plant.ball_velocity(), plant.uavs[plant.grabber], plant.geom
        ) and detach_check(w.claw_pull_force, w.detach_threshold):
            plant.release()
            self.t_capture = t
            self.log.append(
                {"kind": "event", "t": t, "event": "detach", "drone": self.grabber.id,
                 "data": {"pull_force": w.claw_pull_force}}
            )
            self.log.append(
                {"kind": "event", "t": t, "event": "capture", "drone": self.grabber.id,
                 "data": {"ball_p": list(bp)}}
            )

    def integrate(self, t: float) -> None:
        """Advance the plant to t + dt; flag the first over-swing."""
        self.plant.step()
        ball = self.plant.ball
        if ball.attached and abs(ball.theta) >= math.pi / 2 and not self.swing_flagged:
            self.swing_flagged = True
            self.log.append(
                {"kind": "event", "t": t, "event": "invalid_swing", "drone": None,
                 "data": {"theta": ball.theta}}
            )

    def verdict(self) -> dict:
        if self.t_capture is not None:
            verdict, failure = "captured", None
        elif self.invalid:
            verdict, failure = "invalid", "nonfinite_state"
        else:
            verdict = "timeout"
            if not self.engaged:
                failure = "never_engaged"
            elif self.terminal_track_loss:
                failure = "terminal_track_loss"
            elif self.config.world.wind.enabled:
                failure = "wind_displacement"
            else:
                failure = "other"
        return {
            "kind": "verdict",
            "verdict": verdict,
            "t_end": self.plant.k * self.plant.dt,
            "t_capture": self.t_capture,
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
    for k in range(n_steps):
        t = k * dt
        if k % vision_every == 0:
            run.vision(t)
        if k % control_every == 0 and not run.control(t):
            break
        if plant.ball.attached and grabber_agent.phase is MissionPhase.GRAB:
            run.contact(t)
        run.integrate(t)
        if all(d.agent.phase in coord.TERMINAL_PHASES for d in run.drones):
            break
    run.log.append(run.verdict())
    return run.log


# ---------------------------------------------------------------------------
# Replay validation
# ---------------------------------------------------------------------------

def _max_abs_error(actual: np.ndarray, logged) -> float:
    return float(np.max(np.abs(actual - np.array(logged))))


def replay_divergence(log: SimLog) -> float:
    """Re-run the plant open loop from a log; return the largest position
    deviation against the logged ground truth.

    Advances the same plant step as ``run_scenario``, fed with the
    logged control-tick commands and released at the logged detach, and
    compares every drone and the ball at every logged state record.
    """
    cfg = config_from_dict(log.header["config"])
    plant = _Plant(cfg)
    control_every = max(1, round(cfg.rates.dynamics / cfg.rates.control))
    index = {d.id: i for i, d in enumerate(cfg.drones)}

    cmds: dict = {}
    for r in log.iter_kind("command"):
        c = r["cmd"]
        cmds.setdefault(r["t"], []).append(
            (index[r["drone"]], VelocityCommand(
                vx=c["vx"], vy=c["vy"], vz=c["vz"], yaw_rate=c["yaw_rate"], frame=Frame.WORLD,
            ))
        )
    states = list(log.iter_kind("state"))
    if not states:
        raise ValueError("log has no state records to replay against")
    t_detach = next((r["t"] for r in log.events("detach")), None)

    by_time = {s["t"]: s for s in states}
    t_last = states[-1]["t"]
    n_steps = round(t_last / plant.dt) + 1

    worst = 0.0
    for k in range(n_steps):
        t = k * plant.dt
        if k % control_every == 0:
            for i, cmd in cmds.get(t, ()):
                plant.cmds[i] = cmd
        rec = by_time.get(t)
        if rec is not None:
            for drone_id, s in rec["drones"].items():
                worst = max(worst, _max_abs_error(plant.uavs[index[drone_id]].position, s["p"]))
            worst = max(worst, _max_abs_error(plant.ball_position(), rec["ball"]["p"]))
        if t >= t_last:
            break
        if t == t_detach:
            plant.release()
        plant.step()
    return worst


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def _mc_single(args) -> dict:
    config_dict, seed = args
    cfg = config_from_dict(config_dict).with_seed(seed)
    log = run_scenario(cfg, detail=False)
    rec = log.verdict_record
    return {
        "seed": seed,
        "verdict": rec["verdict"],
        "t_capture": rec["t_capture"],
        "failure": rec["failure"],
    }


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
    config_dict = config.to_dict()
    jobs = [(config_dict, seed_base + i) for i in range(n_runs)]
    if n_jobs > 1:
        # Imported here: the process pool costs ~20 ms of import that
        # single-process runs never need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as ex:
            runs = list(ex.map(_mc_single, jobs))
    else:
        runs = [_mc_single(j) for j in jobs]
    runs.sort(key=lambda r: r["seed"])

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
