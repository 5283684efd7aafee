"""Scenario configuration: schema, defaults, parsing, validation.

Configs are YAML documents. Every key has a default, so the empty
document is the documented collaborative baseline; unknown keys are
rejected and range violations are reported with their full field path.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field

import yaml


class ConfigError(ValueError):
    """Configuration parse or validation failure, with the field path."""


@dataclass
class RatesConfig:
    dynamics: float = 400.0
    vision: float = 30.0
    control: float = 20.0


@dataclass
class WindConfig:
    enabled: bool = True
    mean: list = field(default_factory=lambda: [0.0, 0.0, 0.0])
    sigma: float = 0.02
    tau: float = 2.0


@dataclass
class WorldConfig:
    gravity: float = 9.81
    rod_length: float = 1.5
    ball_diameter: float = 0.18
    ball_mass: float = 0.1
    damping: float = 0.05
    detach_threshold: float = 5.0
    claw_pull_force: float = 8.0
    wind: WindConfig = field(default_factory=WindConfig)


@dataclass
class TargetConfig:
    pattern: str = "straight_line"
    center: list = field(default_factory=lambda: [-5.0, 0.0, 5.0])
    heading: float = 0.0
    speed: float = 0.5
    extent: float = 4.0
    span: float = 0.35  # target-drone bounding size seen by the detector


@dataclass
class CameraConfig:
    width: int = 640
    height: int = 480
    focal_px: float = 600.0
    mount: list = field(default_factory=lambda: [0.4, 0.0, 0.0])
    sigma_center_px: float = 2.0
    sigma_size_px: float = 1.0
    p_det_near: float = 8.0
    p_det_far: float = 25.0
    p_det_floor: float = 0.2
    min_box_px: float = 3.0


@dataclass
class GainsConfig:
    kp_yaw: float = 0.01
    kd_yaw: float = 0.004
    kp_z: float = 0.004
    kd_z: float = 0.001
    kp_range: float = 0.8
    kd_range: float = 0.3


@dataclass
class LimitsConfig:
    v_xy: float = 3.0
    v_z: float = 1.5
    yaw_rate: float = 1.5


@dataclass
class DroneConfig:
    id: str = "grabber"
    role: str = "grabber"
    start: list = field(default_factory=lambda: [-14.0, -6.0, 0.0])
    yaw: float = 0.0
    tau: float = 0.4
    camera: CameraConfig = field(default_factory=CameraConfig)
    gains: GainsConfig = field(default_factory=GainsConfig)
    limits: LimitsConfig = field(default_factory=LimitsConfig)


@dataclass
class PerceptionConfig:
    sigma_px: float = 2.0
    sigma_range: float = 0.35
    q_pixel: float = 50.0
    q_range: float = 2.0
    q_pixel_ball: float = 3000.0  # the swinging ball needs an agile filter
    q_range_ball: float = 8.0
    init_range_ball: float = 6.0  # ball tracks start only from nearby
    loss_timeout: float = 0.8
    gate_chi2: float = 9.21
    switch_range: float = 8.0
    init_vel_var: float = 360000.0   # (600 px/s)^2: ego-motion can sweep pixels fast
    init_range_rate_var: float = 9.0


@dataclass
class MissionConfig:
    takeoff_altitude: float = 3.5
    takeoff_speed: float = 1.0
    explore_area: list = field(default_factory=lambda: [-15.0, 15.0, -10.0, 10.0])
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
    mission_budget: float | None = None  # defaults to the scenario duration


@dataclass
class CaptureConfig:
    radius: float = 0.25
    cone_half_angle_deg: float = 45.0
    max_rel_speed: float = 1.5
    gripper_offset: list = field(default_factory=lambda: [0.4, 0.0, 0.0])


@dataclass
class ChannelConfig:
    latency: float = 0.1
    drop_probability: float = 0.05
    rate_hz: float = 5.0


def _default_drones() -> list[DroneConfig]:
    return [
        DroneConfig(),
        DroneConfig(id="tracker", role="tracker", start=[-14.0, 6.0, 0.0]),
    ]


@dataclass
class ScenarioConfig:
    schema_version: int = 1
    seed: int = 1
    duration: float = 120.0
    rates: RatesConfig = field(default_factory=RatesConfig)
    world: WorldConfig = field(default_factory=WorldConfig)
    target: TargetConfig = field(default_factory=TargetConfig)
    drones: list[DroneConfig] = field(default_factory=_default_drones)
    perception: PerceptionConfig = field(default_factory=PerceptionConfig)
    mission: MissionConfig = field(default_factory=MissionConfig)
    capture: CaptureConfig = field(default_factory=CaptureConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)

    def to_dict(self) -> dict:
        return asdict(self)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        """A deep copy with the seed replaced; it shares nothing with self."""
        cfg = copy.deepcopy(self)
        cfg.seed = int(seed)
        return cfg


_SECTION_TYPES = {
    "rates": RatesConfig,
    "world": WorldConfig,
    "wind": WindConfig,
    "target": TargetConfig,
    "camera": CameraConfig,
    "gains": GainsConfig,
    "limits": LimitsConfig,
    "perception": PerceptionConfig,
    "mission": MissionConfig,
    "capture": CaptureConfig,
    "channel": ChannelConfig,
}


def _apply(obj, data: dict, path: str):
    """Recursively overlay a user dict onto a dataclass of defaults."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'document'}: expected a mapping")
    fields = {f for f in obj.__dataclass_fields__}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in fields:
            raise ConfigError(f"{where}: unknown key")
        current = getattr(obj, key)
        if hasattr(current, "__dataclass_fields__"):
            _apply(current, value if value is not None else {}, where)
        elif key == "drones":
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{where}: expected a non-empty list")
            drones = []
            for i, entry in enumerate(value):
                dc = DroneConfig()
                _apply(dc, entry or {}, f"{where}[{i}]")
                drones.append(dc)
            obj.drones = drones
        else:
            setattr(obj, key, value)
    return obj


def _require(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _num(value, path, lo=None, hi=None, lo_open=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{path}: must be finite")
    if lo is not None:
        if lo_open:
            _require(v > lo, path, f"must be > {lo}")
        else:
            _require(v >= lo, path, f"must be >= {lo}")
    if hi is not None:
        _require(v <= hi, path, f"must be <= {hi}")
    return v


def _vec3(value, path) -> list:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{path}: expected a 3-element list")
    return [_num(v, f"{path}[{i}]") for i, v in enumerate(value)]


def validate_config(cfg: ScenarioConfig) -> ScenarioConfig:
    """Range-check every field; raises ConfigError naming the field.

    Returns a validated deep copy whose vectors are lists of floats; the
    input is left unchanged.
    """
    cfg = copy.deepcopy(cfg)
    _require(cfg.schema_version == 1, "schema_version", "unsupported schema version")
    _require(isinstance(cfg.seed, int) and not isinstance(cfg.seed, bool), "seed", "expected an integer")
    _num(cfg.duration, "duration", lo=0.0, lo_open=True)

    _num(cfg.rates.dynamics, "rates.dynamics", lo=0.0, lo_open=True)
    _num(cfg.rates.vision, "rates.vision", lo=0.0, lo_open=True)
    _num(cfg.rates.control, "rates.control", lo=0.0, lo_open=True)
    _require(cfg.rates.vision <= cfg.rates.dynamics, "rates.vision", "must not exceed rates.dynamics")
    _require(cfg.rates.control <= cfg.rates.dynamics, "rates.control", "must not exceed rates.dynamics")

    w = cfg.world
    _num(w.gravity, "world.gravity", lo=0.0, lo_open=True)
    _num(w.rod_length, "world.rod_length", lo=0.0, lo_open=True)
    _num(w.ball_diameter, "world.ball_diameter", lo=0.0, lo_open=True)
    _num(w.ball_mass, "world.ball_mass", lo=0.0, lo_open=True)
    _num(w.damping, "world.damping", lo=0.0)
    _num(w.detach_threshold, "world.detach_threshold", lo=0.0)
    _num(w.claw_pull_force, "world.claw_pull_force", lo=0.0)
    _require(isinstance(w.wind.enabled, bool), "world.wind.enabled", "expected a boolean")
    w.wind.mean = _vec3(w.wind.mean, "world.wind.mean")
    _num(w.wind.sigma, "world.wind.sigma", lo=0.0)
    _num(w.wind.tau, "world.wind.tau", lo=0.0, lo_open=True)

    tg = cfg.target
    _require(
        tg.pattern in ("static_hover", "straight_line", "figure_eight"),
        "target.pattern",
        "must be one of static_hover, straight_line, figure_eight",
    )
    tg.center = _vec3(tg.center, "target.center")
    _num(tg.heading, "target.heading")
    _num(tg.speed, "target.speed", lo=0.0)
    _num(tg.extent, "target.extent", lo=0.0, lo_open=True)
    _num(tg.span, "target.span", lo=0.0, lo_open=True)

    _require(len(cfg.drones) >= 1, "drones", "at least one drone required")
    roles = [d.role for d in cfg.drones]
    _require(roles.count("grabber") == 1, "drones", "exactly one grabber required")
    _require(roles.count("tracker") <= 1, "drones", "at most one tracker supported")
    ids = [d.id for d in cfg.drones]
    _require(len(set(ids)) == len(ids), "drones", "drone ids must be unique")
    for i, d in enumerate(cfg.drones):
        p = f"drones[{i}]"
        _require(isinstance(d.id, str) and d.id, f"{p}.id", "expected a non-empty string")
        _require(d.role in ("grabber", "tracker"), f"{p}.role", "must be grabber or tracker")
        d.start = _vec3(d.start, f"{p}.start")
        _num(d.yaw, f"{p}.yaw")
        _num(d.tau, f"{p}.tau", lo=0.0, lo_open=True)
        c = d.camera
        _require(isinstance(c.width, int) and c.width > 0, f"{p}.camera.width", "expected a positive integer")
        _require(isinstance(c.height, int) and c.height > 0, f"{p}.camera.height", "expected a positive integer")
        _num(c.focal_px, f"{p}.camera.focal_px", lo=0.0, lo_open=True)
        c.mount = _vec3(c.mount, f"{p}.camera.mount")
        _num(c.sigma_center_px, f"{p}.camera.sigma_center_px", lo=0.0)
        _num(c.sigma_size_px, f"{p}.camera.sigma_size_px", lo=0.0)
        _num(c.p_det_near, f"{p}.camera.p_det_near", lo=0.0, lo_open=True)
        _num(c.p_det_far, f"{p}.camera.p_det_far", lo=0.0, lo_open=True)
        _require(c.p_det_far >= c.p_det_near, f"{p}.camera.p_det_far", "must be >= p_det_near")
        _num(c.p_det_floor, f"{p}.camera.p_det_floor", lo=0.0, hi=1.0)
        _num(c.min_box_px, f"{p}.camera.min_box_px", lo=0.0)
        g = d.gains
        for name in ("kp_yaw", "kd_yaw", "kp_z", "kd_z", "kp_range", "kd_range"):
            lo_open = name.startswith("kp")
            _num(getattr(g, name), f"{p}.gains.{name}", lo=0.0, lo_open=lo_open)
        _num(d.limits.v_xy, f"{p}.limits.v_xy", lo=0.0, lo_open=True)
        _num(d.limits.v_z, f"{p}.limits.v_z", lo=0.0, lo_open=True)
        _num(d.limits.yaw_rate, f"{p}.limits.yaw_rate", lo=0.0, lo_open=True)

    pc = cfg.perception
    _num(pc.sigma_px, "perception.sigma_px", lo=0.0)
    _num(pc.sigma_range, "perception.sigma_range", lo=0.0)
    _num(pc.q_pixel, "perception.q_pixel", lo=0.0, lo_open=True)
    _num(pc.q_range, "perception.q_range", lo=0.0, lo_open=True)
    _num(pc.q_pixel_ball, "perception.q_pixel_ball", lo=0.0, lo_open=True)
    _num(pc.q_range_ball, "perception.q_range_ball", lo=0.0, lo_open=True)
    _num(pc.init_range_ball, "perception.init_range_ball", lo=0.0, lo_open=True)
    _num(pc.loss_timeout, "perception.loss_timeout", lo=0.0, lo_open=True)
    _num(pc.gate_chi2, "perception.gate_chi2", lo=0.0, lo_open=True)
    _num(pc.switch_range, "perception.switch_range", lo=0.0, lo_open=True)
    _num(pc.init_vel_var, "perception.init_vel_var", lo=0.0, lo_open=True)
    _num(pc.init_range_rate_var, "perception.init_range_rate_var", lo=0.0, lo_open=True)

    m = cfg.mission
    _num(m.takeoff_altitude, "mission.takeoff_altitude", lo=0.0, lo_open=True)
    _num(m.takeoff_speed, "mission.takeoff_speed", lo=0.0, lo_open=True)
    if not isinstance(m.explore_area, (list, tuple)) or len(m.explore_area) != 4:
        raise ConfigError("mission.explore_area: expected [x_min, x_max, y_min, y_max]")
    m.explore_area = [_num(v, f"mission.explore_area[{i}]") for i, v in enumerate(m.explore_area)]
    _require(m.explore_area[1] > m.explore_area[0], "mission.explore_area", "x_max must exceed x_min")
    _require(m.explore_area[3] > m.explore_area[2], "mission.explore_area", "y_max must exceed y_min")
    for name in (
        "explore_speed", "lane_spacing", "yaw_gain", "tracker_standoff",
        "grabber_standoff", "drone_approach_range", "approach_speed",
        "arrival_radius", "scan_yaw_rate", "align_px", "align_range_tol",
        "grab_ramp_rate", "grab_time_budget", "sighting_period",
        "land_speed", "home_tolerance", "memory_timeout",
    ):
        _num(getattr(m, name), f"mission.{name}", lo=0.0, lo_open=True)
    _num(m.grab_closing_bias, "mission.grab_closing_bias", lo=0.0)
    if m.mission_budget is not None:
        _num(m.mission_budget, "mission.mission_budget", lo=0.0, lo_open=True)
    _require(
        m.grabber_standoff < pc.init_range_ball,
        "mission.grabber_standoff",
        "must be below perception.init_range_ball",
    )

    cp = cfg.capture
    _num(cp.radius, "capture.radius", lo=0.0, lo_open=True)
    _num(cp.cone_half_angle_deg, "capture.cone_half_angle_deg", lo=0.0, lo_open=True, hi=180.0)
    _num(cp.max_rel_speed, "capture.max_rel_speed", lo=0.0, lo_open=True)
    cp.gripper_offset = _vec3(cp.gripper_offset, "capture.gripper_offset")

    ch = cfg.channel
    _num(ch.latency, "channel.latency", lo=0.0)
    _num(ch.drop_probability, "channel.drop_probability", lo=0.0, hi=1.0)
    _num(ch.rate_hz, "channel.rate_hz", lo=0.0, lo_open=True)

    return cfg


def config_from_dict(data: dict) -> ScenarioConfig:
    cfg = ScenarioConfig()
    _apply(cfg, data or {}, "")
    return validate_config(cfg)


def parse_config(text: str) -> ScenarioConfig:
    """Parse a YAML scenario document; empty input yields the baseline."""
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"invalid YAML: {e}") from e
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("document: expected a mapping at the top level")
    return config_from_dict(data)


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
