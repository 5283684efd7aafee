"""Scenario configuration: schema, defaults, parsing, validation.

Configs are YAML documents. Every key has a default, so the empty
document is the documented collaborative baseline. Each field declares
its type and range once, as a ``Rule`` in its dataclass field's
metadata; unknown keys are rejected and range violations are reported
with their full field path. Configs are immutable: every section is a
frozen dataclass and every vector and the drone roster a tuple, so
configs derived from one another may share sections.
"""

from __future__ import annotations

import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial

import yaml


class ConfigError(ValueError):
    """Configuration parse or validation failure, with the field path."""


# Caps on a run's cost and size, so every accepted config finishes.
MAX_STEPS = 10_000_000  # duration * rates.dynamics; the default scenario takes 48,000
MAX_RATE_RATIO = 1_000_000  # rates.dynamics over rates.vision or rates.control
MAX_LANES = 1_000  # lawnmower lanes over mission.explore_area at mission.lane_spacing


@dataclass(frozen=True)
class Rule:
    """What one config field accepts, declared once in its field's metadata.

    ``kind`` is ``real`` (a finite number stored as a float, with
    ``lo <= v``, or ``lo < v`` when ``lo_open``, and ``v <= hi`` where
    given; ``optional`` also accepts None), ``vector`` (``n`` finite
    numbers stored as a tuple of floats), ``integer`` (an int, never a
    bool, in the float range and within lo and hi), ``choice`` (one of
    ``options``), ``flag`` (a bool) or ``label`` (a non-empty string).
    """

    kind: str
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    optional: bool = False
    n: int = 0
    shape: str = ""  # a vector's expected form, named in its message
    options: tuple = ()

    def check(self, value, path: str):
        """The value to store for this field; raises ConfigError naming path."""
        kind = self.kind
        if kind == "real":
            if value is None and self.optional:
                return None
            return _real(value, path, self.lo, self.hi, self.lo_open)
        if kind == "vector":
            if not isinstance(value, (list, tuple)) or len(value) != self.n:
                raise ConfigError(f"{path}: expected {self.shape}")
            return tuple(_real(v, f"{path}[{i}]") for i, v in enumerate(value))
        if kind == "integer":
            _require(isinstance(value, int) and not isinstance(value, bool), path, "expected an integer")
            _finite(value, path)
            _within(value, path, self.lo, self.hi, self.lo_open)
        elif kind == "choice":
            _require(value in self.options, path, "must be one of " + ", ".join(self.options))
        elif kind == "flag":
            _require(isinstance(value, bool), path, "expected a boolean")
        elif kind == "label":
            _require(isinstance(value, str) and value, path, "expected a non-empty string")
        return value


def spec(default, kind: str, **rule):
    """A dataclass field whose metadata holds ``Rule(kind, **rule)``."""
    return field(default=default, metadata={"rule": Rule(kind, **rule)})


def real(default, lo=None, hi=None, lo_open=False):
    """A real-valued field; a None default makes None a valid value."""
    return spec(default, "real", lo=lo, hi=hi, lo_open=lo_open, optional=default is None)


positive = partial(real, lo=0.0, lo_open=True)
nonneg = partial(real, lo=0.0)
unit = partial(real, lo=0.0, hi=1.0)


def vector(*default, shape=None):
    n = len(default)
    return spec(default, "vector", n=n, shape=shape or f"a {n}-element list")


@dataclass(frozen=True)
class RatesConfig:
    dynamics: float = positive(400.0)
    vision: float = positive(30.0)
    control: float = positive(20.0)


@dataclass(frozen=True)
class WindConfig:
    enabled: bool = spec(True, "flag")
    mean: tuple = vector(0.0, 0.0, 0.0)
    sigma: float = nonneg(0.02)
    tau: float = positive(2.0)


@dataclass(frozen=True)
class WorldConfig:
    gravity: float = positive(9.81)
    rod_length: float = positive(1.5)
    ball_diameter: float = positive(0.18)
    ball_mass: float = positive(0.1)
    damping: float = nonneg(0.05)
    wind: WindConfig = field(default_factory=WindConfig)


@dataclass(frozen=True)
class TargetConfig:
    pattern: str = spec("straight_line", "choice", options=("static_hover", "straight_line", "figure_eight"))
    center: tuple = vector(-5.0, 0.0, 5.0)
    heading: float = real(0.0)
    speed: float = nonneg(0.5)
    extent: float = positive(4.0)
    span: float = positive(0.35)  # target-drone bounding size seen by the detector


@dataclass(frozen=True)
class CameraConfig:
    width: int = spec(640, "integer", lo=1)
    height: int = spec(480, "integer", lo=1)
    focal_px: float = positive(600.0)
    mount: tuple = vector(0.4, 0.0, 0.0)
    sigma_center_px: float = nonneg(2.0)
    sigma_size_px: float = nonneg(1.0)
    p_det_near: float = positive(8.0)
    p_det_far: float = positive(25.0)
    p_det_floor: float = unit(0.2)
    min_box_px: float = nonneg(3.0)


@dataclass(frozen=True)
class GainsConfig:
    kp_yaw: float = positive(0.01)
    kd_yaw: float = nonneg(0.004)
    kp_z: float = positive(0.004)
    kd_z: float = nonneg(0.001)
    kp_range: float = positive(0.8)
    kd_range: float = nonneg(0.3)


@dataclass(frozen=True)
class LimitsConfig:
    v_xy: float = positive(3.0)
    v_z: float = positive(1.5)
    yaw_rate: float = positive(1.5)


ROLES = ("grabber", "tracker")


@dataclass(frozen=True)
class DroneConfig:
    id: str = spec("grabber", "label")
    role: str = spec("grabber", "choice", options=ROLES)
    start: tuple = vector(-14.0, -6.0, 0.0)
    yaw: float = real(0.0)
    tau: float = positive(0.4)
    camera: CameraConfig = field(default_factory=CameraConfig)
    gains: GainsConfig = field(default_factory=GainsConfig)
    limits: LimitsConfig = field(default_factory=LimitsConfig)


@dataclass(frozen=True)
class PerceptionConfig:
    sigma_px: float = nonneg(2.0)
    sigma_range: float = nonneg(0.35)
    q_pixel: float = positive(50.0)
    q_range: float = positive(2.0)
    q_pixel_ball: float = positive(3000.0)  # the swinging ball needs an agile filter
    q_range_ball: float = positive(8.0)
    init_range_ball: float = positive(6.0)  # ball tracks start only from nearby
    loss_timeout: float = positive(0.8)
    gate_chi2: float = positive(9.21)
    switch_range: float = positive(8.0)
    init_vel_var: float = positive(360000.0)  # (600 px/s)^2: ego-motion can sweep pixels fast
    init_range_rate_var: float = positive(9.0)


@dataclass(frozen=True)
class MissionConfig:
    takeoff_altitude: float = positive(3.5)
    takeoff_speed: float = positive(1.0)
    explore_area: tuple = vector(-15.0, 15.0, -10.0, 10.0, shape="[x_min, x_max, y_min, y_max]")
    explore_speed: float = positive(1.5)
    lane_spacing: float = positive(4.0)
    yaw_gain: float = positive(1.5)
    tracker_standoff: float = positive(5.0)
    grabber_standoff: float = positive(2.5)
    drone_approach_range: float = positive(5.0)
    approach_speed: float = positive(2.5)
    arrival_radius: float = positive(3.0)
    scan_yaw_rate: float = positive(0.6)
    align_px: float = positive(60.0)
    align_range_tol: float = positive(1.0)
    grab_ramp_rate: float = positive(0.5)
    grab_closing_bias: float = nonneg(0.8)
    grab_time_budget: float = positive(10.0)
    sighting_period: float = positive(0.2)
    land_speed: float = positive(0.7)
    home_tolerance: float = positive(1.0)
    memory_timeout: float = positive(12.0)
    mission_budget: float | None = positive(None)  # None: no budget, the run ends at the scenario duration


@dataclass(frozen=True)
class CaptureConfig:
    radius: float = positive(0.25)
    cone_half_angle_deg: float = real(45.0, lo=0.0, lo_open=True, hi=180.0)
    max_rel_speed: float = positive(1.5)
    gripper_offset: tuple = vector(0.4, 0.0, 0.0)


@dataclass(frozen=True)
class ChannelConfig:
    latency: float = nonneg(0.1)
    drop_probability: float = unit(0.05)


@dataclass(frozen=True)
class ScenarioConfig:
    schema_version: int = spec(1, "integer", lo=1, hi=1)
    seed: int = spec(1, "integer", lo=0)
    duration: float = positive(120.0)
    rates: RatesConfig = field(default_factory=RatesConfig)
    world: WorldConfig = field(default_factory=WorldConfig)
    target: TargetConfig = field(default_factory=TargetConfig)
    drones: tuple[DroneConfig, ...] = (
        DroneConfig(),
        DroneConfig(id="tracker", role="tracker", start=(-14.0, 6.0, 0.0)),
    )
    perception: PerceptionConfig = field(default_factory=PerceptionConfig)
    mission: MissionConfig = field(default_factory=MissionConfig)
    capture: CaptureConfig = field(default_factory=CaptureConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)

    def to_dict(self) -> dict:
        return asdict(self)

    def with_seed(self, seed: int) -> "ScenarioConfig":
        """This config with the seed replaced; the rest is shared, since
        configs are immutable. Raises ConfigError when the seed field's
        Rule rejects seed."""
        rule = next(f.metadata["rule"] for f in fields(self) if f.name == "seed")
        return replace(self, seed=rule.check(seed, "seed"))


def _require(cond: bool, path: str, msg: str):
    if not cond:
        raise ConfigError(f"{path}: {msg}")


def _within(v, path, lo, hi, lo_open):
    if lo is not None:
        if lo_open:
            _require(v > lo, path, f"must be > {lo}")
        else:
            _require(v >= lo, path, f"must be >= {lo}")
    if hi is not None:
        _require(v <= hi, path, f"must be <= {hi}")


def _real(value, path, lo=None, hi=None, lo_open=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number")
    _finite(value, path)
    v = float(value)
    _within(v, path, lo, hi, lo_open)
    return v


def _finite(value, path):
    # Compares an int exactly, so one too large for a float fails here
    # rather than raising OverflowError in float(); so does NaN.
    _require(abs(value) <= sys.float_info.max, path, "must be finite")


def _build(cls, data, path: str):
    """A cls instance: its defaults overlaid with ``data``, each given
    value checked by its field's Rule. Recurses into sections, which
    each field names by its default_factory, and the drone list;
    rejects unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'document'}: expected a mapping")
    known = {f.name: f for f in fields(cls)}
    given = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in known:
            raise ConfigError(f"{where}: unknown key")
        rule = known[key].metadata.get("rule")
        if rule is not None:
            value = rule.check(value, where)
        elif key == "drones":
            # A tuple too: to_dict keeps the roster's tuple.
            if not isinstance(value, (list, tuple)) or not value:
                raise ConfigError(f"{where}: expected a non-empty list")
            value = tuple(
                _build(DroneConfig, {} if e is None else e, f"{where}[{i}]") for i, e in enumerate(value)
            )
        else:
            value = _build(known[key].default_factory, value if value is not None else {}, where)
        given[key] = value
    return cls(**given)


def config_from_dict(data: dict) -> ScenarioConfig:
    """A validated config from a mapping; absent keys keep their defaults.

    Each given field is checked against its Rule, then the rules that
    relate fields are checked; raises ConfigError naming the field. Real
    fields become floats and vectors tuples of floats, so an integer
    spelling in YAML gives the same config and log header.
    """
    cfg = _build(ScenarioConfig, data, "")
    r = cfg.rates
    _require(r.vision <= r.dynamics, "rates.vision", "must not exceed rates.dynamics")
    _require(r.control <= r.dynamics, "rates.control", "must not exceed rates.dynamics")
    # Floats throughout: an overflowing product or ratio is inf and fails.
    _require(
        1.0 <= cfg.duration * r.dynamics <= MAX_STEPS,
        "duration",
        f"duration * rates.dynamics must give 1 to {MAX_STEPS} dynamics steps",
    )
    for rate in ("vision", "control"):
        _require(
            r.dynamics / getattr(r, rate) <= MAX_RATE_RATIO,
            f"rates.{rate}",
            f"rates.dynamics / rates.{rate} must not exceed {MAX_RATE_RATIO}",
        )

    roles = [d.role for d in cfg.drones]
    _require(roles.count("grabber") == 1, "drones", "exactly one grabber required")
    _require(roles.count("tracker") <= 1, "drones", "at most one tracker supported")
    ids = [d.id for d in cfg.drones]
    _require(len(set(ids)) == len(ids), "drones", "drone ids must be unique")
    for i, d in enumerate(cfg.drones):
        # The timeseries and trajectory exports name the ball and the target so.
        _require(d.id not in ("ball", "target"), f"drones[{i}].id", "must not be 'ball' or 'target'")
        c = d.camera
        _require(c.p_det_far >= c.p_det_near, f"drones[{i}].camera.p_det_far", "must be >= p_det_near")
    m = cfg.mission
    x_min, x_max, y_min, y_max = m.explore_area
    _require(x_max > x_min, "mission.explore_area", "x_max must exceed x_min")
    _require(y_max > y_min, "mission.explore_area", "y_max must exceed y_min")
    # lawnmower_waypoints lays ceil((y_max - y_min) / lane_spacing) + 1 lanes.
    _require(
        (y_max - y_min) / m.lane_spacing <= MAX_LANES - 1,
        "mission.lane_spacing",
        f"must leave at most {MAX_LANES} lanes over mission.explore_area",
    )
    _require(
        m.grabber_standoff < cfg.perception.init_range_ball,
        "mission.grabber_standoff",
        "must be below perception.init_range_ball",
    )
    return cfg


def parse_config(text) -> ScenarioConfig:
    """Parse a YAML scenario document, a string or an open text file;
    empty input yields the baseline."""
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
    """Parse the YAML file at path; a syntax error names the file. Raises
    ConfigError naming path for a file that is not UTF-8, and OSError for
    one that cannot be read."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return parse_config(fh)
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: {e}") from e
