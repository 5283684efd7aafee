"""Property tests driven by the config schema.

Every config field declares what it accepts once, as a ``Rule`` in its
dataclass field's metadata. The strategy below reads those rules, so
the configs it draws cover every declared range, out to magnitudes of
1e300, without a second copy of the ranges. The property is the
simulator's contract: a config either fails validation with a
ConfigError, or its run ends in exactly one verdict, which ``outcome``
reads back from the log, its log passes ``validate_log``, and, unless
the verdict is ``invalid``, replay reproduces the logged truth.
"""

import copy
import math
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from skygrab.config import ConfigError, DroneConfig, ScenarioConfig, config_from_dict, load_config
from skygrab.engine import outcome, replay_divergence, run_scenario
from skygrab.logs import validate_log

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Each run takes at most this many dynamics steps: duration is the one
# field drawn short, as a step count over the drawn dynamics rate.
MAX_DRAWN_STEPS = 6000
EXTREMES = (0.0, 1.0, -1.0, 5e-324, sys.float_info.min, 1e-300, 1e300, -1e300)


def declared(cls=ScenarioConfig, path=""):
    """(path, Rule) for every field that declares one, through the
    sections and both default drones."""
    for f in fields(cls):
        where = f"{path}.{f.name}" if path else f.name
        rule = f.metadata.get("rule")
        if rule is not None:
            yield where, rule
        elif f.name == "drones":
            for i in range(len(ScenarioConfig().drones)):
                yield from declared(DroneConfig, f"{where}[{i}]")
        elif is_dataclass(f.default_factory):
            yield from declared(f.default_factory, where)


RULES = dict(declared())
SHIPPED = [load_config(p).to_dict() for p in sorted(CONFIGS.glob("*.yaml"))]


def leaves(data: dict, path=""):
    """The path of every value in a config dict that is not a section,
    through both default drones."""
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from leaves(value, where)
        elif key == "drones":
            for i, drone in enumerate(value):
                yield from leaves(drone, f"{where}[{i}]")
        else:
            yield where


def test_every_field_declares_a_rule():
    # declared() finds sections by their default_factory; a section that
    # lost it would drop out of RULES, and of every test drawn from it,
    # without a failure.
    assert sorted(RULES) == sorted(leaves(ScenarioConfig().to_dict()))


def values(rule):
    """A strategy over the values ``rule`` accepts."""
    if rule.kind in ("real", "vector"):
        bounded = rule.kind == "real"
        lo = rule.lo if bounded and rule.lo is not None else -1e300
        hi = rule.hi if bounded and rule.hi is not None else 1e300
        edges = [v for v in EXTREMES + (lo, hi) if lo <= v <= hi and (v > lo or not rule.lo_open)]
        scalar = st.one_of(
            st.sampled_from(edges),
            st.floats(lo, hi, exclude_min=bounded and rule.lo_open, allow_nan=False),
        )
        if rule.kind == "vector":
            return st.lists(scalar, min_size=rule.n, max_size=rule.n)
        return st.none() | scalar if rule.optional else scalar
    if rule.kind == "integer":
        lo = rule.lo if rule.lo is not None else -(10**300)
        hi = rule.hi if rule.hi is not None else 10**300
        return st.one_of(st.sampled_from(sorted({lo, hi, min(lo + 1, hi)})), st.integers(lo, hi))
    if rule.kind == "choice":
        return st.sampled_from(rule.options)
    if rule.kind == "flag":
        return st.booleans()
    return st.text(min_size=1, max_size=8)  # label


def _keys(path: str) -> list:
    keys = []
    for part in path.split("."):
        name, _, index = part.partition("[")
        keys += [name, int(index[:-1])] if index else [name]
    return keys


def get_path(data: dict, path: str):
    for key in _keys(path):
        data = data[key]
    return data


def set_path(data: dict, path: str, value) -> None:
    *parents, last = _keys(path)
    for key in parents:
        data = data[key]
    data[last] = value


@st.composite
def scenario_dicts(draw):
    """A shipped scenario with one to four declared fields drawn from
    their ranges."""
    data = copy.deepcopy(draw(st.sampled_from(SHIPPED)))
    paths = [p for p in RULES if p != "duration" and not p.startswith(f"drones[{len(data['drones'])}]")]
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=4, unique=True)):
        set_path(data, path, draw(values(RULES[path])))
    steps = draw(st.just(MAX_DRAWN_STEPS) | st.integers(1, MAX_DRAWN_STEPS))
    data["duration"] = steps / data["rates"]["dynamics"]
    return data


@settings(
    max_examples=100,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario_dicts())
def test_every_accepted_config_ends_in_one_verdict(data):
    try:
        cfg = config_from_dict(copy.deepcopy(data))
    except ConfigError:
        return
    log = run_scenario(cfg, detail=True)
    assert len(list(log.iter_kind("verdict"))) == 1
    validate_log(log)
    rec = log.verdict_record
    assert outcome(log) == (rec["verdict"], rec["t_capture"], rec["failure"])
    if log.verdict_record["verdict"] != "invalid":
        assert replay_divergence(log) <= 1e-9


def bounds():
    """(path, value, accepted) at every declared bound: a closed bound
    and the float just outside it, or an open bound and the smallest
    normal float inside it (every open bound here is 0)."""
    for path, rule in RULES.items():
        if rule.kind == "integer":
            if rule.lo is not None:
                yield path, rule.lo, True
                yield path, rule.lo - 1, False
            if rule.hi is not None:
                if rule.hi != rule.lo:
                    yield path, rule.hi, True
                yield path, rule.hi + 1, False
        elif rule.kind == "real":
            if rule.lo is not None and rule.lo_open:
                assert rule.lo == 0.0
                yield path, rule.lo, False
                yield path, sys.float_info.min, True
            elif rule.lo is not None:
                yield path, rule.lo, True
                yield path, math.nextafter(rule.lo, -math.inf), False
            if rule.hi is not None:
                yield path, rule.hi, True
                yield path, math.nextafter(rule.hi, math.inf), False


def companions(path: str, v: float) -> dict:
    """Settings of related fields that keep the rules relating fields
    satisfied when ``path`` sits at a bound."""
    if path == "duration":
        return {"rates.dynamics": 2.0 / v, "rates.vision": 2.0 / v, "rates.control": 2.0 / v}
    if path.startswith("rates."):
        return {"rates.dynamics": v, "rates.vision": v, "rates.control": v, "duration": 2.0 / v}
    if path.endswith("camera.p_det_far"):
        return {path.replace("far", "near"): v}
    if path == "perception.init_range_ball":
        return {"mission.grabber_standoff": v / 2.0}
    if path == "mission.lane_spacing":
        return {"mission.explore_area": [-15.0, 15.0, 0.0, v]}
    return {}


@pytest.mark.parametrize("path,value,accepted", list(bounds()))
def test_declared_bound(path, value, accepted):
    data = ScenarioConfig().to_dict()
    set_path(data, path, value)
    if not accepted:
        with pytest.raises(ConfigError) as e:
            config_from_dict(data)
        assert str(e.value).startswith(f"{path}: ")
        return
    for other, v in companions(path, value).items():
        set_path(data, other, v)
    assert get_path(config_from_dict(data).to_dict(), path) == value
