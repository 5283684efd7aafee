"""Layer spans for the traced benchmark pass.

The tracer wraps the public functions that ``skygrab.engine`` and
``skygrab.coordination`` call, by replacing module attributes and class
methods from outside the package; no skygrab source is edited. Each
wrapper records a span (calls, total and self nanoseconds, where self
time is the span minus the time of the wrapped calls nested inside it)
and, for a few names, counts taken from the arguments or the return
value. Spans are aggregated per name in memory and reported at the end.

The layers are skygrab's modules. ``cli``, ``plotting`` and ``frames``
are thin or off the hot path and are not wrapped.
"""

from __future__ import annotations

import contextlib
import functools
import time

# (layer, metric name, module path, attribute path). The module path is
# where the caller looks the name up, so a function imported by name into
# skygrab.engine is patched in skygrab.engine's namespace. Several entries
# may name one function (re-exports); they share one wrapper.
TARGETS = [
    ("world", "step_ball", "skygrab.engine", "step_ball"),
    ("world", "step_uav", "skygrab.engine", "step_uav"),
    ("world", "target_pose", "skygrab.engine", "target_pose"),
    ("world", "wind_step", "skygrab.world", "OrnsteinUhlenbeckWind.step"),
    ("world", "ball_world_position", "skygrab.engine", "ball_world_position"),
    ("world", "ball_world_velocity", "skygrab.engine", "ball_world_velocity"),
    ("world", "detach", "skygrab.engine", "detach"),
    ("camera", "synth_detection", "skygrab.engine", "synth_detection"),
    ("camera", "gate_below_drone", "skygrab.engine", "gate_below_drone"),
    ("camera", "estimate_range", "skygrab.engine", "estimate_range"),
    ("perception", "vision_update", "skygrab.perception", "PerceptionState.vision_update"),
    ("guidance", "servo_command", "skygrab.coordination", "servo_command"),
    ("guidance", "goto_command", "skygrab.coordination", "goto_command"),
    ("guidance", "explore_command", "skygrab.coordination", "explore_command"),
    ("guidance", "saturate", "skygrab.coordination", "saturate"),
    ("guidance", "camera_to_vehicle", "skygrab.coordination", "camera_to_vehicle"),
    ("coordination", "agent_step", "skygrab.coordination", "DroneAgent.step"),
    ("coordination", "grab_detect", "skygrab.coordination", "grab_detect"),
    ("coordination", "gripper_point", "skygrab.coordination", "gripper_point"),
    ("coordination", "channel_submit", "skygrab.coordination", "Channel.submit"),
    ("coordination", "channel_collect", "skygrab.coordination", "Channel.collect"),
    ("logs", "append", "skygrab.logs", "SimLog.append"),
    ("logs", "to_bytes", "skygrab.logs", "SimLog.to_bytes"),
    ("logs", "write", "skygrab.logs", "SimLog.write"),
    ("logs", "read", "skygrab.logs", "SimLog.read"),
    ("logs", "validate", "skygrab.logs", "validate_log"),
    ("logs", "validate", "skygrab", "validate_log"),
    ("engine", "run_scenario", "skygrab.engine", "run_scenario"),
    ("engine", "run_scenario", "skygrab", "run_scenario"),
    ("engine", "replay_divergence", "skygrab.engine", "replay_divergence"),
    ("engine", "replay_divergence", "skygrab", "replay_divergence"),
    ("engine", "monte_carlo", "skygrab.engine", "monte_carlo"),
    ("engine", "monte_carlo", "skygrab", "monte_carlo"),
    ("config", "from_dict", "skygrab.engine", "config_from_dict"),
    ("config", "to_dict", "skygrab.config", "ScenarioConfig.to_dict"),
    ("config", "with_seed", "skygrab.config", "ScenarioConfig.with_seed"),
]

LAYERS = ["world", "camera", "perception", "guidance", "coordination", "engine", "logs", "config"]


def _count_detection(counts, args, kwargs, result):
    counts["det_yield_hits"] += result is not None


def _count_vision(counts, args, kwargs, result):
    # vision_update(self, drone_det, drone_range, ball_det, ball_range, t, ...)
    counts["detections_fed"] += (args[1] is not None) + (args[3] is not None)
    for name, _cls in result:
        if name == "measurement_rejected":
            counts["measurement_rejected"] += 1
        elif name == "track_lost":
            counts["track_lost"] += 1


def _count_submit(counts, args, kwargs, result):
    for _msg, status in result:
        counts["channel_submitted"] += 1
        counts["channel_" + status] += 1


def _count_collect(counts, args, kwargs, result):
    counts["channel_delivered"] += len(result)


def _count_to_bytes(counts, args, kwargs, result):
    counts["bytes_serialized"] += len(result)


def _count_read(counts, args, kwargs, result):
    counts["records_read"] += len(result.records)


HOOKS = {
    "synth_detection": _count_detection,
    "vision_update": _count_vision,
    "channel_submit": _count_submit,
    "channel_collect": _count_collect,
    "to_bytes": _count_to_bytes,
    "read": _count_read,
}

COUNT_KEYS = [
    "det_yield_hits", "detections_fed", "measurement_rejected", "track_lost",
    "channel_submitted", "channel_sent", "channel_dropped", "channel_rate_limited",
    "channel_delivered", "bytes_serialized", "records_read",
]


class Tracer:
    """Aggregated spans per wrapped name, recorded only while active."""

    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self.missing: dict[str, str] = {}
        self.active = False
        self._child_ns = [0]

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0, 0])
        hook = HOOKS.get(name)
        counts = self.counts
        child_ns = self._child_ns
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            child_ns.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = child_ns.pop()
                child_ns[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Patch every target; a target that does not exist is recorded
        as missing with the reason, never silently skipped."""
        import importlib

        wrapped: dict[int, object] = {}
        for _layer, name, module_path, attr_path in TARGETS:
            self.stats.setdefault(name, [0, 0, 0])
            module = importlib.import_module(module_path)
            owner_path, _, attr = attr_path.rpartition(".")
            owner = module
            try:
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (AttributeError, KeyError):
                self.missing[name] = f"{module_path}.{attr_path} does not exist"
                continue
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapper = wrapped.setdefault(id(fn), self._wrap(name, fn))
            setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    @contextlib.contextmanager
    def paused(self):
        """Suspend recording, for the benchmark's own checks."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def snapshot(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "missing": self.missing}


def layer_of(name: str) -> str:
    return next(layer for layer, n, _m, _a in TARGETS if n == name)
