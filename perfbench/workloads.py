"""The benchmark's workloads: generated configs and timed operations.

Each workload is a deterministic sequence of operations. Operation i
depends only on the workload, the benchmark seed and i, so the timed
pass and the traced pass of one run execute exactly the same scenarios.
Scenario seeds are consecutive and start from the benchmark seed.

Every operation checks what it produced. It fails if it raises, if a log
does not hold exactly one verdict, if a log fails ``validate_log`` or
its tick counters disagree with its end time, or (on ``detail_replay``)
if the replay divergence exceeds 1e-9 m. A failed operation is counted
and the workload goes on with the next one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

REPLAY_TOLERANCE_M = 1e-9
# Simulated duration used by the smoke check, so that it takes seconds.
SHORT_DURATION_S = 20.0

CONFIG_FILES = {
    "mc_paired": ["default.yaml", "single_moving.yaml"],
    "hi_rate_vision": ["default.yaml"],
    "detail_replay": ["nominal_static.yaml", "nominal_moving.yaml", "nominal_collab_static.yaml"],
}
OVERRIDES = {
    "hi_rate_vision": {"target": {"pattern": "figure_eight"}, "rates": {"vision": 200, "control": 100}},
}
WHY = {
    "mc_paired": "the paired collaborative-vs-single Monte Carlo study: lean runs with wind, "
                 "pixel noise and a lossy channel, where the world plant loop does most of the work",
    "hi_rate_vision": "a 200 Hz camera and 100 Hz control on a figure-eight target, where camera "
                      "synthesis and perception take the largest share",
    "detail_replay": "the interactive run path with its read side: detailed run, log write, "
                     "read, validation and replay, the only workload where logs do real work",
}
NAMES = list(CONFIG_FILES)


class CheckFailed(Exception):
    """An operation produced output that fails the benchmark's checks."""


@dataclass
class Op:
    """One timed operation and what it produced."""

    index: int
    label: str
    config: str = ""  # which of the workload's configs the operation ran
    host_s: float = 0.0  # host seconds of the whole operation
    sim_host_s: float = 0.0  # host seconds inside the simulation call
    parts: dict = field(default_factory=dict)  # named sub-timings, host seconds
    sim_s: float = 0.0  # simulated seconds (the verdict's t_end)
    digest: str = ""
    verdict: str | None = None
    failure: str | None = None
    t_capture: float | None = None
    counters: dict = field(default_factory=dict)
    records: int = 0
    error: str | None = None


def _merge(base: dict, over: dict) -> dict:
    for key, value in over.items():
        if isinstance(value, dict):
            _merge(base[key], value)
        else:
            base[key] = value
    return base


def make_configs(root: Path, name: str, short: bool = False) -> list:
    """Load and validate the workload's scenario configs."""
    from skygrab import load_config
    from skygrab.config import config_from_dict

    overrides = dict(OVERRIDES.get(name, {}))
    if short:
        overrides["duration"] = SHORT_DURATION_S
    configs = []
    for fname in CONFIG_FILES[name]:
        cfg = load_config(root / "configs" / fname)
        if overrides:
            cfg = config_from_dict(_merge(cfg.to_dict(), overrides))
        configs.append(cfg)
    return configs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_log(log, cfg) -> dict:
    """Check one run log; return its verdict record."""
    import skygrab

    verdicts = [r for r in log.records if r["kind"] == "verdict"]
    if len(verdicts) != 1:
        raise CheckFailed(f"expected exactly one verdict, found {len(verdicts)}")
    skygrab.validate_log(log)
    v = verdicts[0]
    steps = v["counters"]["dynamics_steps"]
    if abs(steps / cfg.rates.dynamics - v["t_end"]) > 1e-9:
        raise CheckFailed(f"{steps} dynamics steps disagree with t_end {v['t_end']}")
    if v["verdict"] == "captured" and not (v["t_capture"] is not None and v["t_capture"] <= v["t_end"]):
        raise CheckFailed("captured run without a capture time before its end")
    return v


def _fill(op: Op, verdict: dict, records: int) -> Op:
    op.sim_s = verdict["t_end"]
    op.verdict = verdict["verdict"]
    op.failure = verdict["failure"]
    op.t_capture = verdict["t_capture"]
    op.counters = dict(verdict["counters"])
    op.records = records
    return op


class LogObserver:
    """Keeps the logs that ``skygrab.engine.run_scenario`` returns.

    ``monte_carlo`` returns only a summary; the benchmark needs each run's
    log to check it and to count simulated seconds. The observer adds one
    call per scenario run and no per-step work.
    """

    def __init__(self):
        self.logs: list = []

    def install(self):
        import skygrab.engine as engine

        inner = engine.run_scenario
        logs = self.logs

        def run_scenario(config, detail=True):
            log = inner(config, detail=detail)
            logs.append(log)
            return log

        engine.run_scenario = run_scenario


class Workload:
    """A deterministic sequence of operations over generated configs."""

    name = ""
    # Operations that always run, whatever the time budget; the behaviour
    # fingerprint covers exactly these, so it does not depend on speed.
    fingerprint_ops = 1
    # Operations complete in groups of this size (pairs on mc_paired).
    group = 1

    def __init__(self, configs: list, seed: int, workdir: Path, pause=contextlib.nullcontext):
        self.configs = configs
        self.seed = seed
        self.workdir = workdir
        self.pause = pause

    def label(self, i: int) -> str:
        raise NotImplementedError

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def run_op(self, i: int) -> Op:
        try:
            return self.op(i)
        except Exception as exc:  # one failed operation must not stop the others
            tb = traceback.format_exception_only(type(exc), exc)[-1].strip()
            return Op(index=i, label=self.label(i), error=tb)


class McPaired(Workload):
    """monte_carlo(cfg, 1, seed) on default and single_moving, same seeds."""

    name = "mc_paired"
    fingerprint_ops = 2
    group = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.observer = LogObserver()
        self.observer.install()

    def _pick(self, i):
        return self.configs[i % 2], CONFIG_FILES[self.name][i % 2], self.seed + i // 2

    def label(self, i):
        _cfg, fname, seed = self._pick(i)
        return f"{fname}@{seed}"

    def op(self, i):
        import skygrab

        cfg, fname, seed = self._pick(i)
        self.observer.logs.clear()
        t0 = time.perf_counter()
        summary = skygrab.monte_carlo(cfg, 1, seed, n_jobs=1)
        host = time.perf_counter() - t0
        op = Op(index=i, label=self.label(i), config=fname, host_s=host, sim_host_s=host)
        with self.pause():
            if len(self.observer.logs) != 1:
                raise CheckFailed(f"expected one scenario run, saw {len(self.observer.logs)}")
            log = self.observer.logs.pop()
            v = check_log(log, cfg)
            (run,) = summary["runs"]
            if (run["seed"], run["verdict"], run["t_capture"]) != (seed, v["verdict"], v["t_capture"]):
                raise CheckFailed("monte_carlo summary disagrees with the run log")
            op.digest = _sha256(json.dumps(summary, sort_keys=True).encode())
            return _fill(op, v, len(log.records))


class HiRateVision(Workload):
    """Lean run_scenario on the 200 Hz vision, figure-eight scenario."""

    name = "hi_rate_vision"
    fingerprint_ops = 2

    def label(self, i):
        return f"default.yaml+figure_eight+200Hz@{self.seed + i}"

    def op(self, i):
        import skygrab

        with self.pause():
            cfg = self.configs[0].with_seed(self.seed + i)
        t0 = time.perf_counter()
        log = skygrab.run_scenario(cfg, detail=False)
        host = time.perf_counter() - t0
        op = Op(index=i, label=self.label(i), config=CONFIG_FILES[self.name][0],
                host_s=host, sim_host_s=host)
        with self.pause():
            v = check_log(log, cfg)
            op.digest = _sha256(log.to_bytes())
            return _fill(op, v, len(log.records))


class DetailReplay(Workload):
    """Detailed run, log write, read plus validation, and replay."""

    name = "detail_replay"
    fingerprint_ops = 3

    def _pick(self, i):
        return self.configs[i % 3], CONFIG_FILES[self.name][i % 3], self.seed + i

    def label(self, i):
        _cfg, fname, seed = self._pick(i)
        return f"{fname}@{seed}"

    def op(self, i):
        import skygrab

        cfg, fname, seed = self._pick(i)
        with self.pause():
            cfg = cfg.with_seed(seed)
        path = self.workdir / f"op{i}.jsonl"
        try:
            t0 = time.perf_counter()
            log = skygrab.run_scenario(cfg, detail=True)
            t1 = time.perf_counter()
            log.write(path)
            t2 = time.perf_counter()
            back = skygrab.SimLog.read(path)
            skygrab.validate_log(back)
            t3 = time.perf_counter()
            divergence = skygrab.replay_divergence(back)
            t4 = time.perf_counter()
            with self.pause():
                data = path.read_bytes()
        finally:
            if path.exists():
                os.remove(path)
        op = Op(
            index=i, label=self.label(i), config=fname, host_s=t4 - t0, sim_host_s=t1 - t0,
            parts={"log_write_s": t2 - t1, "log_read_s": t3 - t2, "replay_s": t4 - t3},
        )
        with self.pause():
            v = check_log(back, cfg)
            if len(back.records) != len(log.records) or back.verdict_record != log.verdict_record:
                raise CheckFailed("log read back differs from the log written")
            if not divergence <= REPLAY_TOLERANCE_M:
                raise CheckFailed(f"replay divergence {divergence!r} m exceeds {REPLAY_TOLERANCE_M} m")
            op.digest = _sha256(data)
            return _fill(op, v, len(log.records))


WORKLOADS = {cls.name: cls for cls in (McPaired, HiRateVision, DetailReplay)}


def run_ops(workload: Workload, seconds: float | None = None, count: int | None = None) -> list:
    """Run operations for ``seconds`` (at least the fingerprint ones, in
    whole groups), or exactly ``count`` of them."""
    ops = []
    deadline = time.perf_counter() + (seconds or 0.0)
    i = 0
    while True:
        ops.append(workload.run_op(i))
        i += 1
        if count is not None:
            if i >= count:
                return ops
        elif i >= workload.fingerprint_ops and i % workload.group == 0 and time.perf_counter() >= deadline:
            return ops
