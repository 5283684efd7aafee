import copy
import hashlib
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from skygrab import coordination
from skygrab.camera import CameraIntrinsics, DetectionClass, DetectionNoise
from skygrab.config import ScenarioConfig, config_from_dict, load_config, parse_config
from skygrab.coordination import grab_detect
from skygrab.engine import (
    _DroneRuntime,
    _filter_params,
    _Plant,
    monte_carlo,
    outcome,
    replay_divergence,
    run_batch,
    run_scenario,
    substream,
)
from skygrab.guidance import GuidanceGains
from skygrab.logs import SimLog, validate_log
from skygrab.perception import FilterParams
from skygrab.world import BallParams, UavState, VelocityCommand

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SHIPPED = sorted(p.stem for p in CONFIGS.glob("*.yaml"))

# Configs that pass validation yet overflow the plant: (overrides, t_end,
# events as (name, t), {detail: log digest}). The overflow lands in the
# first step (gravity), the second (wind_overflow, after an over-swing in
# the first), as a NaN ball state (wind_nan), as a target position that
# overflows to inf between two ticks (target_inf) and as an infinite
# figure-eight phase.
PLANT_OVERFLOWS = {
    "gravity": (
        {"world": {"gravity": 1.0e300}},
        0.0,
        [("nonfinite_state", 0.0)],
        {False: "460dc9259d1ec65104e38bdf92c7d8a74330d1ade745d150070a1856d5f483b0",
         True: "1a142d8f8d5873e6a8077522bfd735211da4ba83219a5eadbe4c748a6871a3c7"},
    ),
    "wind_overflow": (
        {"world": {"wind": {"mean": [1.0e9, 0.0, 0.0], "tau": 0.5}}},
        0.0025,
        [("invalid_swing", 0.0), ("nonfinite_state", 0.0025)],
        {False: "88c6051778699016c6b3a3a3f6d300964f1dc14a52b1189f1105c7e32ac769da",
         True: "cb744c6933e41d388c2115a255f1c2a3917f7c1b48e5d63957503ca6e0d715cf"},
    ),
    "wind_nan": (
        {"world": {"wind": {"mean": [1.0e300, 0.0, 0.0]}}},
        0.0025,
        [("nonfinite_state", 0.0)],
        {False: "c71b92b0058dd080b445490bdc657b50d46d468c993942650af93074836840e0",
         True: "45a03c98fa588d5dd36d732833fae2df49eeabc5f92bb0c39cb4a745a0e484c7"},
    ),
    "target_inf": (
        {"target": {"speed": 1.7e308}},
        1.0575,
        [("nonfinite_state", 1.055)],
        {False: "1cbd062e62c11cf6e13c65c09ec966b15951a60d9519bd1dd8d1d60af3dfbbe8",
         True: "6debe766088aaea889cd248a207d3c0c2206632ac0e1ae087d2d9860e07f4c16"},
    ),
    "figure_eight_phase": (
        {"target": {"pattern": "figure_eight", "speed": 1.0e300, "extent": 1.0e-300}},
        0.0025,
        [("nonfinite_state", 0.0)],
        {False: "42f7adb3d6405ef105ea92924a7faecb5cc8b91cbd6d8951254060c3e07577b9",
         True: "56c72a72e881472e40fa89beca89f2f786d63ea74a688c439030ccac4a8e8e74"},
    ),
}


def _digest(log) -> str:
    return hashlib.sha256(log.to_bytes()).hexdigest()


@pytest.fixture(scope="module")
def nominal_static_log():
    return run_scenario(load_config(CONFIGS / "nominal_static.yaml"))


@pytest.fixture(scope="module")
def nominal_collab_log():
    return run_scenario(load_config(CONFIGS / "nominal_collab_static.yaml"))


@pytest.fixture(scope="module")
def disturbed_log():
    return run_scenario(load_config(CONFIGS / "default.yaml"))


class TestScheduling:
    def test_one_second_run_counts_400_dynamics_steps(self):
        cfg = parse_config("duration: 1.0\n")
        log = run_scenario(cfg, detail=False)
        counters = log.verdict_record["counters"]
        assert counters["dynamics_steps"] == 400

    def test_multirate_tick_counts(self):
        cfg = parse_config("duration: 1.0\n")
        log = run_scenario(cfg, detail=False)
        counters = log.verdict_record["counters"]
        # vision fires every 13 steps (399//13 + 1), control every 20
        assert counters["vision_ticks"] == 31
        assert counters["control_ticks"] == 20

    def test_multirate_metadata(self):
        cfg = parse_config("duration: 1.0\n")
        log = run_scenario(cfg, detail=False)
        m = log.header["multirate"]
        assert m["vision_every"] == 13
        assert m["control_every"] == 20
        assert m["vision_hz"] == pytest.approx(400 / 13)
        assert m["control_hz"] == pytest.approx(20.0)


class TestDeterminism:
    def test_same_config_seed_byte_identical(self):
        cfg = parse_config("duration: 12.0\n")
        b1 = run_scenario(cfg).to_bytes()
        b2 = run_scenario(cfg).to_bytes()
        assert b1 == b2

    def test_different_seed_differs(self):
        cfg = parse_config("duration: 12.0\n")
        b1 = run_scenario(cfg).to_bytes()
        b2 = run_scenario(cfg.with_seed(2)).to_bytes()
        assert b1 != b2

    def test_named_streams_are_stable(self):
        a = substream(7, 0).random(4)
        b = substream(7, 0).random(4)
        c = substream(7, 1).random(4)
        assert np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_log_roundtrip_identical(self, tmp_path, nominal_static_log):
        p = tmp_path / "run.jsonl"
        nominal_static_log.write(p)
        back = SimLog.read(p)
        assert back.to_bytes() == nominal_static_log.to_bytes()


class TestNominalRuns:
    def test_static_capture(self, nominal_static_log):
        rec = nominal_static_log.verdict_record
        assert rec["verdict"] == "captured"
        assert rec["t_capture"] is not None

    def test_exactly_one_capture_event_and_attached_flip(self, nominal_static_log):
        assert len(nominal_static_log.events("capture")) == 1
        # the logged ball flips attached exactly once
        flips = 0
        prev = True
        for r in nominal_static_log.iter_kind("state"):
            if prev and not r["ball"]["attached"]:
                flips += 1
            prev = r["ball"]["attached"]
        assert flips == 1

    def test_depth_profile_tail_monotone(self, nominal_static_log):
        tc = nominal_static_log.verdict_record["t_capture"]
        depths = [
            (r["t"], r["ball_depth"])
            for r in nominal_static_log.iter_kind("vision")
            if r["drone"] == "grabber" and tc - 2.0 <= r["t"] <= tc
        ]
        assert len(depths) > 30
        for (t0, d0), (t1, d1) in zip(depths, depths[1:]):
            assert d1 <= d0 + 1e-9

    def test_collaborative_liveness_and_ordering(self, nominal_collab_log):
        rec = nominal_collab_log.verdict_record
        assert rec["verdict"] == "captured"
        grabber = nominal_collab_log.phase_transitions("grabber")
        tracker = nominal_collab_log.phase_transitions("tracker")
        assert grabber[-1][1] == "done"
        assert tracker[-1][1] == "done"
        t_done_tracker = max(
            r["t"] for r in nominal_collab_log.iter_kind("phase")
            if r["drone"] == "tracker" and r["to"] == "done"
        )
        assert t_done_tracker > rec["t_capture"]

    def test_grabber_phase_sequence_is_canonical(self, nominal_collab_log):
        seq = [t for _, t in nominal_collab_log.phase_transitions("grabber")]
        assert seq == [
            "takeoff", "approach_handoff", "servo_ball", "grab", "retreat_land", "done",
        ]

    def test_pixel_error_settles_after_lock(self, nominal_static_log):
        # closed-loop desk check: after 10 s of ball lock the filtered
        # pixel error stays inside 10 px until capture
        tc = nominal_static_log.verdict_record["t_capture"]
        lock = min(
            r["t"] for r in nominal_static_log.iter_kind("event")
            if r["event"] == "track_init" and r["data"]["cls"] == "ball"
        )
        errs = [
            abs(r["tracks"]["ball"]["x"] - 320.0)
            for r in nominal_static_log.iter_kind("vision")
            if r["drone"] == "grabber"
            and lock + 10.0 <= r["t"] <= tc
            and r["tracks"]["ball"]["status"] == "tracking"
        ]
        if errs:  # fast captures may finish within the settling window
            assert max(errs) < 10.0
        assert tc - lock < 20.0

    def test_structural_log_validity(self, nominal_static_log, nominal_collab_log, disturbed_log):
        for log in (nominal_static_log, nominal_collab_log, disturbed_log):
            validate_log(log)

    def test_sighting_payload_matches_ground_truth(self, nominal_collab_log):
        sigma_range = nominal_collab_log.header["config"]["perception"]["sigma_range"]
        states = {r["t"]: r for r in nominal_collab_log.iter_kind("state")}
        checked = 0
        for m in nominal_collab_log.iter_kind("message"):
            if m["status"] != "delivered" or m["msg_kind"] != "ball_sighting":
                continue
            t_sent = m["t_sent"]
            near = min(states, key=lambda t: abs(t - t_sent))
            truth = np.array(states[near]["ball"]["p"])
            err = np.linalg.norm(np.array(m["position"]) - truth)
            assert err <= 3.0 * sigma_range + 0.05
            checked += 1
        assert checked > 0


class TestValidateLog:
    """Each test breaks one rule in a copy of the valid detailed
    nominal_collab_static@1 log and names the message."""

    @staticmethod
    def _copy(log):
        return SimLog(header=log.header, records=copy.deepcopy(log.records))

    @staticmethod
    def _rejected(log, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            validate_log(log)

    @staticmethod
    def _grabber_phases(log):
        return [r for r in log.iter_kind("phase") if r["drone"] == "grabber"]

    @staticmethod
    def _messages(log, msg_kind, status):
        return [r for r in log.iter_kind("message") if (r["msg_kind"], r["status"]) == (msg_kind, status)]

    def test_second_verdict(self, nominal_collab_log):
        log = self._copy(nominal_collab_log)
        log.append(dict(log.verdict_record))
        self._rejected(log, "expected exactly one verdict record, found 2")

    def test_illegal_phase_edge(self, nominal_collab_log):
        log = self._copy(nominal_collab_log)
        takeoff = self._grabber_phases(log)[1]
        assert (takeoff["from"], takeoff["to"]) == ("takeoff", "approach_handoff")
        takeoff["to"] = "grab"
        self._rejected(log, "illegal transition takeoff -> grab for role grabber")

    def test_transition_out_of_done(self, nominal_collab_log):
        log = self._copy(nominal_collab_log)
        last = self._grabber_phases(log)[-1]
        assert last["to"] == "done"
        log.records.insert(
            log.records.index(last) + 1, {**last, "from": "done", "to": "retreat_land"}
        )
        self._rejected(log, "illegal transition done -> retreat_land for role grabber")

    def test_timestamp_regresses_within_a_stream(self, nominal_collab_log):
        log = self._copy(nominal_collab_log)
        states = list(log.iter_kind("state"))
        states[1]["t"] = states[0]["t"] - 0.05
        self._rejected(log, "timestamps regress in stream ('state', None)")

    def test_delivered_message_never_sent(self, nominal_collab_log):
        log = self._copy(nominal_collab_log)
        first, second = self._messages(log, "ball_sighting", "delivered")[:2]
        first["t_sent"] = (first["t_sent"] + second["t_sent"]) / 2  # still in order
        self._rejected(log, "delivered message never sent for ('tracker', 'ball_sighting')")

    def test_out_of_order_delivery(self, nominal_collab_log):
        log = self._copy(nominal_collab_log)
        first, second = self._messages(log, "ball_sighting", "delivered")[:2]
        first["t_sent"], second["t_sent"] = second["t_sent"], first["t_sent"]
        self._rejected(log, "out-of-order delivery for ('tracker', 'ball_sighting')")

    def test_second_grab_confirmed(self, nominal_collab_log):
        log = self._copy(nominal_collab_log)
        [sent] = self._messages(log, "grab_confirmed", "sent")
        log.records.insert(log.records.index(sent) + 1, dict(sent))
        self._rejected(log, "grab_confirmed sent more than once")


class TestDisturbedRun:
    def test_wind_and_noise_run_is_structurally_valid(self, disturbed_log):
        validate_log(disturbed_log)
        assert disturbed_log.verdict_record["verdict"] in ("captured", "timeout")

    def test_replay_matches_logged_truth(self, nominal_static_log, disturbed_log):
        assert replay_divergence(nominal_static_log) < 1e-9
        assert replay_divergence(disturbed_log) < 1e-9

    def test_nan_in_logged_truth_reads_as_infinite_divergence(self, nominal_static_log):
        log = SimLog(header=nominal_static_log.header, records=copy.deepcopy(nominal_static_log.records))
        next(log.iter_kind("state"))["drones"]["grabber"]["p"][0] = math.nan
        assert replay_divergence(log) == math.inf

    def test_replay_through_an_overflowing_step_reads_as_infinite_divergence(self):
        # The run ends at the step that overflows, so its own log never asks
        # replay to take that step; a state record past it does.
        log = run_scenario(config_from_dict({"duration": 3.0, "world": {"gravity": 1.0e300}}))
        records = copy.deepcopy(log.records)
        late = copy.deepcopy(next(r for r in records if r["kind"] == "state"))
        late["t"] = 0.05
        records.insert(records.index(log.verdict_record), late)
        assert replay_divergence(SimLog(header=log.header, records=records)) == math.inf

    def test_replay_compares_the_state_before_a_detach_on_a_control_tick(self):
        # default@1020 captures on a control tick, where the step's state
        # record comes before its capture event: replay must compare the
        # hanging ball first and release it after.
        log = run_scenario(load_config(CONFIGS / "default.yaml").with_seed(1020))
        t = log.verdict_record["t_capture"]
        k = round(t / log.header["multirate"]["dt"])
        assert (t, k, k % log.header["multirate"]["control_every"]) == (25.0, 10_000, 0)
        at_capture = [(r["kind"], r.get("event")) for r in log.records if r.get("t") == t]
        assert at_capture.index(("state", None)) < at_capture.index(("event", "capture"))
        assert replay_divergence(log) <= 1e-9

    def test_replay_of_a_log_cut_after_a_mid_run_state_record(self, disturbed_log):
        records = disturbed_log.records
        states = [i for i, r in enumerate(records) if r["kind"] == "state"]
        cut = SimLog(header=disturbed_log.header, records=records[: states[len(states) // 2] + 1])
        assert replay_divergence(cut) <= 1e-9

    def test_lean_log_has_nothing_to_replay(self):
        log = run_scenario(load_config(CONFIGS / "nominal_static.yaml"), detail=False)
        with pytest.raises(ValueError, match="no state records"):
            replay_divergence(log)


def _state(plant) -> str:
    """The plant's state; ``repr`` spells every float exactly, signed
    zeros included."""
    return repr((plant.k, plant.uavs, plant.ball, plant.support_pos,
                 plant.support_vel, plant.wind))


def _drive(cfg, before, after, still=None):
    """Advance a plant by the blocks in ``before``, release the ball, then
    advance it by the blocks in ``after``; ``still``, when given, replaces
    the plant's own flag. Returns the results and the plant's state."""
    commands = [VelocityCommand(0.8, -0.5, 0.3, 1.2), VelocityCommand(-4.0, 2.5, -2.0, -9.0)]
    plant = _Plant(cfg)
    if still is not None:
        plant.still = still
    plant.cmds = [commands[i % 2] for i in range(len(plant.cmds))]
    results = [plant.advance(n) for n in before]
    plant.release()
    results += [plant.advance(n) for n in after]
    return results, _state(plant)


def _in_basket(plant) -> bool:
    return grab_detect(
        plant.ball_position(), plant.ball_velocity(), plant.uavs[plant.grabber], plant.capture
    )


def _count_grab_detect(monkeypatch) -> list:
    """Wrap ``coordination.grab_detect``; the list's one item counts its calls."""
    calls = [0]
    real = coordination.grab_detect

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(coordination, "grab_detect", counted)
    return calls


class TestPlant:
    def test_wind_not_stepped_after_detach(self):
        # the wind acts only on the hanging ball; nothing reads it after detach
        plant = _Plant(load_config(CONFIGS / "default.yaml"))
        plant.advance(1)
        plant.release()
        force = plant.wind.force
        plant.advance(1)
        plant.advance(1)
        assert plant.wind.force == force

    @pytest.mark.parametrize("name", SHIPPED)
    def test_block_equals_single_steps_across_release(self, name):
        cfg = load_config(CONFIGS / f"{name}.yaml")
        block_results, block_state = _drive(cfg, [37], [23])
        single_results, single_state = _drive(cfg, [1] * 37, [1] * 23)
        assert block_results == [None, None]
        assert single_results == [None] * 60
        assert block_state == single_state

    @pytest.mark.parametrize("name", SHIPPED)
    def test_still_ball_equals_integrated_ball(self, name):
        cfg = load_config(CONFIGS / f"{name}.yaml")
        assert _drive(cfg, [37], [23]) == _drive(cfg, [37], [23], still=False)

    @pytest.mark.parametrize("name, target, still", [
        ("nominal_static", {}, True),
        ("nominal_moving", {}, True),
        ("nominal_collab_static", {}, True),
        ("default", {}, False),  # wind
        ("single_moving", {}, False),  # wind
        ("nominal_static", {"pattern": "figure_eight"}, False),
    ])
    def test_still_needs_no_wind_and_a_constant_target_velocity(self, name, target, still):
        d = load_config(CONFIGS / f"{name}.yaml").to_dict()
        d["target"].update(target)
        assert _Plant(config_from_dict(d)).still is still

    @pytest.mark.parametrize("detail, digest", [
        (False, "838b4909992a7019de312a75f9797ce24a748e89c6bfed5187bc2eee2566eb7d"),
        (True, "95045d556a2e514c88152343628402f4df8dac41b7a99296a56537ec2b56098a"),
    ], ids=["lean", "detail"])
    def test_rest_that_is_not_a_fixed_point_is_integrated(self, detail, digest):
        # g / L overflows to inf, so one step from rest is not rest
        d = load_config(CONFIGS / "nominal_static.yaml").to_dict()
        d["world"].update(gravity=1.0e308, rod_length=0.5)
        cfg = config_from_dict(d)
        assert _Plant(cfg).still is False
        log = run_scenario(cfg, detail=detail)
        rec = log.verdict_record
        assert (rec["verdict"], rec["failure"], rec["t_end"]) == ("invalid", "nonfinite_state", 0.0025)
        assert [(r["event"], r["t"]) for r in log.iter_kind("event")] == [("nonfinite_state", 0.0)]
        assert _digest(log) == digest

    @pytest.mark.parametrize("name", ["nominal_static", "default"])
    def test_contact_stops_the_block_at_the_first_step_in_the_basket(self, name):
        cfg = load_config(CONFIGS / f"{name}.yaml")

        def plant_behind_ball():
            # the grabber flies at the hanging ball along +x, gripper first
            plant = _Plant(cfg)
            plant.uavs[plant.grabber] = UavState.at(-6.2, 0.0, 3.5)
            plant.cmds = [VelocityCommand(1.0, 0.0, 0.0, 0.0) for _ in plant.cmds]
            return plant

        single = plant_behind_ball()
        while not _in_basket(single):
            assert single.advance(1) is None
        assert single.k > 100  # the grabber starts well out of reach
        # Contact is tested before a step, so the state a block ends at is
        # left to the next block.
        for n, stop in ((single.k + 200, "contact"), (single.k, None)):
            block = plant_behind_ball()
            assert block.advance(n, contact=True) == stop
            assert block.ball.attached  # contact does not release the ball
            assert _state(block) == _state(single)
        # A plant already in contact stops before its first step.
        before = _state(single)
        assert single.advance(5, contact=True) == "contact"
        assert single.ball.attached
        assert _state(single) == before

    def test_each_armed_state_is_tested_once(self, monkeypatch):
        # Contact is armed from the control tick that enters GRAB up to the
        # state of the capture, both included.
        calls = _count_grab_detect(monkeypatch)
        log = run_scenario(load_config(CONFIGS / "nominal_static.yaml"), detail=False)
        t_grab = next(r["t"] for r in log.iter_kind("phase") if r["to"] == "grab")
        _, t_capture, _ = outcome(log)
        assert (t_grab, t_capture) == (9.1, 13.32)
        assert calls[0] == round((t_capture - t_grab) * 400) + 1 == 1689


def _built_from_default_config() -> dict:
    """Each parameter type the engine builds from a config section, as it
    builds it from the default config."""
    cfg = ScenarioConfig()
    drone = _DroneRuntime(cfg.drones[0], cfg, True, substream(cfg.seed, 0))
    return {
        CameraIntrinsics: drone.intr,
        DetectionNoise: drone.noise,
        GuidanceGains: drone.agent.gains,
        BallParams: _Plant(cfg).ball_params,
        FilterParams: _filter_params(cfg, DetectionClass.DRONE),
    }


@pytest.mark.parametrize(
    "cls", [CameraIntrinsics, DetectionNoise, GuidanceGains, BallParams, FilterParams],
    ids=lambda cls: cls.__name__,
)
def test_parameter_type_defaults_equal_config_defaults(cls):
    # Tests build these types with their own defaults and call them the
    # shipped values; the engine fills them from the config sections.
    assert _built_from_default_config()[cls] == cls()


class TestEvents:
    def test_violent_wind_flags_invalid_swing_and_continues(self):
        cfg = parse_config(
            "duration: 8.0\nworld:\n  wind: {enabled: true, sigma: 3.0, tau: 1.0}\n"
        )
        log = run_scenario(cfg, detail=False)
        assert len(log.events("invalid_swing")) == 1  # flagged once, sim continues
        assert log.verdict_record["verdict"] in ("captured", "timeout")
        assert [r["t"] for r in log.events("invalid_swing")] == [1.7875]
        assert log.verdict_record["t_end"] == 8.0
        detailed = run_scenario(cfg, detail=True)
        assert _digest(detailed) == "f4c8407548c813f138e2f26615d0e90d7b0d9187201582ebb69ab22244706d30"
        # replay's plant stops once at the over-swing and goes on
        assert replay_divergence(detailed) <= 1e-9


class TestInvalidRuns:
    @pytest.mark.parametrize("detail", [False, True])
    def test_nonfinite_command_ends_invalid_without_raising(self, detail):
        # passes validation, but the range gain overflows the servo command
        d = load_config(CONFIGS / "nominal_static.yaml").to_dict()
        d["drones"][0]["gains"]["kp_range"] = 1.0e308
        log = run_scenario(config_from_dict(d), detail=detail)
        validate_log(log)
        assert len(list(log.iter_kind("verdict"))) == 1
        rec = log.verdict_record
        assert (rec["verdict"], rec["failure"]) == ("invalid", "nonfinite_state")
        assert len(log.events("nonfinite_state")) == 1


    @pytest.mark.parametrize("detail", [False, True])
    def test_overflowing_box_size_is_no_detection(self, detail):
        # passes validation, but focal_px * size overflows to an infinite
        # box, whose range would start the drone track at NaN
        d = load_config(CONFIGS / "nominal_static.yaml").to_dict()
        d["drones"][0]["camera"]["focal_px"] = 1.0e308
        d["drones"][0]["start"] = [-14.0, 0.0, 5.0]
        d["target"]["span"] = 2.0
        d["duration"] = 2.0
        log = run_scenario(config_from_dict(d), detail=detail)
        validate_log(log)
        assert len(list(log.iter_kind("verdict"))) == 1
        rec = log.verdict_record
        assert (rec["verdict"], rec["failure"]) == ("timeout", "never_engaged")

    @pytest.mark.parametrize("detail", [False, True])
    @pytest.mark.parametrize("case", sorted(PLANT_OVERFLOWS))
    def test_plant_overflow_ends_invalid_without_raising(self, case, detail):
        overrides, t_end, events, digests = PLANT_OVERFLOWS[case]
        log = run_scenario(config_from_dict({"duration": 3.0, **overrides}), detail=detail)
        validate_log(log)
        rec = log.verdict_record
        assert (rec["verdict"], rec["failure"]) == ("invalid", "nonfinite_state")
        assert len(log.events("nonfinite_state")) == 1
        # t_end counts a step that was taken and left a state non-finite,
        # not a step that raised.
        assert rec["t_end"] == t_end
        assert [(r["event"], r["t"]) for r in log.iter_kind("event")] == events
        assert _digest(log) == digests[detail]


class TestMissionBudget:
    def test_budget_fails_mission_and_times_out(self):
        cfg = parse_config(
            "duration: 30.0\nmission:\n  mission_budget: 5.0\n"
        )
        log = run_scenario(cfg, detail=False)
        rec = log.verdict_record
        assert rec["verdict"] == "timeout"
        for d in ("grabber", "tracker"):
            transitions = log.phase_transitions(d)
            assert transitions[-1][1] == "failed"
        assert rec["t_end"] < 7.0  # stops once every drone is terminal


class TestTimeoutLabels:
    # case: (config, seed, duration or None for the shipped one, failure,
    # t_end): at least one run for each label a timeout can carry.
    CASES = {
        "never_engaged": ("default", 1000, 5.0, "never_engaged", 5.0),
        # SERVO_BALL is entered at 16.2 s; the capture comes at 23.93 s.
        # The wind is on, which labels nothing: a label rests on evidence.
        "other_wind": ("default", 1000, 20.1, "other", 20.1),
        "other": ("nominal_static", 1, 10.4, "other", 10.4),
        "terminal_track_loss": ("single_moving", 1011, None, "terminal_track_loss", 120.0),
    }

    @pytest.mark.parametrize("detail", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_timeout_label(self, case, detail):
        name, seed, duration, failure, t_end = self.CASES[case]
        data = load_config(CONFIGS / f"{name}.yaml").with_seed(seed).to_dict()
        if duration is not None:
            data["duration"] = duration
        rec = run_scenario(config_from_dict(data), detail=detail).verdict_record
        assert (rec["verdict"], rec["failure"], rec["t_end"]) == ("timeout", failure, t_end)

    def test_engaged_log_without_grabber_raises_value_error(self, tmp_path):
        p = tmp_path / "no_grabber.jsonl"
        SimLog(
            header={"config": {"drones": [{"id": "t", "role": "tracker"}]},
                    "schema": "skygrab-log", "version": 1},
            records=[{"kind": "phase", "t": 1.0, "drone": "t",
                      "from": "approach_handoff", "to": "servo_ball"}],
        ).write(p)
        with pytest.raises(ValueError, match="^header config has no grabber$"):
            outcome(SimLog.read(p))


class TestMonteCarlo:
    def test_single_run_reduces_to_run_scenario(self):
        cfg = load_config(CONFIGS / "nominal_static.yaml")
        summary = monte_carlo(cfg, 1, cfg.seed)
        direct = run_scenario(cfg, detail=False).verdict_record
        assert summary["runs"][0]["verdict"] == direct["verdict"]
        assert summary["runs"][0]["t_capture"] == direct["t_capture"]

    def test_noise_free_nominals_always_succeed(self):
        for name in ("nominal_static.yaml", "nominal_moving.yaml"):
            cfg = load_config(CONFIGS / name)
            summary = monte_carlo(cfg, 3, 1)
            assert summary["success_rate"] == 1.0

    def test_batch_of_two_configs_keeps_job_order_at_any_n_jobs(self):
        static = load_config(CONFIGS / "nominal_static.yaml")
        moving = load_config(CONFIGS / "nominal_moving.yaml")
        jobs = [cfg.with_seed(s) for s in (10, 11) for cfg in (static, moving)]
        rows = run_batch(jobs, n_jobs=1)
        assert run_batch(jobs, n_jobs=2) == rows
        assert [r["seed"] for r in rows] == [10, 10, 11, 11]
        assert rows[0::2] == monte_carlo(static, 2, 10)["runs"]
        assert rows[1::2] == monte_carlo(moving, 2, 10)["runs"]

    def test_one_raising_job_is_an_error_row(self, monkeypatch):
        from skygrab import engine

        inner = engine.run_scenario

        def raise_for_the_moving_target(config, detail=True):
            if config.target.pattern != "static_hover":
                raise OverflowError("math range error")
            return inner(config, detail=detail)

        monkeypatch.setattr(engine, "run_scenario", raise_for_the_moving_target)
        static = load_config(CONFIGS / "nominal_static.yaml")
        moving = load_config(CONFIGS / "nominal_moving.yaml")
        rows = run_batch([static.with_seed(3), moving.with_seed(4), static.with_seed(5)])
        assert [(r["seed"], r["verdict"], r["failure"]) for r in rows] == [
            (3, "captured", None), (4, "error", "OverflowError"), (5, "captured", None),
        ]

    def test_a_batch_rebuilds_no_config_and_monte_carlo_one(self, monkeypatch):
        from skygrab import config, engine

        calls = [0]
        inner = config.config_from_dict

        def counted(data):
            calls[0] += 1
            return inner(data)

        cfg = replace(load_config(CONFIGS / "nominal_static.yaml"), duration=1.0)
        monkeypatch.setattr(config, "config_from_dict", counted)
        monkeypatch.setattr(engine, "config_from_dict", counted)
        run_batch([cfg.with_seed(5), cfg.with_seed(6)])
        assert calls[0] == 0
        monte_carlo(cfg, 3, 5)
        assert calls[0] == 1  # one validation per call, whatever n_runs

    def test_config_changed_in_memory_validated_before_any_run(self, monkeypatch):
        from skygrab import engine
        from skygrab.config import ConfigError

        def no_run(config):
            raise AssertionError("a run started")

        monkeypatch.setattr(engine, "_mc_single", no_run)
        cfg = load_config(CONFIGS / "nominal_static.yaml")
        cfg = replace(cfg, mission=replace(cfg.mission, grabber_standoff=7.0))  # init_range_ball is 6.0
        with pytest.raises(ConfigError, match="^mission.grabber_standoff: "):
            monte_carlo(cfg, 2, 1)

    def test_a_single_process_batch_never_imports_the_pool(self):
        # The path a one-run, one-job monte_carlo call takes after the
        # CLI import: the process pool's import stays out of it.
        code = (
            "import sys, skygrab.cli\n"
            "from skygrab import load_config, monte_carlo\n"
            f"monte_carlo(load_config({str(CONFIGS / 'nominal_static.yaml')!r}), 1, 7, n_jobs=1)\n"
            "print('concurrent.futures' in sys.modules)\n"
        )
        src = str(CONFIGS.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                             check=True, timeout=300)
        assert out.stdout == "False\n"

    def test_summary_shape(self):
        cfg = load_config(CONFIGS / "nominal_static.yaml")
        s = monte_carlo(cfg, 2, 5)
        assert s["n_runs"] == 2
        assert [r["seed"] for r in s["runs"]] == [5, 6]
        assert s["captured"] == 2
        assert s["capture_time"]["min"] <= s["capture_time"]["max"]

    def test_pool_never_larger_than_the_batch(self, monkeypatch):
        # A recorder in place of the process pool: it starts no process
        # and maps in this one, so a huge --jobs is safe to pass.
        import concurrent.futures

        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = replace(load_config(CONFIGS / "nominal_static.yaml"), duration=1.0)
        jobs = [cfg.with_seed(5), cfg.with_seed(6)]
        rows = run_batch(jobs, n_jobs=5000)
        assert pools == [2]
        assert [r["seed"] for r in rows] == [5, 6]
        run_batch(jobs[:1], n_jobs=4)
        assert run_batch([], n_jobs=4) == []
        assert pools == [2]  # one job, or none, needs no pool

    def test_invalid_seed_base_rejected_before_any_run(self, monkeypatch):
        from skygrab import engine
        from skygrab.config import ConfigError

        def no_run(args):
            raise AssertionError("a run started")

        monkeypatch.setattr(engine, "_mc_single", no_run)
        with pytest.raises(ConfigError, match="^seed: "):
            monte_carlo(load_config(CONFIGS / "nominal_static.yaml"), 2, -1)

    def test_n_runs_validated(self):
        with pytest.raises(ValueError):
            monte_carlo(load_config(CONFIGS / "nominal_static.yaml"), 0, 1)

    @pytest.mark.parametrize("n_jobs", [0, -4])
    def test_n_jobs_validated_before_any_run(self, monkeypatch, n_jobs):
        from skygrab import engine

        def no_run(args):
            raise AssertionError("a run started")

        monkeypatch.setattr(engine, "_mc_single", no_run)
        cfg = load_config(CONFIGS / "nominal_static.yaml")
        with pytest.raises(ValueError, match="n_jobs must be >= 1"):
            run_batch([cfg.with_seed(1), cfg.with_seed(2)], n_jobs=n_jobs)
