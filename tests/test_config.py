import json
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest

from skygrab.config import (
    MAX_LANES,
    ConfigError,
    DroneConfig,
    ScenarioConfig,
    config_from_dict,
    load_config,
    parse_config,
)
from skygrab.guidance import lawnmower_waypoints

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestParseConfig:
    def test_empty_document_is_baseline(self):
        cfg = parse_config("")
        base = ScenarioConfig()
        assert cfg.to_dict() == base.to_dict()
        assert cfg.seed == 1
        assert cfg.rates.dynamics == 400.0
        assert len(cfg.drones) == 2

    def test_seed_override_only_changes_seed(self):
        cfg = parse_config("seed: 42\n")
        base = ScenarioConfig().to_dict()
        got = cfg.to_dict()
        assert got.pop("seed") == 42
        base.pop("seed")
        assert got == base

    def test_nested_override(self):
        cfg = parse_config("world:\n  rod_length: 2.0\n")
        assert cfg.world.rod_length == 2.0
        assert cfg.world.ball_diameter == 0.18  # untouched default

    def test_negative_rod_length_names_field(self):
        with pytest.raises(ConfigError) as e:
            parse_config("world:\n  rod_length: -1.0\n")
        assert "world.rod_length" in str(e.value)

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError) as e:
            parse_config("world:\n  rod_lenght: 1.5\n")
        assert "world.rod_lenght" in str(e.value)

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError) as e:
            parse_config("bogus: 1\n")
        assert "bogus" in str(e.value)

    def test_vision_rate_cannot_exceed_dynamics(self):
        with pytest.raises(ConfigError) as e:
            parse_config("rates:\n  dynamics: 100.0\n  vision: 200.0\n")
        assert "rates.vision" in str(e.value)

    def test_drone_list_replaces_default(self):
        cfg = parse_config(
            "drones:\n  - {id: solo, role: grabber, start: [0.0, 0.0, 0.0]}\n"
        )
        assert len(cfg.drones) == 1
        assert cfg.drones[0].id == "solo"
        assert cfg.drones[0].camera.width == 640  # defaults still fill in

    def test_exactly_one_grabber_required(self):
        with pytest.raises(ConfigError):
            parse_config("drones:\n  - {id: a, role: tracker}\n")
        with pytest.raises(ConfigError):
            parse_config(
                "drones:\n  - {id: a, role: grabber}\n  - {id: b, role: grabber}\n"
            )

    def test_role_typo_is_named_on_the_drone(self):
        with pytest.raises(ConfigError) as e:
            parse_config("drones:\n  - {id: g, role: grabbr}\n")
        assert str(e.value) == "drones[0].role: must be one of grabber, tracker"

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(
                "drones:\n  - {id: a, role: grabber}\n  - {id: a, role: tracker}\n"
            )

    def test_invalid_yaml_reported(self):
        with pytest.raises(ConfigError) as e:
            parse_config("seed: [unclosed\n")
        assert "YAML" in str(e.value)

    def test_yaml_syntax_error_names_the_file(self, tmp_path):
        bad = tmp_path / "unclosed.yaml"
        bad.write_text("a: [1,\n")
        with pytest.raises(ConfigError) as e:
            load_config(bad)
        assert f'in "{bad}", line 2, column 1' in str(e.value)
        assert "<unicode string>" not in str(e.value)

    def test_non_mapping_document_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("- 1\n- 2\n")

    def test_drop_probability_range(self):
        with pytest.raises(ConfigError) as e:
            parse_config("channel:\n  drop_probability: 1.5\n")
        assert "channel.drop_probability" in str(e.value)

    def test_bad_vector_shape(self):
        with pytest.raises(ConfigError) as e:
            parse_config("target:\n  center: [1.0, 2.0]\n")
        assert "target.center" in str(e.value)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigError) as e:
            parse_config("target:\n  pattern: zigzag\n")
        assert "target.pattern" in str(e.value)

    def test_standoff_must_stay_inside_init_range(self):
        with pytest.raises(ConfigError) as e:
            parse_config("mission:\n  grabber_standoff: 7.0\n")
        assert "grabber_standoff" in str(e.value)

    @pytest.mark.parametrize("doc, message", [
        ("duration: fast\n", "duration: expected a number"),
        ("drones: []\n", "drones: expected a non-empty list"),
    ], ids=["duration_not_a_number", "empty_drone_list"])
    def test_value_of_the_wrong_type_is_named(self, doc, message):
        with pytest.raises(ConfigError) as e:
            parse_config(doc)
        assert str(e.value) == message

    @pytest.mark.parametrize("entry", ["0", "false", '""', "[]"])
    def test_falsy_drone_entry_is_not_a_default_drone(self, entry):
        # Only null stands for an all-default entry, as for a section.
        with pytest.raises(ConfigError) as e:
            parse_config(f"drones: [{entry}]\n")
        assert str(e.value) == "drones[0]: expected a mapping"

    def test_null_drone_entry_is_the_default_grabber(self):
        assert parse_config("drones: [null]\n").drones == (DroneConfig(),)

    @pytest.mark.parametrize("data", [[], 0, "", False], ids=repr)
    def test_falsy_non_mapping_is_not_the_baseline(self, data):
        with pytest.raises(ConfigError) as e:
            config_from_dict(data)
        assert str(e.value) == "document: expected a mapping"


class TestConfigsShareNothing:
    def test_with_seed_copy_is_independent(self):
        a = load_config(CONFIGS / "default.yaml")
        before = a.to_dict()
        b = a.with_seed(5)
        with pytest.raises(FrozenInstanceError):
            b.world.wind.sigma = 0.0
        with pytest.raises(TypeError):
            b.world.wind.mean[0] = 1.0
        with pytest.raises(TypeError):
            b.target.center[2] = 0.0
        with pytest.raises(TypeError):
            b.drones[0].start[0] = 99.0
        with pytest.raises(TypeError):
            b.drones[1].camera.mount[0] = 0.0
        with pytest.raises(AttributeError):
            b.drones.pop()
        assert a.to_dict() == before
        assert a.world.wind.sigma == 0.02 and len(a.drones) == 2
        assert b.seed == 5 and a.seed == 1

    def test_loaded_vectors_and_roster_are_tuples(self):
        cfg = load_config(CONFIGS / "default.yaml")
        assert type(cfg.drones) is tuple
        vectors = [cfg.world.wind.mean, cfg.target.center, cfg.mission.explore_area, cfg.capture.gripper_offset]
        vectors += [v for d in cfg.drones for v in (d.start, d.camera.mount)]
        assert [type(v) for v in vectors] == [tuple] * 8

    def test_with_seed_shares_the_unchanged_sections(self):
        a = load_config(CONFIGS / "default.yaml")
        b = a.with_seed(5)
        assert b.world is a.world and b.drones is a.drones


class TestWithSeed:
    @pytest.mark.parametrize("seed", [-1, 2.7, True, "3", None], ids=repr)
    def test_seed_rule_applies(self, seed):
        with pytest.raises(ConfigError) as e:
            ScenarioConfig().with_seed(seed)
        assert str(e.value).startswith("seed: ")

    def test_valid_seed_is_stored(self):
        cfg = ScenarioConfig().with_seed(0)
        assert type(cfg.seed) is int and cfg.seed == 0


class TestRealValuedScalarsAreFloats:
    def test_integer_and_float_spellings_give_one_header(self):
        # One scenario must have one log header, however YAML spells it.
        as_int = parse_config("world:\n  wind:\n    sigma: 0\n")
        as_float = parse_config("world:\n  wind:\n    sigma: 0.0\n")
        assert json.dumps(as_int.to_dict(), sort_keys=True) == json.dumps(
            as_float.to_dict(), sort_keys=True
        )

    @pytest.mark.parametrize("doc,path", [
        ("world: {gravity: %d}", "world.gravity"),
        ("target: {center: [%d, 0.0, 5.0]}", "target.center[0]"),
        ("drones: [{camera: {width: %d}}]", "drones[0].camera.width"),
        ("seed: %d", "seed"),
    ])
    def test_integer_beyond_float_range_is_rejected(self, doc, path):
        # float() of it would raise OverflowError, in validation or in the run
        with pytest.raises(ConfigError) as e:
            parse_config(doc % 10**400)
        assert str(e.value) == f"{path}: must be finite"

    def test_integer_fields_stay_integers(self):
        cfg = parse_config("seed: 7\nrates:\n  vision: 200\n")
        assert type(cfg.seed) is int and type(cfg.schema_version) is int
        assert type(cfg.drones[0].camera.width) is int
        assert type(cfg.rates.vision) is float


class TestCostCaps:
    """Every accepted config must finish: step count, multirate ratios
    and lane count are capped, each checked in float before any int()."""

    @pytest.mark.parametrize(
        "doc,path",
        [
            ("rates: {dynamics: 1.0e+300, control: 1.0e-300}", "duration"),
            ("rates: {dynamics: 1.0e+9}", "duration"),
            ("duration: 25000.01", "duration"),
            ("duration: 1.0e-3", "duration"),
            ("duration: 1.0\nrates: {dynamics: 1.0e+6, vision: 0.999}", "rates.vision"),
            ("duration: 1.0\nrates: {dynamics: 1.0e+6, control: 0.999}", "rates.control"),
            ("mission: {lane_spacing: 1.0e-300}", "mission.lane_spacing"),
            ("mission: {lane_spacing: 1.0e-6}", "mission.lane_spacing"),
            ("mission: {explore_area: [-15.0, 15.0, 0.0, 999.0], lane_spacing: 0.999}", "mission.lane_spacing"),
        ],
    )
    def test_past_a_cap_is_rejected_naming_the_path(self, doc, path):
        with pytest.raises(ConfigError) as e:
            parse_config(doc)
        assert str(e.value).startswith(f"{path}: ")

    def test_at_the_caps_is_accepted(self):
        parse_config("duration: 25000.0\n")
        parse_config("duration: 1.0e-6\nrates: {dynamics: 1.0e+6, vision: 1.0, control: 1.0}\n")
        cfg = parse_config("mission: {explore_area: [-15.0, 15.0, 0.0, 999.0], lane_spacing: 1.0}\n")
        m = cfg.mission
        assert len(lawnmower_waypoints(m.explore_area, m.lane_spacing, 3.5)) == 2 * MAX_LANES
