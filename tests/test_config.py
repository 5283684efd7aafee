from pathlib import Path

import pytest

from skygrab.config import ConfigError, ScenarioConfig, load_config, parse_config, validate_config

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

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(
                "drones:\n  - {id: a, role: grabber}\n  - {id: a, role: tracker}\n"
            )

    def test_invalid_yaml_reported(self):
        with pytest.raises(ConfigError) as e:
            parse_config("seed: [unclosed\n")
        assert "YAML" in str(e.value)

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


class TestConfigsShareNothing:
    def test_with_seed_copy_is_independent(self):
        a = load_config(CONFIGS / "default.yaml")
        before = a.to_dict()
        b = a.with_seed(5)
        b.world.wind.sigma = 0.0
        b.world.wind.mean[0] = 1.0
        b.target.center[2] = 0.0
        b.drones[0].start[0] = 99.0
        b.drones[1].camera.mount[0] = 0.0
        b.drones.pop()
        assert a.to_dict() == before
        assert a.world.wind.sigma == 0.02 and len(a.drones) == 2
        assert b.seed == 5 and a.seed == 1

    def test_validate_config_leaves_input_unchanged(self):
        cfg = ScenarioConfig()
        cfg.world.wind.mean = (1, 0, 0)
        cfg.target.center = (0, 0, 5)
        cfg.drones[0].start = (1, 2, 0)
        cfg.drones[0].camera.mount = (0, 0, 0)
        cfg.capture.gripper_offset = (0, 0, 1)
        cfg.mission.explore_area = (-5, 5, -5, 5)
        out = validate_config(cfg)
        assert cfg.world.wind.mean == (1, 0, 0)
        assert cfg.target.center == (0, 0, 5)
        assert cfg.drones[0].start == (1, 2, 0)
        assert cfg.drones[0].camera.mount == (0, 0, 0)
        assert cfg.capture.gripper_offset == (0, 0, 1)
        assert cfg.mission.explore_area == (-5, 5, -5, 5)
        assert out.target.center == [0.0, 0.0, 5.0]
        assert all(type(v) is float for v in out.world.wind.mean + out.drones[0].start)
        assert out.world is not cfg.world and out.drones[0] is not cfg.drones[0]
