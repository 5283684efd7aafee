"""Golden behaviour digests and the run invariants that ride on them.

Each case runs a shipped config at a fixed seed. The SHA-256 of the
detailed log bytes pins behaviour: a refactor that keeps every digest
is behaviour-preserving. A change that moves a digest must re-bless it
here and say why in CHANGES.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from skygrab.config import config_from_dict, load_config
from skygrab.engine import outcome, replay_divergence, run_scenario
from skygrab.logs import SimLog

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Cases that are not a shipped file: (shipped file, overrides). The
# figure-eight at a 200 Hz camera and 100 Hz control pins the only
# target pattern no shipped config flies.
VARIANTS = {
    "default_figure_eight": (
        "default",
        {"target": {"pattern": "figure_eight"}, "rates": {"vision": 200, "control": 100}},
    ),
}

GOLDEN = {
    ("default", 1): "dbada5a062d9e5261e19cf5039fefd0a19ccb690d010ce25a755373adbc1adaf",
    ("default", 1000): "381bbcd6e7bc6a37981aff659c05a9e0dc903dd1fa9f50c613ffdcc5bc9a95ee",
    ("default", 1001): "b7c1084ec7a81046ac80aa034a2510d266520136456eb049a0849424b8795444",
    ("nominal_collab_static", 1): "e44c21dd05305adc011581dad77b550ccd6e8dde4d63d83306b7a52f0d177452",
    ("nominal_collab_static", 1000): "b18aed0d0f570c54a70302b307a7dfebf1dde5baa6e97fdeb56d1b238d9d6d50",
    ("nominal_collab_static", 1001): "f0319b92a68c33ad98bd47783bd3d6ad6028baa6c772c4fd8dc4800dbe2d0704",
    ("nominal_moving", 1): "34565a5cced7f7235154d94500bd65498c6c440d37db7605789905110dde8d20",
    ("nominal_moving", 1000): "a9871c6797d2286086ce198fc8a401086be7e3048b8ba0768cdc8e0d30bba285",
    ("nominal_moving", 1001): "281d82abab3846fe4cd036d9c6bae0362d1ee1287fbbc18f5afe02d60e7cdb9a",
    ("nominal_static", 1): "2f5192c1c40e13640601314c3c1becf38f1c18da8974b087d83ce10b8edd4eb1",
    ("nominal_static", 1000): "2a3787a5366e32f3ab26802b25a7161c81ccbeace0457401e54de7f8720be7ed",
    ("nominal_static", 1001): "bbd57cb27ff866b41a914c420ca0a5d0c592db3653c331ef286bab01916395b5",
    ("single_moving", 1): "bdb3be060023afc6476413b86f279bd813a1e03118bb075fbb87cc97f6774cbd",
    ("single_moving", 1000): "947ce3059d3e2bdb36f47235881f06a27ead93ea6da77c19d56780526f246dd7",
    ("single_moving", 1001): "1154b45b9aa8f080209db167d305b5293b6fe8c3a5d7d99d4d4634da75266ce1",
    ("default_figure_eight", 1): "615e5541cbb6d8a7947c07ecbca2e255623567b5ac7a831d5ef1ffb9022c6283",
    ("default_figure_eight", 1000): "694bb110d6cd027ccb180fb4fb3fda470a2b5136ce328e712fa0340dc85e3a45",
}


def _config(name, seed):
    base, overrides = VARIANTS.get(name, (name, None))
    cfg = load_config(CONFIGS / f"{base}.yaml")
    if overrides:
        data = cfg.to_dict()
        for section, values in overrides.items():
            data[section].update(values)
        cfg = config_from_dict(data)
    return cfg.with_seed(seed)


_JSON_LEAVES = (str, int, float, bool, type(None))


def _non_native_leaves(obj):
    """Leaves that are not exactly a JSON-native Python type."""
    if isinstance(obj, dict):
        return [leaf for v in obj.values() for leaf in _non_native_leaves(v)]
    if isinstance(obj, (list, tuple)):
        return [leaf for v in obj for leaf in _non_native_leaves(v)]
    return [] if type(obj) in _JSON_LEAVES else [obj]


def _always_logged(log):
    """Records that a lean run keeps: phases, events, the verdict, and
    messages the channel accepted for sending."""
    return [
        r for r in log.records
        if r["kind"] in ("phase", "event", "verdict")
        or (r["kind"] == "message" and r["status"] == "sent")
    ]


def _logged_outcome(log):
    rec = log.verdict_record
    return rec["verdict"], rec["t_capture"], rec["failure"]


@pytest.mark.parametrize("name,seed", sorted(GOLDEN), ids=lambda v: str(v))
def test_golden_run(name, seed, tmp_path):
    cfg = _config(name, seed)
    detailed = run_scenario(cfg, detail=True)

    digest = hashlib.sha256(detailed.to_bytes()).hexdigest()
    assert digest == GOLDEN[(name, seed)], f"log digest of {name}@{seed} is now {digest}"
    # The log is serialized without a coercion pass, so every record
    # leaf must already be a plain Python value.
    bad = [leaf for r in detailed.records for leaf in _non_native_leaves(r)]
    assert not bad, f"{len(bad)} non-native leaves, e.g. {type(bad[0]).__name__}"

    lean = run_scenario(cfg, detail=False)
    assert _always_logged(lean) == _always_logged(detailed)

    # The verdict is a function of the log, read back from disk or lean.
    detailed.write(tmp_path / "log.jsonl")
    for log in (detailed, SimLog.read(tmp_path / "log.jsonl"), lean):
        assert outcome(log) == _logged_outcome(detailed)

    assert replay_divergence(detailed) <= 1e-9


# Script for a fresh interpreter: the detailed-log digest of one case.
_DIGEST_SCRIPT = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from test_golden import _config
from skygrab.engine import run_scenario
log = run_scenario(_config(sys.argv[2], int(sys.argv[3])), detail=True)
print(hashlib.sha256(log.to_bytes()).hexdigest())
"""


@pytest.mark.parametrize("coretype", ["Sandybridge", "Prescott"])
def test_digest_independent_of_blas_kernel(coretype):
    # numpy's OpenBLAS picks a kernel per CPU, and OPENBLAS_CORETYPE
    # forces another one; the log bytes must not depend on it. A BLAS
    # that ignores the variable passes trivially.
    name, seed = "nominal_collab_static", 1
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _DIGEST_SCRIPT, str(ROOT / "tests"), name, str(seed)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    assert out.stdout.strip() == GOLDEN[(name, seed)]
