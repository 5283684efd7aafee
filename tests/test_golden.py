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
    ("default", 1): "2adce80b17152824f0274eccd6d167a260f1a8604405cddc74ad25a0470a93b7",
    ("default", 1000): "73829c9f75ba47a44c43703780d26db9f9c0c2ab71d5315bc98812e9a69fcf4d",
    ("default", 1001): "69cca9a4d7204e744d9c520087e83d8b85cbcdb0647cdfc5fdc2f4925ce5b5eb",
    ("nominal_collab_static", 1): "3b72877360880cc82e5b79fff5285932a1738abc51f1c63932eb9566fc166a27",
    ("nominal_collab_static", 1000): "8b212f212eac406c7c27e4ec940d622d11abb2972784a6eaeceda715096821fd",
    ("nominal_collab_static", 1001): "355d1dc8b7f805d9c043ea37aa3196a32a0aabf9005e604425eefa3a7bf6bc09",
    ("nominal_moving", 1): "6768b220591d96e78bbc49513913b0a345a0b25f375ea71756936ed7e60a7b1b",
    ("nominal_moving", 1000): "f4ee97b81a8205450d51b372d941fbe97ef2f9267e22e08face5c1e304baa2eb",
    ("nominal_moving", 1001): "bf79675ea8122048f9b4d20e1b12529fcf1a91c8fcfdab03a971dd4083ad4b8e",
    ("nominal_static", 1): "35d2b7586c5275c1cfae9e464612223085f54ef01185a017ddf54398c555a81b",
    ("nominal_static", 1000): "277e3c4579827fb9d37ff075838a71ee11ba89085e61cedd84ad8609301e24a9",
    ("nominal_static", 1001): "2bc888e92e55b11c1c05c5c0c4c4eec993b0dc9836a71fbb97a78a5c11948b5f",
    ("single_moving", 1): "6f95e3bef0814780e8a6b596b0e7458036169b04175ef1ebc37077bf3015d206",
    ("single_moving", 1000): "f8b216339b74037c1479ccf2b9a1f096a9e45d3551611d8a37721faa8199e7df",
    ("single_moving", 1001): "a780172bcb83e0ac94a50dd570468d8d64d0b429d531cfa9165c5d483a2c8e99",
    ("default_figure_eight", 1): "751308b1e4d069ef0d0653d1fc6ad0773456a4427650499fc4b936dbb66d5897",
    ("default_figure_eight", 1000): "67abe91e820c5f4fa028af0a73abd1390bbe0be8542041f799c3709bd8ae8d15",
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
