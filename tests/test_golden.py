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
    ("default", 1): "55832a7b202ce80acd83fc6395a6bf3d9155b7e7ff2f0d27a15d9ad60a555f19",
    ("default", 1000): "fa0aa7cf52ec66b969542e23ff512ae8ed9f0d7d61ed658f483917c22846487f",
    ("default", 1001): "c0310f351e53299538c6825f7ee7c08d3fb4ff8200a78fce44f72414dabcb693",
    ("nominal_collab_static", 1): "398441483a667eb3bc8d7c9306da2bf6a2807aec2805948415048d9230a0f6d1",
    ("nominal_collab_static", 1000): "a56bed63e9527723cbc6c545414072dff0a2406da9a29761931e60ac196f43b8",
    ("nominal_collab_static", 1001): "269b4f0a70f81175cb9e5326817d980a04524a2bf6b292e2af7da7da71a9d5c0",
    ("nominal_moving", 1): "d064128462d9ddcc73f48b5196fd2fa620cd23ec034f8568774cc8813d8eb744",
    ("nominal_moving", 1000): "ff1e6ea84cdbdbe09e21cbd7998b404f7447c37a2956556ed2ea31a734dff4d7",
    ("nominal_moving", 1001): "13eaf77d4f62bf3eaade7ca2ea23749949d4d56e22b7c4e5b7e8c581b1ee46c8",
    ("nominal_static", 1): "5b4582d57fc77fc539686291f5113ec1c766aa995e1893960f821eab6368277d",
    ("nominal_static", 1000): "47f1c61b7dfe0cf806a86f41a80f3ff7e879e6e434e6e1db92cf2936afd1939c",
    ("nominal_static", 1001): "2966d7f44073bea5d5cea228b237531f92082ad3ce8319fef5c6816452ead87e",
    ("single_moving", 1): "f46d3b466a7b9cd8746fa033d2397678f1d48ae92e506ec391f8c210ac9b60bd",
    ("single_moving", 1000): "d5804c3d59832ea65ca1ed759accfa0154e059057b7fb5d833c5ddee4a0c8db4",
    ("single_moving", 1001): "979f6a527d75d2712a7dfca048d93c322f836a2632b030524ee9b233d79dc595",
    ("default_figure_eight", 1): "3a4960482b23a62d739f33beb6e1e4af11075bccd083fabb31a712de00c81822",
    ("default_figure_eight", 1000): "dd83888d0fe6db9b5d8c8eb8a03d3361aa73043cc48c25c6b66a282e55ea510f",
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
