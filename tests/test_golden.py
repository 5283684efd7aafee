"""Golden behaviour digests and the run invariants that ride on them.

Each case runs a shipped config at a fixed seed. Two SHA-256 digests of
the detailed log bytes pin behaviour: one over the header line, one over
the records after it. Together they cover every byte. A refactor that
keeps every digest is behaviour-preserving; a change to the config alone
moves only the header digests. A change that moves a digest must
re-bless it here and say why in CHANGES.md.
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
    ("default", 1): (
        "9160333ae7c055cbb45ea91936327d4cf18dac3391df9ee75fa34cce77ad1c02",
        "ca92667f1bee200612f5c867ef5661884884c9ef9a0b2a11b73a6c41388ba48d",
    ),
    ("default", 1000): (
        "43d3e75bda62cdfa8291162ae7356211ca3420292198aab7eb0d0f49a019d027",
        "6289aa582725b9f7f66648bfe4b9e731898f3ac5b8ff9e99367c6fa8affc0dc5",
    ),
    ("default", 1001): (
        "89510568f22a776748d65c44c0b9c8c8cbf7f870bde0cdff43fb2a9ea3595ecf",
        "76ca18627b9392d7fbf8520b4e0b2bdb8ab0be46988e64186a4dcc3e8aca1804",
    ),
    ("nominal_collab_static", 1): (
        "17721912397020376cd382c52278170f1f69d6e10c99f25affb5640bed4f45fa",
        "a6cd81a55c07837035c37ca5a8ad7e45edaa96af614772017dd893a720717f83",
    ),
    ("nominal_collab_static", 1000): (
        "dd95c908c7c9a5a7ea33d3d4582604f65f2e5f33876bddb2c59a3b9dca78a0d7",
        "a6cd81a55c07837035c37ca5a8ad7e45edaa96af614772017dd893a720717f83",
    ),
    ("nominal_collab_static", 1001): (
        "81a2f2f4b8ff45165961f8b28cdcbb4a6e59020519b7f9201c7a8d212da96f45",
        "a6cd81a55c07837035c37ca5a8ad7e45edaa96af614772017dd893a720717f83",
    ),
    ("nominal_moving", 1): (
        "1a4dcd4846cbc40a076d8756085addc6e8194c1750617e3f11c8ee1fce8147a3",
        "7911b0d3b8bb58977be75b90b26a4057b17f6f734225ff7e3b760ef57ae49168",
    ),
    ("nominal_moving", 1000): (
        "2ade2e0c70ac8f2d65a654aa258cdcf9b33764cb6447d4774d402123bf439aed",
        "7911b0d3b8bb58977be75b90b26a4057b17f6f734225ff7e3b760ef57ae49168",
    ),
    ("nominal_moving", 1001): (
        "19a73058865f7e34ef7ce6070f8eb00631b10c8312bb84660714ec508e74a4d3",
        "7911b0d3b8bb58977be75b90b26a4057b17f6f734225ff7e3b760ef57ae49168",
    ),
    ("nominal_static", 1): (
        "af365ae2bae5dd9070cb60c56c1b50e62dfdd86d9083e481830074be8481a871",
        "b4c12e1a1d1a4b8f11c675e89668e6b80c69db22e793bcb94784d18062ca18f2",
    ),
    ("nominal_static", 1000): (
        "5e4560a3a9aaa49037c4644abb5d88869a67edf3b4323d322ce04a8ccf95e6fb",
        "b4c12e1a1d1a4b8f11c675e89668e6b80c69db22e793bcb94784d18062ca18f2",
    ),
    ("nominal_static", 1001): (
        "9393ce4a32d58e4dac6dbecd3f1f5abcec8bc8fa1068f23f21fb4562bf550fc1",
        "b4c12e1a1d1a4b8f11c675e89668e6b80c69db22e793bcb94784d18062ca18f2",
    ),
    ("single_moving", 1): (
        "d29c6b5a8179195e924fba6a4d618a324e981011ac9c6a3d5eb8d5fb9f8982c1",
        "e7ba469231ca1455944df9a87ebb21bc4a229facae0afb12f8bf77622510d487",
    ),
    ("single_moving", 1000): (
        "38e2017c34aae6bf5d2616eb427a28328b8b01d38b66edf773628e6a5ed675e5",
        "d2d07141898f3465b5c217107e1bb490e2fe9607ef2c1de6fecafffe7bfa62e6",
    ),
    ("single_moving", 1001): (
        "9e73392c7600c7f162896b62d5bf56ab77bc8dc1d7fca378e9995183fe2eb174",
        "a57cb84e7d4363da89e539537ec9ca38ac2ea26d2e19d08d5df592f0e10df97c",
    ),
    ("default_figure_eight", 1): (
        "2a46cf006c5db9d7206f85dbb8af67759833f2338ad61dcfc5657a9208841547",
        "20db5ba0d9a71de294d9997804b3fe8b2df2ef81339ec23fdf25ab371e1ce55b",
    ),
    ("default_figure_eight", 1000): (
        "d926eb241bea7242c718300e7efc7eb49912891634f20a239025dfa8046aa725",
        "3bc183adfba250dce15153aaa2ab54b3fb6f177a3686f66f49389c1d34ab39ab",
    ),
}


def log_digests(log) -> tuple[str, str]:
    """SHA-256 of the log's header line, its newline included, and of
    the record lines after it."""
    data = log.to_bytes()
    cut = data.index(b"\n") + 1
    return hashlib.sha256(data[:cut]).hexdigest(), hashlib.sha256(data[cut:]).hexdigest()


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

    header, records = log_digests(detailed)
    pinned_header, pinned_records = GOLDEN[(name, seed)]
    assert header == pinned_header, f"header digest of {name}@{seed} is now {header}"
    assert records == pinned_records, f"records digest of {name}@{seed} is now {records}"
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


# Script for a fresh interpreter: the detailed-log digests of one case.
_DIGEST_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from test_golden import _config, log_digests
from skygrab.engine import run_scenario
print(*log_digests(run_scenario(_config(sys.argv[2], int(sys.argv[3])), detail=True)))
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
    assert tuple(out.stdout.split()) == GOLDEN[(name, seed)]
