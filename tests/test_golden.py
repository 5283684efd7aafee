"""Golden behaviour digests and the run invariants that ride on them.

Each case runs a shipped config at a fixed seed. The SHA-256 of the
detailed log bytes pins behaviour: a refactor that keeps every digest
is behaviour-preserving. A change that moves a digest must re-bless it
here and say why in CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from skygrab.config import load_config
from skygrab.engine import replay_divergence, run_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

GOLDEN = {
    ("default", 1): "abad5fbfbaa50d082a357048cfee244dc0d5477c4ececf35e73b0acf89380556",
    ("default", 1000): "7bef3dc92a8375b0c5957196b3de0da732091b4d931d9e7a8fd22cfe628c21b9",
    ("default", 1001): "c6b3b23a3119bdb9c0d94dd80ab13627bcadf00a22d05666cc0c5a5b773df2f6",
    ("nominal_collab_static", 1): "5cbc263f668e47ead9eb7a01378adbd84b1d6e3bb8cfaa8e057d80eec472721d",
    ("nominal_collab_static", 1000): "8fe3a0c67d3ccf708b048b77bc03ecb0335218e997f9cc6ba1078843fa40713e",
    ("nominal_collab_static", 1001): "a5e2f64d493650662ecfb2a8e71dc1f4a938d5e7662b124494f9b613100ec18c",
    ("nominal_moving", 1): "c8d5446747dec3173c5afad7bbc8efe3276d871d60a91da42bfaf498740f23f2",
    ("nominal_moving", 1000): "12e7d92dbbc1d84eaca30d235ed13f49cce01d2004fed394d0ec24b21b084241",
    ("nominal_moving", 1001): "150237bbedef50a9f4c48f902f8dade07a9a02837013d1ace68399e1ecb2477d",
    ("nominal_static", 1): "52dfad137246816eec8df74e88f6ef30bd1a4cce888fec8fdb39f5c7df6c55e8",
    ("nominal_static", 1000): "a35f5fa58ebf3750e7e6b6a14bc6cc64105cb2ebfa6461bae42f89b6ee52953b",
    ("nominal_static", 1001): "b32f66a83ba3ef4b75bc1a66f6bfd39b635872982647b35642570e2842bceaec",
    ("single_moving", 1): "6b04381e3ed2c561fd914b93d68b512d24b1946d49e4ed33386351369d4443bd",
    ("single_moving", 1000): "08a4031df995253dd0bc6083c936659b2a832197124f356e3ab1b0bcd4823c1a",
    ("single_moving", 1001): "7cc44464e91bdcd1b57c4718de7646da71b8636ac2961bfeab411cfe356f4493",
}


def _always_logged(log):
    """Records that a lean run keeps: phases, events, the verdict, and
    messages the channel accepted for sending."""
    return [
        r for r in log.records
        if r["kind"] in ("phase", "event", "verdict")
        or (r["kind"] == "message" and r["status"] == "sent")
    ]


@pytest.mark.parametrize("name,seed", sorted(GOLDEN), ids=lambda v: str(v))
def test_golden_run(name, seed):
    cfg = load_config(CONFIGS / f"{name}.yaml").with_seed(seed)
    detailed = run_scenario(cfg, detail=True)

    digest = hashlib.sha256(detailed.to_bytes()).hexdigest()
    assert digest == GOLDEN[(name, seed)], f"log digest of {name}@{seed} is now {digest}"

    lean = run_scenario(cfg, detail=False)
    assert _always_logged(lean) == _always_logged(detailed)

    assert replay_divergence(detailed) <= 1e-9
