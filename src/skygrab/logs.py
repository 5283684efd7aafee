"""Run logs: newline-delimited JSON with a schema header line.

Records are serialized with sorted keys and compact separators so that a
run's log is a deterministic function of (config, seed); no wall-clock
timestamps appear anywhere. The first line is the header (schema
version, fully resolved config, multirate bookkeeping); every following
line is one record with a "kind" discriminator.

Records hold only JSON-native Python values (str, int, float, bool,
None, and lists, tuples and dicts of them), so they are serialized as
they are, with no conversion pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA_NAME = "skygrab-log"
SCHEMA_VERSION = 1


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class SimLog:
    """One scenario run: header plus the time-ordered record list."""

    header: dict
    records: list = field(default_factory=list)

    def append(self, record: dict):
        self.records.append(record)

    def append_event(self, t: float, name: str, drone: str | None, data: dict) -> None:
        """Append an event record; every event of a run is written here."""
        self.records.append({"kind": "event", "t": t, "event": name, "drone": drone, "data": data})

    def iter_kind(self, kind: str):
        return (r for r in self.records if r["kind"] == kind)

    @property
    def verdict_record(self) -> dict | None:
        return next(self.iter_kind("verdict"), None)

    @property
    def grabber(self) -> dict:
        """The grabber's entry in the header config."""
        for d in self.header["config"]["drones"]:
            if d["role"] == "grabber":
                return d
        raise ValueError("header config has no grabber")

    def phase_transitions(self, drone_id: str) -> list:
        return [
            (r["from"], r["to"]) for r in self.iter_kind("phase") if r["drone"] == drone_id
        ]

    def events(self, name: str | None = None) -> list:
        return [
            r for r in self.iter_kind("event") if name is None or r["event"] == name
        ]

    def to_bytes(self) -> bytes:
        lines = [_dumps(self.header)]
        lines.extend(_dumps(r) for r in self.records)
        return ("\n".join(lines) + "\n").encode("utf-8")

    def write(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def read(cls, path) -> "SimLog":
        """Parse a log file. Raises ValueError naming the path, and the
        line where it applies, for a file that is not UTF-8, a line that
        is not JSON, a header without a config mapping or a list of
        drones, or a record that is not a mapping with a kind; OSError
        for a file that cannot be read."""
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as e:
                raise ValueError(f"{path}: {e}") from None
        lines = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
        if not lines:
            raise ValueError(f"{path}: empty log file")
        parsed = []
        for n, line in lines:
            try:
                parsed.append(json.loads(line))
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: line {n}: {e}") from None
        header, records = parsed[0], parsed[1:]
        if not isinstance(header, dict) or header.get("schema") != SCHEMA_NAME:
            raise ValueError(f"{path}: not a {SCHEMA_NAME} file")
        config = header.get("config")
        if not isinstance(config, dict):
            raise ValueError(f"{path}: header has no config mapping")
        drones = config.get("drones")
        if not isinstance(drones, list) or not all(
            isinstance(d, dict) and "id" in d and "role" in d for d in drones
        ):
            raise ValueError(
                f"{path}: line {lines[0][0]}: header config has no list of drones with id and role"
            )
        for (n, _), r in zip(lines[1:], records):
            if not isinstance(r, dict) or "kind" not in r:
                raise ValueError(f"{path}: line {n}: record is not a mapping with a kind")
        return cls(header=header, records=records)


def validate_log(log: SimLog) -> None:
    """Structural checks every run log must satisfy.

    Validates phase traces against the role tables, per-stream time
    monotonicity, message conservation (delivered is a subset of sent,
    in per-sender send order), the single-verdict rule, and that
    grab_confirmed is sent at most once.
    """
    from .coordination import MissionPhase, validate_phase_trace

    verdicts = list(log.iter_kind("verdict"))
    if len(verdicts) != 1:
        raise ValueError(f"expected exactly one verdict record, found {len(verdicts)}")

    roles = {d["id"]: d["role"] for d in log.header["config"]["drones"]}
    for drone_id, role in roles.items():
        transitions = [
            (MissionPhase(a), MissionPhase(b)) for a, b in log.phase_transitions(drone_id)
        ]
        validate_phase_trace(transitions, role)

    last_t: dict = {}
    for r in log.records:
        if "t" not in r:
            continue
        key = (r["kind"], r.get("drone"))
        if key in last_t and r["t"] < last_t[key] - 1e-12:
            raise ValueError(f"timestamps regress in stream {key}")
        last_t[key] = r["t"]

    sent: dict = {}
    delivered: dict = {}
    confirms_sent = 0
    for r in log.iter_kind("message"):
        key = (r["sender"], r["msg_kind"])
        if r["status"] == "sent":
            sent.setdefault(key, []).append(r["t_sent"])
            if r["msg_kind"] == "grab_confirmed":
                confirms_sent += 1
        elif r["status"] == "delivered":
            delivered.setdefault(key, []).append(r["t_sent"])
    if confirms_sent > 1:
        raise ValueError("grab_confirmed sent more than once")
    for key, times in delivered.items():
        pool = sent.get(key, [])
        if sorted(times) != times:
            raise ValueError(f"out-of-order delivery for {key}")
        pool_iter = iter(pool)
        for t in times:
            for p in pool_iter:
                if p == t:
                    break
            else:
                raise ValueError(f"delivered message never sent for {key}")
