import csv
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from skygrab import engine
from skygrab.cli import main
from skygrab.logs import SimLog

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
NOMINAL = str(CONFIGS / "nominal_static.yaml")


def _cli(*argv):
    """Run skygrab as a program; one that runs past the timeout fails."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "skygrab.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    code = main(["run", "--config", NOMINAL, "--out", str(out)])
    assert code == 0
    return out / "nominal_static-seed1"


@pytest.fixture(scope="module")
def collab_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("collab")
    collab = str(CONFIGS / "nominal_collab_static.yaml")
    assert main(["run", "--config", collab, "--seed", "1", "--out", str(out)]) == 0
    return out / "nominal_collab_static-seed1" / "log.jsonl"


class TestRun:
    def test_artifacts_present(self, run_dir):
        assert (run_dir / "log.jsonl").exists()
        assert (run_dir / "summary.json").exists()
        assert (run_dir / "timeseries.csv").exists()
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["verdict"] == "captured"

    def test_timeseries_columns(self, run_dir):
        with open(run_dir / "timeseries.csv") as fh:
            rows = list(csv.reader(fh))
        header, data = rows[0], rows[1:]
        assert header[0] == "t"
        assert "grabber_phase" in header
        assert "grabber_ball_range" in header
        assert len(data) > 100
        assert all(len(r) == len(header) for r in data)

    def test_timeseries_bytes(self, tmp_path):
        collab = str(CONFIGS / "nominal_collab_static.yaml")
        assert main(["run", "--config", collab, "--seed", "1", "--out", str(tmp_path)]) == 0
        csv_bytes = (tmp_path / "nominal_collab_static-seed1" / "timeseries.csv").read_bytes()
        assert hashlib.sha256(csv_bytes).hexdigest() == (
            "be642878b1cf972334e63b0be2b27be1e1a9760edac314cb8ac4a5f10c4c9433"
        )

    def test_summary_bytes(self, tmp_path):
        collab = str(CONFIGS / "nominal_collab_static.yaml")
        assert main(["run", "--config", collab, "--seed", "1", "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "nominal_collab_static-seed1" / "summary.json").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == (
            "ed1a1aa7b7359c7900db8e59b9492dc5a606fae2fb67a2948551ed38cc8dd8b2"
        )

    def test_missing_config_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "nope.yaml"
        assert main(["run", "--config", str(missing), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: {missing}: {os.strerror(errno.ENOENT)}\n"
        assert list(tmp_path.iterdir()) == []

    def test_malformed_config_exits_1_with_field(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("world:\n  rod_length: -2.0\n")
        assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 1
        assert "world.rod_length" in capsys.readouterr().err

    def test_too_short_duration_exits_2(self, tmp_path):
        cfgp = tmp_path / "short.yaml"
        cfgp.write_text(
            (CONFIGS / "nominal_static.yaml").read_text().replace("duration: 60.0", "duration: 5.0")
        )
        assert main(["run", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        summary = json.loads((tmp_path / "o" / "short-seed1" / "summary.json").read_text())
        assert summary["verdict"] == "timeout"

    def test_negative_seed_exits_1_naming_seed(self, tmp_path, capsys):
        assert main(["run", "--config", NOMINAL, "--seed", "-1", "--out", str(tmp_path)]) == 1
        assert "error: seed: must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_out_naming_a_file_exits_1_naming_it(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", "--config", NOMINAL, "--out", str(taken)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {taken / 'nominal_static-seed1'}: ")

    @pytest.mark.parametrize("name", ["log.jsonl", "summary.json", "timeseries.csv"])
    def test_unwritable_artifact_exits_1_naming_it(self, tmp_path, capsys, name):
        blocked = tmp_path / "nominal_static-seed1" / name
        blocked.mkdir(parents=True)
        assert main(["run", "--config", NOMINAL, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {blocked}: ")

    def test_os_error_without_a_filename_names_no_path(self, tmp_path, capsys, monkeypatch):
        def disk_full(log, path):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(SimLog, "write", disk_full)
        assert main(["run", "--config", NOMINAL, "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"

    def test_seed_override_changes_output_dir_and_log(self, tmp_path):
        assert main(["run", "--config", NOMINAL, "--seed", "9", "--out", str(tmp_path)]) == 0
        log = SimLog.read(tmp_path / "nominal_static-seed9" / "log.jsonl")
        assert log.header["config"]["seed"] == 9


class TestMonteCarlo:
    def test_verdict_table_rows_and_seeds(self, tmp_path):
        out = tmp_path / "mc"
        code = main(["mc", "--config", NOMINAL, "--runs", "3", "--seed-base", "5",
                     "--out", str(out)])
        assert code == 0
        with open(out / "verdicts.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4
        assert [r[0] for r in rows[1:]] == ["5", "6", "7"]
        summary = json.loads((out / "mc_summary.json").read_text())
        assert summary["n_runs"] == 3

    def test_one_raising_run_is_an_error_row(self, tmp_path, monkeypatch):
        inner = engine.run_scenario

        def raise_for_seed_6(config, detail=True):
            if config.seed == 6:
                raise OverflowError("math range error")
            return inner(config, detail=detail)

        monkeypatch.setattr(engine, "run_scenario", raise_for_seed_6)
        out = tmp_path / "mc"
        assert main(["mc", "--config", NOMINAL, "--runs", "3", "--seed-base", "5",
                     "--out", str(out)]) == 0
        with open(out / "verdicts.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [
            ["5", "captured", rows[1][2], ""],
            ["6", "error", "", "OverflowError"],
            ["7", "captured", rows[3][2], ""],
        ]
        summary = json.loads((out / "mc_summary.json").read_text())
        assert (summary["captured"], summary["failures"]) == (2, {"OverflowError": 1})

    def test_negative_seed_base_exits_1_before_any_run(self, tmp_path, capsys):
        out = tmp_path / "mc"
        assert main(["mc", "--config", NOMINAL, "--runs", "2", "--seed-base", "-1",
                     "--out", str(out)]) == 1
        assert "error: seed: must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exits_1_before_any_run(self, tmp_path, capsys, jobs):
        out = tmp_path / "mc"
        assert main(["mc", "--config", NOMINAL, "--runs", "2", "--jobs", jobs,
                     "--out", str(out)]) == 1
        assert "error: --jobs must be >= 1" in capsys.readouterr().err
        assert not (out / "verdicts.csv").exists()

    def test_out_naming_a_file_exits_1_before_any_run(self, tmp_path, capsys, monkeypatch):
        def no_run(args):
            raise AssertionError("a run started")

        monkeypatch.setattr(engine, "_mc_single", no_run)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["mc", "--config", NOMINAL, "--runs", "2", "--out", str(taken)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {taken}: ")

    @pytest.mark.parametrize("name", ["verdicts.csv", "mc_summary.json"])
    def test_unwritable_output_exits_1_naming_it(self, tmp_path, capsys, name):
        blocked = tmp_path / "mc" / name
        blocked.mkdir(parents=True)
        assert main(["mc", "--config", NOMINAL, "--runs", "1",
                     "--out", str(tmp_path / "mc")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {blocked}: ")

    def test_repeat_invocation_identical(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["mc", "--config", NOMINAL, "--runs", "2", "--seed-base", "3",
                         "--out", str(out)]) == 0
        assert (out1 / "mc_summary.json").read_bytes() == (out2 / "mc_summary.json").read_bytes()
        assert (out1 / "verdicts.csv").read_bytes() == (out2 / "verdicts.csv").read_bytes()

    def test_verdicts_bytes(self, tmp_path):
        out = tmp_path / "mc"
        assert main(["mc", "--config", NOMINAL, "--runs", "3", "--out", str(out)]) == 0
        assert hashlib.sha256((out / "verdicts.csv").read_bytes()).hexdigest() == (
            "1bb0c53b18a4f062020db2ccee8d4ac5ad7d4b7df549232a3a1ac0e45ede3d6e"
        )

    def test_mc_summary_bytes(self, tmp_path):
        out = tmp_path / "mc"
        assert main(["mc", "--config", NOMINAL, "--runs", "3", "--out", str(out)]) == 0
        assert hashlib.sha256((out / "mc_summary.json").read_bytes()).hexdigest() == (
            "064cf57597407cdbf47d7e7836278e63f9249a573cf1407fb3b41f73fc8da1b8"
        )


def _set_plotted_value(records, kind, value):
    """Set one value that a nominal_static log's plot of ``kind`` draws;
    returns the sidecar column that holds it."""
    if kind == "trajectory_3d":
        state = next(r for r in records if r["kind"] == "state")
        state["drones"]["grabber"]["p"][0] = value
        return "x"
    if kind == "phase_timeline":
        next(r for r in records if r["kind"] == "phase")["t"] = value
        return "t_end"
    vision = [r for r in records if r["kind"] == "vision"]
    if kind == "depth_profile":
        next(r for r in vision if r["ball_depth"] > 0.0)["ball_depth"] = value
        return "ball_depth_true"
    tracked = next(r for r in vision if r["tracks"]["ball"]["status"] != "uninitialized")
    tracked["tracks"]["ball"]["x"] = value
    return "x_error_px"


class TestPlot:
    @pytest.mark.parametrize("kind", ["depth_profile", "trajectory_3d", "pixel_error", "phase_timeline"])
    def test_each_kind_writes_svg_and_sidecar(self, run_dir, tmp_path, kind):
        out = tmp_path / f"{kind}.svg"
        code = main(["plot", "--kind", kind, "--log", str(run_dir / "log.jsonl"),
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        sidecar = out.with_suffix(".csv")
        assert sidecar.exists()
        body = out.read_text()
        assert body.startswith("<svg") and body.rstrip().endswith("</svg>")

    def test_depth_profile_ends_at_capture(self, run_dir, tmp_path):
        out = tmp_path / "depth.svg"
        assert main(["plot", "--kind", "depth_profile", "--log", str(run_dir / "log.jsonl"),
                     "--out", str(out)]) == 0
        log = SimLog.read(run_dir / "log.jsonl")
        t_cap = log.verdict_record["t_capture"]
        with open(tmp_path / "depth.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert float(rows[-1][0]) <= t_cap + 1e-9

    def test_plot_outputs_deterministic(self, run_dir, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            assert main(["plot", "--kind", "trajectory_3d", "--log", str(run_dir / "log.jsonl"),
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    # plot kind: (svg digest, csv digest) of the nominal_collab_static@1 log
    PLOT_DIGESTS = {
        "depth_profile": (
            "1421850f8a5ca69f43471516b7834878d20836ee318b05e9e2767de0daa8b38e",
            "7c4c4f64eadb428d81bfca08af6835aab189665a869da68315c48b3b074f1c4f",
        ),
        "trajectory_3d": (
            "a0225214448a014d6fa5220c67668afadf282d6fc3bcf9239011ca47cb7b75fc",
            "bdcc70de32d8b81c160b055c59e8f5c62dafad2ca13a3edf3fe9a73aa8d16d41",
        ),
        "pixel_error": (
            "8bbca4214da89f9f27f32cc87fef8adf4886237c888a12ecd78dec7e22d50a34",
            "6b9d954215fc7f60438c57f60df3fac1f454a3b7a12106ecb43b978895a8c093",
        ),
        "phase_timeline": (
            "9c729c93ee79659a585abfd0a7e4bf45bde7f4c8af2e31136dd9eb64c81a657d",
            "ec7bf2170ecff3488c7aca0e7940299fc6a9a4066bbea8a0cb5e4bc9cf1f6aa1",
        ),
    }

    @pytest.mark.parametrize("kind", list(PLOT_DIGESTS))
    def test_plot_bytes(self, collab_log, tmp_path, kind):
        svg_digest, csv_digest = self.PLOT_DIGESTS[kind]
        out = tmp_path / f"{kind}.svg"
        assert main(["plot", "--kind", kind, "--log", str(collab_log), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == svg_digest
        assert hashlib.sha256(out.with_suffix(".csv").read_bytes()).hexdigest() == csv_digest

    def test_missing_stream_exits_1_naming_kind(self, run_dir, tmp_path, capsys):
        log = SimLog.read(run_dir / "log.jsonl")
        stripped = SimLog(
            header=log.header,
            records=[r for r in log.records if r["kind"] != "vision"],
        )
        p = tmp_path / "stripped.jsonl"
        stripped.write(p)
        code = main(["plot", "--kind", "pixel_error", "--log", str(p),
                     "--out", str(tmp_path / "x.svg")])
        assert code == 1
        assert "vision" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("kind", ["depth_profile", "trajectory_3d", "pixel_error", "phase_timeline"])
    def test_non_finite_plotted_value_exits_1_naming_kind(self, run_dir, tmp_path, capsys, kind, value):
        log = SimLog.read(run_dir / "log.jsonl")
        column = _set_plotted_value(log.records, kind, value)
        p = tmp_path / "nonfinite.jsonl"
        log.write(p)
        assert main(["plot", "--kind", kind, "--log", str(p), "--out", str(tmp_path / "x.svg")]) == 1
        assert capsys.readouterr().err == f"error: {p}: {kind}: log holds a non-finite {column}: {value}\n"
        assert list(tmp_path.iterdir()) == [p]

    @pytest.mark.parametrize("kind", ["depth_profile", "pixel_error"])
    def test_axis_range_overflow_exits_1_naming_kind(self, run_dir, tmp_path, capsys, kind):
        log = SimLog.read(run_dir / "log.jsonl")
        _set_plotted_value(log.records, kind, 1.79e308)  # finite; its axis margin is not
        p = tmp_path / "huge.jsonl"
        log.write(p)
        assert main(["plot", "--kind", kind, "--log", str(p), "--out", str(tmp_path / "x.svg")]) == 1
        assert capsys.readouterr().err == f"error: {p}: {kind}: log holds values too large to plot\n"
        assert list(tmp_path.iterdir()) == [p]

    def test_tick_labels_on_each_axis_are_distinct(self, run_dir, tmp_path):
        # at 1e15, six significant digits label every tick alike
        log = SimLog.read(run_dir / "log.jsonl")
        for r in log.iter_kind("state"):
            for entity in (r["target"], r["ball"], *r["drones"].values()):
                entity["p"][0] += 1e15
        p, out = tmp_path / "shifted.jsonl", tmp_path / "x.svg"
        log.write(p)
        assert main(["plot", "--kind", "trajectory_3d", "--log", str(p), "--out", str(out)]) == 0
        texts = re.findall(
            r'<text x="([^"]+)" y="[^"]+" font-size="10" [^>]*text-anchor="(\w+)"[^>]*>([^<]*)</text>',
            out.read_text(),
        )
        xticks = [s for _, anchor, s in texts if anchor == "middle"]
        yticks = [s for x, anchor, s in texts if anchor == "end" and x == "53"]  # x0 - 7; legends sit right
        for labels in (xticks, yticks):
            assert len(labels) >= 2
            assert len(set(labels)) == len(labels)

    @pytest.mark.parametrize("shift, message", [
        (3e16, "axis span 4 is too fine for the float resolution near 2.59808e+16"),  # a tick step stalls
        (1e18, "axis span 0 is too fine for the float resolution near 8.66025e+17"),  # the span rounds to 0
    ], ids=["step_stalls", "span_rounds_to_0"])
    def test_axis_span_below_float_resolution_exits_1_naming_kind(self, run_dir, tmp_path, shift, message):
        # A subprocess with a timeout, so that a plot which never ends fails.
        log = SimLog.read(run_dir / "log.jsonl")
        for r in log.iter_kind("state"):
            for entity in (r["target"], r["ball"], *r["drones"].values()):
                entity["p"][0] += shift
        p = tmp_path / "shifted.jsonl"
        log.write(p)
        done = _cli("plot", "--kind", "trajectory_3d", "--log", str(p), "--out", str(tmp_path / "x.svg"))
        assert (done.returncode, done.stderr) == (1, f"error: {p}: trajectory_3d: {message}\n")
        assert list(tmp_path.iterdir()) == [p]

    @pytest.fixture(scope="class")
    def untracked_log(self, tmp_path_factory):
        """A detailed nominal_static log that ends before the grabber
        tracks the ball."""
        out = tmp_path_factory.mktemp("short")
        cfgp = out / "short.yaml"
        cfgp.write_text(
            (CONFIGS / "nominal_static.yaml").read_text().replace("duration: 60.0", "duration: 2.0")
        )
        assert main(["run", "--config", str(cfgp), "--out", str(out)]) == 2
        return out / "short-seed1" / "log.jsonl"

    def test_ball_never_tracked_is_named(self, untracked_log, tmp_path, capsys):
        assert any(r["kind"] == "vision" for r in SimLog.read(untracked_log).records)
        assert main(["plot", "--kind", "pixel_error", "--log", str(untracked_log),
                     "--out", str(tmp_path / "x.svg")]) == 1
        assert capsys.readouterr().err == (
            f"error: {untracked_log}: pixel_error: the grabber never tracked the ball\n"
        )

    def test_ball_never_in_front_of_the_camera_is_named(self, untracked_log, tmp_path, capsys):
        log = SimLog.read(untracked_log)
        for r in log.iter_kind("vision"):
            r["ball_depth"] = -1.0
        p = tmp_path / "behind.jsonl"
        log.write(p)
        assert main(["plot", "--kind", "depth_profile", "--log", str(p),
                     "--out", str(tmp_path / "x.svg")]) == 1
        assert capsys.readouterr().err == (
            f"error: {p}: depth_profile: the ball is never in front of the grabber's camera\n"
        )

    def test_out_in_a_missing_directory_exits_1_naming_it(self, run_dir, tmp_path, capsys):
        out = tmp_path / "missing" / "fig"
        assert main(["plot", "--kind", "depth_profile", "--log", str(run_dir / "log.jsonl"),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {out}.")  # the SVG or its sidecar

    def test_missing_log_file_exits_1(self, tmp_path):
        assert main(["plot", "--kind", "depth_profile", "--log", str(tmp_path / "none.jsonl"),
                     "--out", str(tmp_path / "x.svg")]) == 1

    def test_log_directory_exits_1_naming_it(self, tmp_path, capsys):
        assert main(["plot", "--kind", "depth_profile", "--log", str(tmp_path),
                     "--out", str(tmp_path / "x.svg")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")

    def test_non_utf8_log_exits_1_naming_it(self, tmp_path, capsys):
        p = tmp_path / "latin1.jsonl"
        p.write_bytes('{"schema": "caf\u00e9"}\n'.encode("latin-1"))
        assert main(["plot", "--kind", "depth_profile", "--log", str(p),
                     "--out", str(tmp_path / "x.svg")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {p}: 'utf-8' codec can't decode")
        assert list(tmp_path.iterdir()) == [p]

    def test_log_header_without_config_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bare.jsonl"
        SimLog(header={"schema": "skygrab-log", "version": 1},
               records=[{"kind": "verdict", "verdict": "timeout"}]).write(p)
        assert main(["plot", "--kind", "depth_profile", "--log", str(p),
                     "--out", str(tmp_path / "x.svg")]) == 1
        assert capsys.readouterr().err == f"error: {p}: header has no config mapping\n"

    @pytest.mark.parametrize(
        "kind, lines, message",
        [
            ("phase_timeline",
             ['{"config":{"drones":[]},"schema":"skygrab-log","version":1}', "5"],
             "line 2: record is not a mapping with a kind"),
            ("phase_timeline",
             ['{"config":{"drones":[]},"schema":"skygrab-log","version":1}', '{"t": 0.0}'],
             "line 2: record is not a mapping with a kind"),
            ("depth_profile",
             ['{"config":{},"schema":"skygrab-log","version":1}', '{"kind":"verdict"}'],
             "line 1: header config has no list of drones with id and role"),
        ],
        ids=["record_not_a_mapping", "record_without_kind", "config_without_drones"],
    )
    def test_malformed_log_exits_1_naming_path_and_line(self, tmp_path, capsys, kind, lines, message):
        p = tmp_path / "bad.jsonl"
        p.write_text("\n".join(lines) + "\n")
        assert main(["plot", "--kind", kind, "--log", str(p), "--out", str(tmp_path / "x.svg")]) == 1
        assert capsys.readouterr().err == f"error: {p}: {message}\n"


    @pytest.mark.parametrize(
        "kind, drones, message",
        [
            ("phase_timeline", [{"id": "g", "role": "grabber"}],
             "phase_timeline: log is missing field 't_end'"),
            ("depth_profile", [{"id": "g", "role": "grabber"}],
             "depth_profile: log is missing field 't_capture'"),
            ("pixel_error", [{"id": "g", "role": "grabber"}],
             "pixel_error: log is missing field 'camera'"),
            ("pixel_error",
             [{"id": "g", "role": "grabber", "camera": {"width": "640", "height": 480}}],
             "pixel_error: log field of the wrong type: "
             "unsupported operand type(s) for /: 'str' and 'float'"),
            ("depth_profile", [{"id": "t", "role": "tracker"}],
             "header config has no grabber"),
        ],
        ids=["verdict_without_t_end", "verdict_without_t_capture", "drone_without_camera",
             "camera_width_not_a_number", "no_grabber"],
    )
    def test_log_missing_or_mistyped_field_exits_1(self, tmp_path, capsys, kind, drones, message):
        p = tmp_path / "partial.jsonl"
        SimLog(header={"config": {"drones": drones}, "schema": "skygrab-log", "version": 1},
               records=[{"kind": "verdict", "verdict": "timeout"}]).write(p)
        assert main(["plot", "--kind", kind, "--log", str(p), "--out", str(tmp_path / "x.svg")]) == 1
        assert capsys.readouterr().err == f"error: {p}: {message}\n"

    def test_drone_position_of_two_coordinates_exits_1(self, tmp_path, capsys):
        p = tmp_path / "flat.jsonl"
        state = {"kind": "state", "t": 0.0, "target": {"p": [0.0, 0.0, 2.0]},
                 "ball": {"p": [0.0, 0.0, 1.0]}, "drones": {"g": {"p": [0.0, 0.0]}}}
        SimLog(header={"config": {"drones": [{"id": "g", "role": "grabber"}]},
                       "schema": "skygrab-log", "version": 1},
               records=[state, {"kind": "verdict", "verdict": "timeout"}]).write(p)
        assert main(["plot", "--kind", "trajectory_3d", "--log", str(p),
                     "--out", str(tmp_path / "x.svg")]) == 1
        assert capsys.readouterr().err == (
            f"error: {p}: trajectory_3d: log field of the wrong type: tuple index out of range\n"
        )

    def test_drones_of_a_state_record_as_a_list_exits_1(self, tmp_path, capsys):
        p = tmp_path / "listed.jsonl"
        state = {"kind": "state", "t": 0.0, "target": {"p": [0.0, 0.0, 2.0]},
                 "ball": {"p": [0.0, 0.0, 1.0]}, "drones": [1, 2]}
        SimLog(header={"config": {"drones": [{"id": "g", "role": "grabber"}]},
                       "schema": "skygrab-log", "version": 1},
               records=[state, {"kind": "verdict", "verdict": "timeout"}]).write(p)
        assert main(["plot", "--kind", "trajectory_3d", "--log", str(p),
                     "--out", str(tmp_path / "x.svg")]) == 1
        assert capsys.readouterr().err == (
            f"error: {p}: trajectory_3d: log field of the wrong type: 'list' object has no attribute 'items'\n"
        )


class TestCheck:
    def test_valid_config_exits_0(self, capsys):
        assert main(["check", "--config", NOMINAL]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("rates:\n  control: 800.0\n")
        assert main(["check", "--config", str(bad)]) == 1
        assert "rates.control" in capsys.readouterr().err

    def test_standoff_beyond_the_ball_init_range_exits_1(self, tmp_path, capsys):
        far = tmp_path / "far_standoff.yaml"
        far.write_text("mission:\n  grabber_standoff: 7.0\n")  # perception.init_range_ball is 6.0
        assert main(["check", "--config", str(far)]) == 1
        assert capsys.readouterr().err == (
            "error: mission.grabber_standoff: must be below perception.init_range_ball\n"
        )

    @pytest.mark.parametrize("name", ["ball", "target"])
    def test_drone_named_like_an_exported_entity_exits_1(self, tmp_path, capsys, name):
        # The timeseries and trajectory exports key the ball and the target by these names.
        cfg = tmp_path / "clash.yaml"
        cfg.write_text(f"drones:\n  - id: {name}\n")
        assert main(["check", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "error: drones[0].id: must not be 'ball' or 'target'\n"

    def test_config_directory_exits_1_naming_it(self, tmp_path, capsys):
        assert main(["check", "--config", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {tmp_path}: ")

    def test_non_utf8_config_exits_1_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "latin1.yaml"
        bad.write_bytes("target:\n  pattern: caf\u00e9\n".encode("latin-1"))
        assert main(["check", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}: 'utf-8' codec can't decode")


class TestErrorExit:
    """Each command, run as a program, turns a bad input into exit 1
    and one error message, never a traceback."""

    # "run-usage" and "mc-usage" are argparse's own errors, which exit 1
    # too: exit 2 means a mission that failed.
    @pytest.mark.parametrize("command", ["run", "mc", "plot", "check", "run-usage", "mc-usage"])
    def test_error_exits_1_with_one_message(self, tmp_path, command):
        bad_config = tmp_path / "bad.yaml"
        bad_config.write_text("world:\n  rod_length: -2.0\n")
        taken = tmp_path / "taken"
        taken.write_text("")
        bad_log = tmp_path / "latin1.jsonl"
        bad_log.write_bytes("caf\u00e9\n".encode("latin-1"))
        bad_yaml = tmp_path / "unclosed.yaml"
        bad_yaml.write_text("a: [1,\n")
        argv = {
            "run": ["run", "--config", NOMINAL, "--out", str(taken)],
            "mc": ["mc", "--config", str(bad_config), "--runs", "1", "--out", str(tmp_path / "mc")],
            "plot": ["plot", "--kind", "depth_profile", "--log", str(bad_log),
                     "--out", str(tmp_path / "x.svg")],
            "check": ["check", "--config", str(bad_yaml)],
            "run-usage": ["run"],
            "mc-usage": ["mc", "--config", NOMINAL, "--runs", "x", "--out", str(tmp_path / "mc")],
        }[command]
        done = _cli(*argv)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.startswith("error: ")
        assert done.stderr.count("error:") == 1 and "Traceback" not in done.stderr

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["run", "--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: skygrab run")
