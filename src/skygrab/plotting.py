"""Figure emission from run logs: self-contained SVG plus a CSV sidecar.

Each plot kind is a pure function from a run log to its figure and the
series it plots; ``render_plot`` writes both. The SVG is assembled
directly (no plotting library) so outputs are byte-deterministic and the
artifact has no drawing dependencies. The sidecar CSV holds exactly the
plotted series, from which the figure can be regenerated.
"""

from __future__ import annotations

import csv
import math
import sys

from .logs import SimLog


class _Unplottable(ValueError):
    """Log content that a plot kind cannot draw; render_plot names the kind."""


def _fmt(x: float) -> str:
    return f"{x:.6g}"


_TICKS = 5  # about this many ticks per axis


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round ticks over lo..hi; _Unplottable for a span so fine against the
    values' float spacing that it is 0 or a step cannot advance a tick."""
    span = hi - lo
    raw = span / _TICKS
    too_fine = _Unplottable(f"axis span {_fmt(span)} is too fine for the float resolution near {_fmt(lo)}")
    if not raw > 0.0:
        raise too_fine
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= _TICKS + 1:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * span:
        ticks.append(round(v, 12))
        if v + step == v:
            raise too_fine
        v += step
    return ticks


def _tick_labels(ticks: list[float]) -> list[str]:
    """Labels with the fewest significant digits, at least 6, that tell
    all ticks apart; distinct floats always differ in 17."""
    for digits in range(6, 18):
        labels = [f"{t:.{digits}g}" for t in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


class SvgCanvas:
    def __init__(self, width: int = 720, height: int = 480):
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def rect(self, x, y, w, h, fill, stroke="none"):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}" '
            f'fill="{fill}" stroke="{stroke}" opacity="1"/>'
        )

    def line(self, x1, y1, x2, y2, stroke="#444", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(width)}"{d}/>'
        )

    def polyline(self, pts, stroke, width=1.5):
        if len(pts) < 2:
            return
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in pts)
        self.parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="{_fmt(width)}"/>'
        )

    def text(self, x, y, s, size=12, anchor="start", color="#222", rotate=None):
        r = f' transform="rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"' if rotate else ""
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" font-family="sans-serif" '
            f'text-anchor="{anchor}" fill="{color}"{r}>{s}</text>'
        )

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n'
        )


class Axes:
    """Maps data coordinates to canvas pixels and draws the frame."""

    MARGIN = (60, 20, 30, 45)  # left, right, top, bottom

    def __init__(self, canvas: SvgCanvas, xlim, ylim, title, xlabel, ylabel):
        self.c = canvas
        ml, mr, mt, mb = self.MARGIN
        self.x0, self.y0 = ml, mt
        self.x1, self.y1 = canvas.width - mr, canvas.height - mb
        for lo, hi in (xlim, ylim):
            if not abs(hi - lo) <= sys.float_info.max:
                raise _Unplottable("log holds values too large to plot")
        self.xlim = xlim if xlim[1] > xlim[0] else (xlim[0], xlim[0] + 1.0)
        self.ylim = ylim if ylim[1] > ylim[0] else (ylim[0], ylim[0] + 1.0)
        self._frame(title, xlabel, ylabel)

    def px(self, x):
        f = (x - self.xlim[0]) / (self.xlim[1] - self.xlim[0])
        return self.x0 + f * (self.x1 - self.x0)

    def py(self, y):
        f = (y - self.ylim[0]) / (self.ylim[1] - self.ylim[0])
        return self.y1 - f * (self.y1 - self.y0)

    def _frame(self, title, xlabel, ylabel):
        c = self.c
        c.rect(self.x0, self.y0, self.x1 - self.x0, self.y1 - self.y0, fill="none", stroke="#888")
        xticks = [t for t in _nice_ticks(*self.xlim) if self.xlim[0] <= t <= self.xlim[1]]
        for t, label in zip(xticks, _tick_labels(xticks)):
            x = self.px(t)
            c.line(x, self.y1, x, self.y1 + 4, stroke="#888")
            c.text(x, self.y1 + 17, label, size=10, anchor="middle")
        yticks = [t for t in _nice_ticks(*self.ylim) if self.ylim[0] <= t <= self.ylim[1]]
        for t, label in zip(yticks, _tick_labels(yticks)):
            y = self.py(t)
            c.line(self.x0 - 4, y, self.x0, y, stroke="#888")
            c.text(self.x0 - 7, y + 3, label, size=10, anchor="end")
        c.text((self.x0 + self.x1) / 2, self.y1 + 33, xlabel, size=12, anchor="middle")
        c.text(16, (self.y0 + self.y1) / 2, ylabel, size=12, anchor="middle", rotate=-90)
        c.text((self.x0 + self.x1) / 2, self.y0 - 8, title, size=13, anchor="middle")

    def plot(self, xs, ys, color, width=1.5):
        self.c.polyline([(self.px(x), self.py(y)) for x, y in zip(xs, ys)], color, width)

    def vline(self, x, label):
        self.c.line(self.px(x), self.y0, self.px(x), self.y1, stroke="#c00", width=1.2, dash="4,3")
        self.c.text(self.px(x) + 4, self.y0 + 12, label, size=10, color="#c00")


_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_PHASE_COLORS = {
    "idle": "#cccccc",
    "takeoff": "#9ecae1",
    "explore": "#fdd0a2",
    "track_drone": "#c7e9c0",
    "approach_handoff": "#bcbddc",
    "servo_ball": "#74c476",
    "grab": "#e6550d",
    "retreat_land": "#6baed6",
    "done": "#31a354",
    "failed": "#de2d26",
}


def _finite(header: list, rows: list):
    """Raise _Unplottable for a number in rows that is not finite: a log
    may hold Infinity or NaN, and no axis can place either."""
    for row in rows:
        for name, v in zip(header, row):
            if isinstance(v, (int, float)) and not abs(v) <= sys.float_info.max:
                raise _Unplottable(f"log holds a non-finite {name}: {v}")


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


# ---------------------------------------------------------------------------
# Plot kinds
# ---------------------------------------------------------------------------

def depth_profile(log: SimLog) -> tuple[SvgCanvas, list, list]:
    """Ball depth seen from the grabber's camera over time; the curve is
    truncated at the capture event, which is drawn as a marker line."""
    gid = log.grabber["id"]
    verdict = log.verdict_record
    t_cap = verdict["t_capture"] if verdict else None
    _finite(["t_capture"], [(t_cap,)])
    vision = [r for r in log.iter_kind("vision") if r["drone"] == gid]
    if not vision:
        raise _Unplottable("log contains no 'vision' records")
    rows = []
    for r in vision:
        if r["ball_depth"] <= 0.0:
            continue
        if t_cap is not None and r["t"] > t_cap:
            continue
        est = r["tracks"]["ball"]["r"] if r["tracks"]["ball"]["status"] != "uninitialized" else ""
        rows.append((r["t"], r["ball_depth"], est))
    if not rows:
        raise _Unplottable("the ball is never in front of the grabber's camera"
                           + (" before capture" if t_cap is not None else ""))
    header = ["t", "ball_depth_true", "ball_range_estimate"]
    _finite(header, rows)

    c = SvgCanvas()
    ts = [r[0] for r in rows]
    ds = [r[1] for r in rows]
    ax = Axes(c, (min(ts), max(ts)), (0.0, max(ds) * 1.05),
              "Ball depth from grabber camera", "time [s]", "depth [m]")
    ax.plot(ts, ds, _COLORS[0])
    est_pts = [(r[0], r[2]) for r in rows if r[2] != ""]
    if est_pts:
        ax.plot([p[0] for p in est_pts], [p[1] for p in est_pts], _COLORS[1], width=1.0)
        c.text(ax.x1 - 8, ax.y0 + 28, "estimate", size=10, anchor="end", color=_COLORS[1])
    c.text(ax.x1 - 8, ax.y0 + 14, "true depth", size=10, anchor="end", color=_COLORS[0])
    if t_cap is not None:
        ax.vline(t_cap, label="capture")
    return c, header, rows


def trajectory_3d(log: SimLog) -> tuple[SvgCanvas, list, list]:
    """Isometric view of every vehicle's path plus the ball."""
    rows = []
    series: dict[str, list] = {}
    for r in log.iter_kind("state"):
        for did, s in r["drones"].items():
            series.setdefault(did, []).append((r["t"], *s["p"]))
        series.setdefault("target", []).append((r["t"], *r["target"]["p"]))
        series.setdefault("ball", []).append((r["t"], *r["ball"]["p"]))
    if not series:
        raise _Unplottable("log contains no 'state' records")
    for name, pts in sorted(series.items()):
        rows.extend((name, *p) for p in pts)
    header = ["entity", "t", "x", "y", "z"]
    _finite(header, rows)

    cos30, sin30 = math.cos(math.pi / 6), math.sin(math.pi / 6)

    def iso(x, y, z):
        return (x - y) * cos30, (x + y) * sin30 - z

    c = SvgCanvas(width=760, height=560)
    flat: dict[str, list] = {}
    all_u, all_v = [], []
    for name, pts in series.items():
        uv = [iso(p[1], p[2], p[3]) for p in pts]
        flat[name] = uv
        all_u.extend(u for u, _ in uv)
        all_v.extend(v for _, v in uv)
    ax = Axes(c, (min(all_u), max(all_u)), (min(all_v), max(all_v)),
              "Vehicle trajectories (isometric)", "east-west [m]", "elevation [m]")
    for i, (name, uv) in enumerate(sorted(flat.items())):
        color = _COLORS[i % len(_COLORS)]
        ax.plot([u for u, _ in uv], [v for _, v in uv], color)
        c.text(ax.x1 - 8, ax.y0 + 14 * (i + 1), name, size=10, anchor="end", color=color)
    return c, header, rows


def pixel_error(log: SimLog) -> tuple[SvgCanvas, list, list]:
    """Grabber's filtered ball pixel offset from the image center."""
    grabber = log.grabber
    gid, intr = grabber["id"], grabber["camera"]
    cx, cy = intr["width"] / 2.0, intr["height"] / 2.0
    vision = [r for r in log.iter_kind("vision") if r["drone"] == gid]
    if not vision:
        raise _Unplottable("log contains no 'vision' records")
    rows = []
    for r in vision:
        tb = r["tracks"]["ball"]
        if tb["status"] != "uninitialized":
            rows.append((r["t"], tb["x"] - cx, tb["y"] - cy))
    if not rows:
        raise _Unplottable("the grabber never tracked the ball")
    header = ["t", "x_error_px", "y_error_px"]
    _finite(header, rows)

    c = SvgCanvas()
    ts = [r[0] for r in rows]
    lo = min(min(r[1] for r in rows), min(r[2] for r in rows))
    hi = max(max(r[1] for r in rows), max(r[2] for r in rows))
    ax = Axes(c, (min(ts), max(ts)), (lo * 1.05 - 1, hi * 1.05 + 1),
              "Ball pixel error (grabber)", "time [s]", "offset [px]")
    ax.plot(ts, [r[1] for r in rows], _COLORS[0])
    ax.plot(ts, [r[2] for r in rows], _COLORS[1])
    c.text(ax.x1 - 8, ax.y0 + 14, "x - W/2", size=10, anchor="end", color=_COLORS[0])
    c.text(ax.x1 - 8, ax.y0 + 28, "y - H/2", size=10, anchor="end", color=_COLORS[1])
    return c, header, rows


def phase_timeline(log: SimLog) -> tuple[SvgCanvas, list, list]:
    """Contiguous mission-phase bands per drone."""
    verdict = log.verdict_record
    t_end = verdict["t_end"] if verdict else None
    drones = [d["id"] for d in log.header["config"]["drones"]]
    bands: dict[str, list] = {d: [] for d in drones}
    current = {d: ("idle", 0.0) for d in drones}
    transitions = list(log.iter_kind("phase"))
    if not transitions:
        raise _Unplottable("log contains no 'phase' records")
    for r in transitions:
        phase, t0 = current[r["drone"]]
        bands[r["drone"]].append((phase, t0, r["t"]))
        current[r["drone"]] = (r["to"], r["t"])
    for d, (phase, t0) in current.items():
        bands[d].append((phase, t0, t_end if t_end is not None else t0))
    rows = [(d, *b) for d in drones for b in bands[d]]
    header = ["drone", "phase", "t_start", "t_end"]
    _finite(header, rows)

    c = SvgCanvas(height=120 + 70 * len(drones))
    tmax = max(b[2] for d in drones for b in bands[d])
    ax = Axes(c, (0.0, tmax), (0.0, float(len(drones))),
              "Mission phases", "time [s]", "")
    for i, d in enumerate(drones):
        yc0 = ax.py(i + 0.8)
        yc1 = ax.py(i + 0.2)
        for phase, t0, t1 in bands[d]:
            if t1 <= t0:
                continue
            c.rect(ax.px(t0), yc0, ax.px(t1) - ax.px(t0), yc1 - yc0,
                   fill=_PHASE_COLORS.get(phase, "#999999"), stroke="#666")
        c.text(ax.x0 - 7, (yc0 + yc1) / 2 + 3, d, size=10, anchor="end")
    legend_x = ax.x0
    for j, (phase, color) in enumerate(_PHASE_COLORS.items()):
        x = legend_x + 68 * (j % 5)
        y = ax.y1 + 38 + 12 * (j // 5)
        c.rect(x, y - 8, 9, 9, fill=color, stroke="#666")
        c.text(x + 12, y, phase, size=8)
    return c, header, rows


PLOT_KINDS = {
    "depth_profile": depth_profile,
    "trajectory_3d": trajectory_3d,
    "pixel_error": pixel_error,
    "phase_timeline": phase_timeline,
}


def render_plot(kind: str, log: SimLog, out_path) -> tuple[str, str]:
    """Write the CSV sidecar, then the SVG; returns both paths.

    A log that lacks a field its plot kind reads, holds one of the wrong
    type or length, holds a plotted number that is not finite, or holds
    nothing the kind can draw raises ValueError naming the kind, and no
    file is written.
    """
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind '{kind}' (choose from {sorted(PLOT_KINDS)})")
    svg = str(out_path)
    if not svg.endswith(".svg"):
        svg += ".svg"
    sidecar = svg[:-4] + ".csv"
    try:
        canvas, header, rows = PLOT_KINDS[kind](log)
    except KeyError as e:
        raise ValueError(f"{kind}: log is missing field {e}") from e
    except (TypeError, IndexError, AttributeError) as e:
        raise ValueError(f"{kind}: log field of the wrong type: {e}") from e
    except _Unplottable as e:
        raise ValueError(f"{kind}: {e}") from None
    write_csv(sidecar, header, rows)
    with open(svg, "w", encoding="utf-8") as fh:
        fh.write(canvas.render())
    return svg, sidecar
