"""Deterministic SVG phase portraits and model drawings.

Phase diagrams show the graph of a PL map against the diagonal with its
wandering intervals marked on the axis: right arrows on R intervals, left
arrows on L intervals.  Model drawings show the embedded polylines with
each arc's wandering intervals colored by orientation.  Output is plain
string assembly with fixed number formatting, so identical inputs give
byte-identical files.
"""

from __future__ import annotations

from fractions import Fraction

from .continuum import YHomeo, YModel
from .plmap import Orientation, PLHomeo, wandering_intervals

COLORS = {Orientation.R: "#c0392b", Orientation.L: "#2e6da4"}
GRAPH_COLOR = "#111111"
GRID_COLOR = "#bbbbbb"

SIZE = 480
PAD = 24


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _polyline(points: list[tuple[float, float]], stroke: str, width: float) -> str:
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
    return f'<polyline fill="none" stroke="{stroke}" stroke-width="{width}" points="{pts}"/>'


def _frame(parts: list[str]) -> str:
    header = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">'
    )
    return "\n".join([header, *parts, "</svg>"]) + "\n"


def render_phase_diagram(f: PLHomeo) -> str:
    lo, hi = f.lo, f.hi

    # each point is placed by its exact ratio (x - lo)/(hi - lo), and only
    # that ratio is floated, so a domain of any size or width draws
    def tx(x: Fraction) -> float:
        return PAD + float((x - lo) / (hi - lo)) * (SIZE - 2 * PAD)

    def ty(y: Fraction) -> float:
        return SIZE - PAD - float((y - lo) / (hi - lo)) * (SIZE - 2 * PAD)

    parts = [
        f'<rect x="{PAD}" y="{PAD}" width="{SIZE - 2 * PAD}" height="{SIZE - 2 * PAD}" '
        f'fill="white" stroke="{GRID_COLOR}"/>',
        _polyline([(tx(lo), ty(lo)), (tx(hi), ty(hi))], GRID_COLOR, 1.0),
        _polyline(
            [(tx(x), ty(y)) for x, y in zip(f.breakpoints, f.values)],
            GRAPH_COLOR,
            2.0,
        ),
    ]
    axis_y = ty(lo)
    for iv in wandering_intervals(f):
        a, b = tx(iv.a), tx(iv.b)
        color = COLORS[iv.orientation]
        parts.append(_polyline([(a, axis_y), (b, axis_y)], color, 3.0))
        head = max(2.0, min(6.0, (b - a) / 3))
        if iv.orientation is Orientation.R:
            tip, base = b, b - head
        else:
            tip, base = a, a + head
        parts.append(
            f'<polygon fill="{color}" points="{_fmt(tip)},{_fmt(axis_y)} '
            f'{_fmt(base)},{_fmt(axis_y - head)} {_fmt(base)},{_fmt(axis_y + head)}"/>'
        )
    return _frame(parts)


def render_model(model: YModel, g: YHomeo | None) -> str:
    xs: list[float] = []
    ys: list[float] = []
    for a in model.arcs:
        for px, py in a.polyline:
            xs.append(float(px))
            ys.append(float(py))
    x0, x1 = min(xs) - 0.1, max(xs) + 0.1
    y0, y1 = min(ys) - 0.1, max(ys) + 0.1
    scale = (SIZE - 2 * PAD) / max(x1 - x0, y1 - y0)

    def tx(x: float) -> float:
        return PAD + (x - x0) * scale

    def ty(y: float) -> float:
        return SIZE - PAD - (y - y0) * scale

    def draw(points, stroke, width) -> str:
        return _polyline([(tx(float(px)), ty(float(py))) for px, py in points], stroke, width)

    parts = []
    for a in model.arcs:
        parts.append(draw(a.polyline, GRID_COLOR, 1.5))
        if g is not None:
            for iv in wandering_intervals(g.map_for(a.id)):
                parts.append(draw(a.sub_polyline(iv.a, iv.b), COLORS[iv.orientation], 3.0))
    for vid in sorted(model.vertices):
        px, py = model.vertices[vid]
        parts.append(
            f'<circle cx="{_fmt(tx(float(px)))}" cy="{_fmt(ty(float(py)))}" r="2.5" '
            f'fill="{GRAPH_COLOR}"/>'
        )
    return _frame(parts)
