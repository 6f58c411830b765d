#!/usr/bin/env python3
"""Render the `pareto` section of a BENCH_explore.json as an SVG scatter.

Plots every measured candidate of the explorer report on the first two
swept objectives (task-clock vs. DMA traffic by default) and highlights
the non-dominated front: front members in orange, connected by the
staircase the front induces; dominated candidates in blue. Pure standard
library — no matplotlib required — so it runs anywhere the repo builds.

Usage:
    scripts/plot_pareto.py [BENCH_explore.json] [-o OUT.svg]

Colors/typography follow a CVD-validated palette (blue/orange pair,
ink-colored text).
"""

import argparse
import json
import math
import sys

# Validated palette (light mode): surface, ink, and the first two
# categorical slots of the reference instance.
SURFACE = "#fcfcfb"
INK = "#0b0b0b"
INK_MUTED = "#52514e"
GRID = "#e7e6e2"
DOMINATED = "#2a78d6"  # slot 1 (blue): measured, dominated
FRONT = "#eb6834"  # slot 2 (orange): the non-dominated front

WIDTH, HEIGHT = 720, 460
MARGIN = {"left": 86, "right": 24, "top": 52, "bottom": 64}


def fail(message: str) -> "sys.NoReturn":
    print(f"plot_pareto: {message}", file=sys.stderr)
    raise SystemExit(2)


def axis_metrics(pareto: dict) -> "tuple[str, str]":
    """The entry-metric keys of the first two objectives (clock vs.
    traffic when present, else whatever was swept)."""
    keys = {
        "clock": "task_clock_ms",
        "traffic": "dma_words",
        "transactions": "dma_transactions",
        "occupancy": "occupancy",
    }
    objectives = [o for o in pareto.get("objectives", []) if o in keys]
    if len(objectives) < 2:
        fail(
            "the pareto section names fewer than two plottable objectives "
            f"({pareto.get('objectives')}); sweep with e.g. --objectives clock,traffic"
        )
    return keys[objectives[0]], keys[objectives[1]]


AXIS_LABELS = {
    "task_clock_ms": "simulated task-clock [ms]",
    "dma_words": "DMA traffic [words]",
    "dma_transactions": "DMA transactions",
    "occupancy": "accelerator occupancy",
}


def nice_ticks(lo: float, hi: float, count: int = 5) -> "list[float]":
    """Round tick positions covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(count - 1, 1)
    magnitude = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 2.5, 5, 10):
        step = mult * magnitude
        if step >= raw:
            break
    start = math.floor(lo / step) * step
    ticks = []
    t = start
    while t <= hi + step * 0.5:
        ticks.append(round(t, 10))
        t += step
    return ticks


def fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:g}"


def render_svg(points: "list[dict]", x_key: str, y_key: str, title: str) -> str:
    xs = [p[x_key] for p in points]
    ys = [p[y_key] for p in points]
    x_ticks = nice_ticks(min(xs), max(xs))
    y_ticks = nice_ticks(min(ys), max(ys))
    x_lo, x_hi = x_ticks[0], x_ticks[-1]
    y_lo, y_hi = y_ticks[0], y_ticks[-1]
    plot_w = WIDTH - MARGIN["left"] - MARGIN["right"]
    plot_h = HEIGHT - MARGIN["top"] - MARGIN["bottom"]

    def sx(v: float) -> float:
        return MARGIN["left"] + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return MARGIN["top"] + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="system-ui, sans-serif">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="{SURFACE}"/>')
    out.append(
        f'<text x="{MARGIN["left"]}" y="24" fill="{INK}" font-size="15" '
        f'font-weight="600">{title}</text>'
    )

    # Recessive grid + tick labels (ink tokens, never series colors).
    for t in x_ticks:
        x = sx(t)
        out.append(
            f'<line x1="{x:.1f}" y1="{MARGIN["top"]}" x2="{x:.1f}" '
            f'y2="{MARGIN["top"] + plot_h}" stroke="{GRID}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{MARGIN["top"] + plot_h + 18}" fill="{INK_MUTED}" '
            f'font-size="11" text-anchor="middle">{fmt(t)}</text>'
        )
    for t in y_ticks:
        y = sy(t)
        out.append(
            f'<line x1="{MARGIN["left"]}" y1="{y:.1f}" x2="{MARGIN["left"] + plot_w}" '
            f'y2="{y:.1f}" stroke="{GRID}" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{MARGIN["left"] - 8}" y="{y + 4:.1f}" fill="{INK_MUTED}" '
            f'font-size="11" text-anchor="end">{fmt(t)}</text>'
        )
    out.append(
        f'<text x="{MARGIN["left"] + plot_w / 2:.0f}" y="{HEIGHT - 16}" fill="{INK_MUTED}" '
        f'font-size="12" text-anchor="middle">{AXIS_LABELS.get(x_key, x_key)}</text>'
    )
    out.append(
        f'<text x="20" y="{MARGIN["top"] + plot_h / 2:.0f}" fill="{INK_MUTED}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 20 {MARGIN["top"] + plot_h / 2:.0f})">'
        f"{AXIS_LABELS.get(y_key, y_key)}</text>"
    )

    # The front staircase: front members sorted by x, connected with a
    # 2px step line under the markers.
    front = sorted((p for p in points if p["front"]), key=lambda p: (p[x_key], p[y_key]))
    if len(front) > 1:
        path = f'M {sx(front[0][x_key]):.1f} {sy(front[0][y_key]):.1f}'
        for prev, cur in zip(front, front[1:]):
            path += f' H {sx(cur[x_key]):.1f} V {sy(cur[y_key]):.1f}'
        out.append(
            f'<path d="{path}" fill="none" stroke="{FRONT}" stroke-width="2" '
            f'stroke-opacity="0.55"/>'
        )

    # Dominated first so front markers sit on top; every marker gets a
    # 2px surface ring to survive overlaps.
    for p in sorted(points, key=lambda p: p["front"]):
        color = FRONT if p["front"] else DOMINATED
        r = 6 if p["front"] else 4.5
        out.append(
            f'<circle cx="{sx(p[x_key]):.1f}" cy="{sy(p[y_key]):.1f}" r="{r}" '
            f'fill="{color}" stroke="{SURFACE}" stroke-width="2"><title>'
            f"{p['id']}: {AXIS_LABELS.get(x_key, x_key)} {fmt(p[x_key])}, "
            f"{AXIS_LABELS.get(y_key, y_key)} {fmt(p[y_key])}</title></circle>"
        )

    # Direct labels on the front only (selective, not every point).
    if len(front) <= 6:
        for p in front:
            out.append(
                f'<text x="{sx(p[x_key]) + 9:.1f}" y="{sy(p[y_key]) - 7:.1f}" '
                f'fill="{INK}" font-size="10.5">{p["id"]}</text>'
            )

    # Legend (two series — always present, markers carry identity).
    lx = MARGIN["left"] + plot_w - 190
    out.append(f'<circle cx="{lx}" cy="40" r="6" fill="{FRONT}" stroke="{SURFACE}" stroke-width="2"/>')
    out.append(f'<text x="{lx + 11}" y="44" fill="{INK}" font-size="12">Pareto front</text>')
    out.append(
        f'<circle cx="{lx + 102}" cy="40" r="4.5" fill="{DOMINATED}" stroke="{SURFACE}" stroke-width="2"/>'
    )
    out.append(f'<text x="{lx + 113}" y="44" fill="{INK}" font-size="12">dominated</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "report",
        nargs="?",
        default="BENCH_explore.json",
        help="an explorer report (default: ./BENCH_explore.json)",
    )
    parser.add_argument("-o", "--out", default="pareto.svg", help="output SVG path")
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as err:
        fail(str(err))
    except json.JSONDecodeError as err:
        fail(f"{args.report}: {err}")

    if not isinstance(report, dict) or "pareto" not in report:
        fail("the report has no `pareto` section (run axi4mlir-explore --objectives ...)")
    x_key, y_key = axis_metrics(report["pareto"])
    points = []
    for entry in report.get("entries", []):
        metrics = entry.get("metrics", {})
        if x_key in metrics and y_key in metrics:
            points.append(
                {
                    "id": entry.get("id", "?"),
                    x_key: float(metrics[x_key]),
                    y_key: float(metrics[y_key]),
                    "front": bool(metrics.get("on_pareto_front", False)),
                }
            )
    if not points:
        fail("the explore report has no entries carrying both objective metrics")

    context = report.get("context", {})
    title = f"Pareto front — {context.get('space', report.get('name', 'explore'))}"
    svg = render_svg(points, x_key, y_key, title)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(svg)
    front_size = sum(1 for p in points if p["front"])
    print(f"wrote {args.out} ({len(points)} candidates, {front_size} on the front)")


if __name__ == "__main__":
    main()
