"""Dependency-free SVG figure rendering for the benchmark outputs.

The figure benches write ASCII bars (readable in a terminal diff) *and*
SVG charts with the visual shape of the thesis's figures 5.2-5.5: one
bar per user, deploys visibly taller than attaches, spikes standing
out.  Pure string templating -- no plotting library needed.
"""

from __future__ import annotations

from xml.sax.saxutils import escape

BAR_COLOR = "#4472c4"
DEPLOY_COLOR = "#c44444"
WIDTH = 900
HEIGHT = 360
MARGIN = 48
BAR_GAP = 4


def render_svg_bars(title: str, series: list[tuple[str, float]], highlight: set[str] | None = None) -> str:
    """Render a per-user bar chart of seconds as an SVG document string.

    ``highlight`` names bars drawn in the deploy colour (the thesis's
    charts make the deployers visually obvious).
    """
    if not series:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">'
            f'<text x="10" y="20">{escape(title)} (no data)</text></svg>'
        )
    highlight = highlight or set()
    peak = max(value for _, value in series) or 1.0
    plot_width = WIDTH - 2 * MARGIN
    plot_height = HEIGHT - 2 * MARGIN
    bar_width = max(plot_width / len(series) - BAR_GAP, 2.0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="22" text-anchor="middle" font-size="15">{escape(title)}</text>',
        # y axis with four gridlines
    ]
    for tick in range(5):
        value = peak * tick / 4
        y = HEIGHT - MARGIN - plot_height * tick / 4
        parts.append(
            f'<line x1="{MARGIN}" y1="{y:.1f}" x2="{WIDTH - MARGIN}" y2="{y:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN - 6}" y="{y + 4:.1f}" text-anchor="end">{value:.0f}s</text>'
        )
    for index, (label, value) in enumerate(series):
        bar_height = plot_height * value / peak
        x = MARGIN + index * (bar_width + BAR_GAP)
        y = HEIGHT - MARGIN - bar_height
        color = DEPLOY_COLOR if label in highlight else BAR_COLOR
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_width:.1f}" height="{bar_height:.1f}" '
            f'fill="{color}"><title>{escape(label)}: {value:.2f}s</title></rect>'
        )
        if len(series) <= 40:
            parts.append(
                f'<text x="{x + bar_width / 2:.1f}" y="{HEIGHT - MARGIN + 14}" '
                f'text-anchor="middle" font-size="9">{escape(label.split("-")[-1])}</text>'
            )
    parts.append("</svg>")
    return "".join(parts)


def figure_svg(title: str, result) -> str:
    """SVG for a :class:`~repro.bench.simulation.SimulationResult`."""
    deployers = {timing.name for timing in result.deploys()}
    return render_svg_bars(title, result.per_user_series(), highlight=deployers)
