"""ASCII charts for experiment output.

The paper's figures are bar and line charts; these helpers render the
same data as monospace bar charts (plain and grouped) so `pytest
benchmarks/` output and sweep summaries can show shapes, not just
numbers.  README "Parallel sweeps" and ``docs/architecture.md`` say
where experiments and sweeps come from.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple


def bar_chart(items: Sequence[Tuple[str, float]], width: int = 50,
              title: Optional[str] = None, unit: str = "") -> str:
    """Horizontal bar chart; bars scale to the largest |value|.

    Negative values are rendered with ``<`` bars so sweeps "performance
    vs baseline (%)" read naturally.
    """
    if not items:
        raise ValueError("nothing to chart")
    label_width = max(len(label) for label, _ in items)
    peak = max(abs(value) for _, value in items) or 1.0
    lines = []
    if title:
        lines.append(title)
        lines.append("-" * len(title))
    for label, value in items:
        bar_len = int(round(abs(value) / peak * width))
        bar = ("<" if value < 0 else "#") * bar_len
        lines.append(f"{label:>{label_width}} | {bar} {value:.1f}{unit}")
    return "\n".join(lines)


def grouped_bar_chart(groups: "Dict[str, Sequence[Tuple[str, float]]]",
                      width: int = 40, title: Optional[str] = None,
                      unit: str = "") -> str:
    """Bar chart with one block of bars per group, on a shared scale.

    *groups* maps a group label (e.g. an allocation policy) to its
    ``(bar label, value)`` pairs (e.g. per-workload means).  All bars
    scale to the largest |value| across every group, so blocks compare
    against each other — the shape sweep summaries use for their
    per-policy breakdowns.
    """
    if not groups or not any(items for items in groups.values()):
        raise ValueError("nothing to chart")
    label_width = max(len(label)
                      for items in groups.values()
                      for label, _ in items)
    peak = max((abs(value)
                for items in groups.values()
                for _, value in items), default=0.0) or 1.0
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    for group_index, (group, items) in enumerate(groups.items()):
        if group_index:
            lines.append("")
        lines.append(f"{group}:")
        for label, value in items:
            bar_len = int(round(abs(value) / peak * width))
            bar = ("<" if value < 0 else "#") * bar_len
            lines.append(
                f"  {label:>{label_width}} | {bar} {value:.2f}{unit}")
    return "\n".join(lines)
