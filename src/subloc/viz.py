"""DOT export for sublocale coframes.

Node names ``S<k>`` match the indices used everywhere else (reports,
subcolocale bitmasks, witnesses); labels list the member elements and
whether the node is an open, a closed, or fitted.
"""

from __future__ import annotations

from .bits import bits
from .sublocales import SublocaleCoframe


def _annotations(sl: SublocaleCoframe, i: int) -> str:
    notes = [f"open({a})" for a, idx in enumerate(sl.open_index) if idx == i]
    is_open = bool(notes)
    notes += [f"closed({a})" for a, idx in enumerate(sl.closed_index) if idx == i]
    if sl.fit(i) == i and not is_open:
        notes.append("fitted")
    return " ".join(notes)


def hasse_dot(sl: SublocaleCoframe, name: str = "sublocales") -> str:
    """The Hasse diagram of the coframe as a DOT digraph, edges upward."""
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for i, m in enumerate(sl.elems):
        members = ",".join(str(e) for e in bits(m))
        notes = _annotations(sl, i)
        label = f"S{i} = {{{members}}}"
        if notes:
            label += f"\\n{notes}"
        lines.append(f'  S{i} [label="{label}"];')
    for i, j in sorted(sl.covers()):
        lines.append(f"  S{i} -> S{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
