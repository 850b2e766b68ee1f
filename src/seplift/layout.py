"""Variable-count vectors and the bipartite layout graph of an implication.

For a canonical implication, Pi(i) counts assertion-variable occurrences in
conjunct i and Omega(j) counts them in disjunct j, as vectors over the sorted
variable list.  The layout graph has one edge per (conjunct, disjunct) pair:
solid when Pi(i) >= Omega(j) pointwise, labeled with the variables where the
count strictly drops; dashed otherwise, labeled with the variables where the
count strictly rises.  The lifting criteria read nothing but this graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .normalize import ImplicationForm

__all__ = ["Edge", "LayoutGraph", "compute_layout", "to_dot"]


@dataclass(frozen=True, slots=True)
class Edge:
    solid: bool
    labels: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class LayoutGraph:
    variables: tuple[str, ...]
    pi: tuple[tuple[int, ...], ...]
    omega: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[Edge, ...], ...]  # indexed [i][j]

    @property
    def conjunct_count(self) -> int:
        return len(self.pi)

    @property
    def disjunct_count(self) -> int:
        return len(self.omega)

    def edge(self, i: int, j: int) -> Edge:
        return self.edges[i][j]

    def conjunct_empty(self, i: int) -> bool:
        return not any(self.pi[i])

    def disjunct_empty(self, j: int) -> bool:
        return not any(self.omega[j])

    @property
    def empty_conjuncts(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.pi)) if self.conjunct_empty(i))

    @property
    def empty_disjuncts(self) -> tuple[int, ...]:
        return tuple(j for j in range(len(self.omega)) if self.disjunct_empty(j))


def compute_layout(form: ImplicationForm) -> LayoutGraph:
    variables = form.variables
    pi = tuple([tuple(map(c.avars.count, variables)) for c in form.conjuncts])
    omega = tuple([tuple(map(d.avars.count, variables)) for d in form.disjuncts])
    edges = []
    for row in pi:
        edge_row = []
        for col in omega:
            rises, drops = [], []
            for v, p, o in zip(variables, row, col):
                if p < o:
                    rises.append(v)
                elif p > o:
                    drops.append(v)
            edge_row.append(Edge(False, tuple(rises)) if rises else Edge(True, tuple(drops)))
        edges.append(tuple(edge_row))
    return LayoutGraph(variables, pi, omega, tuple(edges))


def _side_label(counts: tuple[int, ...], variables: tuple[str, ...]) -> str:
    parts = []
    for var, count in zip(variables, counts):
        parts.extend([var] * count)
    return "*".join(parts) if parts else "(empty)"


def to_dot(g: LayoutGraph) -> str:
    """Render the layout as a DOT graph: conjuncts left, disjuncts right.

    Solid/dashed styles mirror the edge kinds; empty disjuncts and conjuncts
    are drawn as diamonds.
    """
    lines = ["graph layout {", "  rankdir=LR;", "  node [shape=circle];"]
    for i in range(g.conjunct_count):
        shape = "diamond" if g.conjunct_empty(i) else "circle"
        text = _side_label(g.pi[i], g.variables)
        lines.append(f'  c{i} [shape={shape}, label="C{i + 1}: {text}"];')
    for j in range(g.disjunct_count):
        shape = "diamond" if g.disjunct_empty(j) else "circle"
        text = _side_label(g.omega[j], g.variables)
        lines.append(f'  d{j} [shape={shape}, label="D{j + 1}: {text}"];')
    lines.append("  { rank=source; " + " ".join(f"c{i};" for i in range(g.conjunct_count)) + " }")
    lines.append("  { rank=sink; " + " ".join(f"d{j};" for j in range(g.disjunct_count)) + " }")
    for i in range(g.conjunct_count):
        for j in range(g.disjunct_count):
            edge = g.edge(i, j)
            style = "solid" if edge.solid else "dashed"
            label = ",".join(edge.labels)
            lines.append(f'  c{i} -- d{j} [style={style}, label="{label}"];')
    lines.append("}")
    return "\n".join(lines)
