"""Table-driven figure declarations and their markdown tables.

Every figure of the evaluation is one :class:`Figure`: the ``FluidSpec``
sweep it runs, how a result frame becomes display rows (paper reference
cells included), the table it prints, and the checks its numbers must
pass. ``jobs/run_figure.py`` runs any figure; the figure test and
benchmark both evaluate the same checks.
"""
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple


def table(title: str, rows: list[dict], columns: list[str]) -> str:
    """Render a GitHub-markdown table with a title header."""
    out = [f"### {title}", ""]
    out.append("| " + " | ".join(columns) + " |")
    out.append("|" + "|".join("---" for _ in columns) + "|")
    for r in rows:
        out.append("| " + " | ".join(str(r.get(c, "")) for c in columns) + " |")
    return "\n".join(out) + "\n"


class Check(NamedTuple):
    """One assertion on a figure's sweep result: ``holds(value(pdf))``."""

    label: str
    value: Callable[[Any], float]
    holds: Callable[[float], bool]


def n_rows(n: int) -> Check:
    """The sweep returned one row for each of the figure's ``n`` specs."""
    return Check("result rows", len, lambda v: v == n)


@dataclass(frozen=True)
class Figure:
    """A figure: sweep ``specs()``, show ``rows(pdf)``, assert ``checks``."""

    title: str
    specs: Callable[[], list]
    rows: Callable[[Any], list[dict]]
    columns: list[str]
    checks: tuple[Check, ...]

    def table(self, pdf) -> str:
        return table(self.title, self.rows(pdf), self.columns)

    def check(self, pdf) -> dict[str, float]:
        """Each check's measured value by label; raises naming every
        check that fails."""
        values = {c.label: float(c.value(pdf)) for c in self.checks}
        failed = [f"{c.label} = {values[c.label]}" for c in self.checks
                  if not c.holds(values[c.label])]
        if failed:
            raise AssertionError(f"{self.title}: " + "; ".join(failed))
        return values
