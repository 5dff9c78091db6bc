"""Tabular result containers for the experiment API.

:class:`SweepTable` is the classic labelled 2-D table the analysis sweeps
have always returned (it moved here from ``repro.analysis``, which still
re-exports it).  :class:`ResultFrame` is the typed flat table an
:class:`~repro.api.plan.ExperimentPlan` produces: one row per cell, a
fixed column vocabulary, CSV/JSON export, and a first-appearance-order
``pivot`` back into a :class:`SweepTable`.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path

__all__ = ["SweepTable", "ResultFrame", "RESULT_COLUMNS"]


@dataclass(frozen=True)
class SweepTable:
    """A labelled table: ``rows[i][j]`` is the cell for (index[i], columns[j])."""

    name: str
    index: tuple
    columns: tuple
    rows: tuple

    def as_dict(self) -> dict:
        return {
            idx: dict(zip(self.columns, row))
            for idx, row in zip(self.index, self.rows)
        }

    def column(self, col) -> list:
        j = self.columns.index(col)
        return [row[j] for row in self.rows]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        widths = [
            max(len(str(c)), *(len(f"{row[j]:.4g}") for row in self.rows))
            for j, c in enumerate(self.columns)
        ]
        head = " " * 8 + "  ".join(
            str(c).rjust(w) for c, w in zip(self.columns, widths)
        )
        lines = [self.name, head]
        for idx, row in zip(self.index, self.rows):
            lines.append(
                f"{str(idx):>8}"
                + "  "
                + "  ".join(f"{x:.4g}".rjust(w) for x, w in zip(row, widths))
            )
        return "\n".join(lines)


#: Fixed column vocabulary of plan result rows.  Cells leave fields they
#: do not measure as ``None``; the frame keeps the schema stable so rows
#: from heterogeneous cells align.
RESULT_COLUMNS = (
    "algorithm",
    "n",
    "v",
    "p",
    "sigma",
    "H",
    "machine",
    "D",
    "topology",
    "policy",
    "mode",
    "arbiter",
    "routed_time",
    "routed_over_dbsp",
    "max_congestion",
    "max_dilation",
    "sim_cycles",
    "sim_over_cd",
    "correct",
    "supersteps",
    "messages",
)


@dataclass(frozen=True)
class ResultFrame:
    """One row per executed plan cell, in cell order.

    ``columns`` always starts with :data:`RESULT_COLUMNS`; rows are plain
    value tuples so frames are cheap to ship across worker processes and
    trivially serialisable.  ``meta`` is a flat (key, value) tuple of
    run-level facts — the requested executor, the backend that
    *effectively* ran the cells (``executor_effective`` differs from
    ``executor`` when a backend degraded, with the reason alongside),
    result-store hit counts, and the stage-wave dedup accounting
    (``dag_stages_planned`` / ``_unique`` / ``_executed`` /
    ``_cache_hit``); read it as a dict via :attr:`metadata`.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    name: str = "results"
    meta: tuple = ()

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def metadata(self) -> dict:
        """The run-level ``meta`` pairs as a plain dict."""
        return dict(self.meta)

    def as_dicts(self, *, drop_none: bool = False) -> list[dict]:
        """Rows as dicts (optionally dropping unmeasured fields)."""
        out = []
        for row in self.rows:
            d = dict(zip(self.columns, row))
            if drop_none:
                d = {k: v for k, v in d.items() if v is not None}
            out.append(d)
        return out

    def column(self, name: str) -> list:
        j = self.columns.index(name)
        return [row[j] for row in self.rows]

    def pivot(
        self, index: str, columns: str, values: str, *, name: str | None = None
    ) -> SweepTable:
        """Reshape into a :class:`SweepTable`.

        Index and column labels appear in first-appearance (cell) order,
        so a plan generated index-major reproduces the classic sweep
        tables' layout exactly.  Duplicate (index, column) pairs keep the
        first value; missing cells raise.
        """
        ij = self.columns.index(index)
        cj = self.columns.index(columns)
        vj = self.columns.index(values)
        idx_order: list = []
        col_order: list = []
        grid: dict[tuple, object] = {}
        for row in self.rows:
            i, c = row[ij], row[cj]
            if i not in idx_order:
                idx_order.append(i)
            if c not in col_order:
                col_order.append(c)
            grid.setdefault((i, c), row[vj])
        try:
            rows = tuple(
                tuple(grid[(i, c)] for c in col_order) for i in idx_order
            )
        except KeyError as missing:
            raise ValueError(f"pivot is missing cell {missing.args[0]!r}") from None
        return SweepTable(
            name if name is not None else self.name,
            tuple(idx_order),
            tuple(col_order),
            rows,
        )

    def to_csv(self, path: str | Path | None = None) -> str:
        """Serialise to CSV (and write it to ``path`` when given)."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.columns)
        writer.writerows(self.rows)
        text = buf.getvalue()
        if path is not None:
            Path(path).write_text(text)
        return text

    def to_json(self, path: str | Path | None = None) -> str:
        """Serialise to JSON records (and write to ``path`` when given)."""
        doc = {"name": self.name, "rows": self.as_dicts(drop_none=True)}
        if self.meta:
            doc["meta"] = self.metadata
        text = json.dumps(doc, indent=2)
        if path is not None:
            Path(path).write_text(text + "\n")
        return text

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        keep = [
            j
            for j in range(len(self.columns))
            if any(row[j] is not None for row in self.rows)
        ]
        cells = [[_fmt(row[j]) for j in keep] for row in self.rows]
        heads = [str(self.columns[j]) for j in keep]
        widths = [
            max(len(h), max((len(r[j]) for r in cells), default=0))
            for j, h in enumerate(heads)
        ]
        lines = [self.name, "  ".join(h.rjust(w) for h, w in zip(heads, widths))]
        for r in cells:
            lines.append("  ".join(x.rjust(w) for x, w in zip(r, widths)))
        return "\n".join(lines)


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, float):
        return f"{x:.4g}"
    return str(x)
