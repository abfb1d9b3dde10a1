"""In-memory spans for the traced benchmark run.

`Tracer` replaces igsaft's module-level functions, where the package looks
them up, with wrappers that record a span (name, start, end, parent) and a
few counts taken from the call's result. Nothing under `src/`
changes, and the wrappers return what the wrapped function returns, so a
traced fit computes exactly what an untraced one does. A traced name that no
longer exists raises, so that a renamed or merged function fails the run
instead of reporting a layer as taking no time.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _table_pairs(out) -> dict:
    # KMTables.w is (target rows, training rows): one dense kernel entry each
    return {"pairs": int(out.w.size)}


def _moment_stats(out) -> dict:
    return {"clip_count": out.stats.clip_count, "empty_risk_sets": out.stats.empty_risk_sets}


# (module, attribute path, counts taken from the result)
TRACED = (
    ("igsaft.pipeline", "screen_interactions", lambda out: {"m_selected": out.selected.m}),
    ("igsaft.pipeline", "fit_all", None),
    ("igsaft.pipeline", "build_moment_matrix", _moment_stats),
    ("igsaft.pipeline", "fit_gel", None),
    ("igsaft.pipeline", "relevance_f_test", None),
    ("igsaft.pipeline", "overid_test", None),
    ("igsaft.pipeline", "fit_families", None),
    ("igsaft.moments", "aipcw_transform", None),
    ("igsaft.moments", "fold_g_values", None),
    ("igsaft.gel", "minimize_beta", None),
    ("igsaft.gel", "variance", None),
    ("igsaft.gel", "inner_lambda", lambda out: {"converged": int(out[2])}),
    ("igsaft.nuisance", "CensorModel.tables", _table_pairs),
    ("igsaft.simulate", "generate", None),
    ("igsaft.simulate", "aft_benchmark", None),
    ("igsaft.simulate", "calibrate_censoring", None),
)


def span_name(module: str, path: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{path}"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while entered; restores the wrapped names on exit.
    May be entered again; spans accumulate."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        """A span around the benchmark's own call into the package."""
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._open.pop()
            self.spans[idx].end = time.perf_counter()

    def _wrap(self, name: str, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
            if counts is not None:
                sp.counts.update(counts(out))
            return out
        return traced

    def __enter__(self) -> "Tracer":
        try:
            for module, path, counts in TRACED:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr, None)
                if fn is None:
                    raise AttributeError(f"traced name {module}.{path} is missing; "
                                         "update the benchmark's TRACED table")
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(span_name(module, path), fn, counts))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its children cover; children
        of one span run one after another, so their durations add up."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.seconds
        return out

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "counts": s.counts} for s in self.spans]
