"""Outside-in tracing: timing wrappers around the package's module-level
functions, installed from the benchmark and removed again afterwards.

Every wrapped call records a span (name, start, end, parent span, iteration
id).  Spans are kept in memory and written out when the run ends.  A span's
self time is its duration minus the durations of its child spans; calls are
sequential, so children never overlap.  Nothing inside the package changes:
a wrapper replaces the attribute a caller looks the function up through
(e.g. ``oqamcpr.cli.simulate_lock``, because ``cli`` imported the name).
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# span name -> the (module, attribute) pairs through which callers reach it
WRAPPED = {
    "cli.run_scenario": [("oqamcpr.cli", "run_scenario")],
    "config.validate_config": [("oqamcpr.cli", "validate_config"), ("oqamcpr.config", "validate_config")],
    "cpr.simulate_lock": [("oqamcpr.cli", "simulate_lock")],
    "channel.one_pole_lowpass": [("oqamcpr.cpr", "one_pole_lowpass")],
    "channel.received_trace": [("oqamcpr.cli", "received_trace")],
    "ber.snr_sweep": [("oqamcpr.cli", "snr_sweep")],
    "ber.required_snr_db": [("oqamcpr.ber", "required_snr_db")],
    "ber.semi_analytic_ser": [("oqamcpr.ber", "semi_analytic_ser")],
    "ber.quad_nodes": [("oqamcpr.ber", "roots_legendre")],
    "ber.monte_carlo_ber": [("oqamcpr.ber", "monte_carlo_ber")],
    "analysis.bode_metrics": [("oqamcpr.analysis", "bode_metrics"), ("oqamcpr.phasenoise", "bode_metrics")],
    "analysis.scale_to_closed_loop_bandwidth": [
        ("oqamcpr.analysis", "scale_to_closed_loop_bandwidth"),
        ("oqamcpr.config", "scale_to_closed_loop_bandwidth"),
    ],
    "phasenoise.total_variance": [("oqamcpr.phasenoise", "total_variance")],
    "reports.write_csv": [("oqamcpr.cli", "write_csv")],
    "reports.read_csv": [("oqamcpr.svgplot", "read_csv")],
    "svgplot.emit_svg": [("oqamcpr.cli", "emit_svg")],
}


class Tracer:
    """Span and counter recorder for one process.

    ``install()`` swaps the wrappers in, ``uninstall()`` restores the
    originals.  Counts are recorded at the same boundaries as the spans:
    loop blocks from each ``LockReport``, SNR points from each sweep, Monte
    Carlo symbols from each oracle call and rows handed to ``write_csv``.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, iteration]
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.iteration = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, targets in WRAPPED.items():
            original = None
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                original = original or getattr(module, attr)
                self._originals.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _count(self, key: str, n: int) -> None:
        self.counts[self.iteration][key] += n

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name == "ber.monte_carlo_ber" else None

        def wrapper(*args, **kwargs):
            if name == "reports.write_csv":
                args = (*args[:2], self._counted_rows(args[2]), *args[3:])
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = [name, 0.0, 0.0, parent, self.iteration]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if name == "cpr.simulate_lock":
                self._count("cpr.blocks", len(out.time_s))
            elif name == "ber.snr_sweep":
                self._count("ber.snr_points", len(out.snr_db))
            elif name == "ber.monte_carlo_ber":
                self._count("ber.mc_symbols", signature.bind(*args, **kwargs).arguments["num_symbols"])
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_rows(self, rows):
        for row in rows:
            self._count("reports.csv_rows", 1)
            yield row

    def summary(self, iteration: int) -> dict[str, float]:
        """Per-name call count, inclusive and self seconds for one iteration,
        plus the counts and the span-tree counts derived from them."""
        child_s: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[4] == iteration and span[3] >= 0:
                child_s[span[3]] += span[2] - span[1]
        out: dict[str, float] = defaultdict(float)
        for index, (name, start, end, parent, it) in enumerate(self.spans):
            if it != iteration:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - child_s[index]
            if name == "ber.semi_analytic_ser" and self._inside(parent, "ber.required_snr_db"):
                out["ber.required_snr_db.ser_calls_total"] += 1
        out["trace.spans"] = sum(1 for span in self.spans if span[4] == iteration)
        out.update(self.counts[iteration])
        return dict(out)

    def _inside(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def write(self, path: Path) -> None:
        """All spans as one JSON document, written once at the end of a run."""
        path.write_text(
            json.dumps(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "iteration"],
                    "spans": self.spans,
                    "counts": {str(k): dict(v) for k, v in self.counts.items()},
                }
            )
        )
