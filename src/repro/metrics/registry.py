"""Prometheus-style metrics: Counter / Gauge / Histogram + registry.

One :class:`MetricsRegistry` per simulated machine is the single source
of truth for the per-layer counters that used to live in scattered stats
dataclasses.  Stats facades (``DeviceStats``, ``CacheStats``) create
their metrics here, so the harness can read any layer through one
``snapshot()`` — and subsystems that keep plain attribute counters
(fault injectors, approach degradation counters) publish through
registered *collectors*, the same split Prometheus client libraries use.

Histograms use fixed log2 buckets: bucket ``i`` holds observations in
``(base * 2**(i-1), base * 2**i]``.  Memory is O(bucket count) no matter
how many observations arrive — the property that replaces the unbounded
per-request latency list — and percentile estimates come from the
cumulative bucket counts (upper-bound rule, clamped to the observed max).
"""

from __future__ import annotations

import threading
from typing import Callable

#: The Content-Type a Prometheus scraper expects for the text format.
TEXT_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def escape_help(text: str) -> str:
    """Escape a ``# HELP`` string per the text-exposition spec:
    backslash and newline (quotes are legal in HELP text)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def escape_label_value(text: str) -> str:
    """Escape a label value per the text-exposition spec: backslash,
    double quote, and newline."""
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


class MetricError(ValueError):
    """Registry misuse: name reused with a different type, bad amount."""


class Metric:
    """Base: a named instrument owned by one registry."""

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help

    def reset(self) -> None:
        raise NotImplementedError

    def sample(self) -> dict[str, float]:
        """Flat name -> value pairs for :meth:`MetricsRegistry.snapshot`."""
        raise NotImplementedError


class Counter(Metric):
    """Monotonically non-decreasing count (int- or seconds-valued)."""

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r}: negative increment")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0

    def sample(self) -> dict[str, float]:
        return {self.name: self._value}


class Gauge(Metric):
    """A value that can go up and down (e.g. memory in use)."""

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self._value: float = 0

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1) -> None:
        self._value += amount

    def dec(self, amount: float = 1) -> None:
        self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0

    def sample(self) -> dict[str, float]:
        return {self.name: self._value}


class Histogram(Metric):
    """Fixed log2-bucket histogram with bounded memory.

    ``bounds[i] = base * 2**i``; an observation lands in the first bucket
    whose bound is >= the value, with one overflow bucket past the last
    bound.  ``percentile(p)`` returns the upper bound of the bucket
    containing the p-th percentile observation (clamped to the observed
    maximum) — the standard Prometheus-side estimate.
    """

    def __init__(self, name: str, help: str = "", base: float = 1e-6,
                 n_buckets: int = 40):
        if base <= 0 or n_buckets < 1:
            raise MetricError(f"histogram {self.name if False else name!r}: "
                              f"bad bucket layout")
        super().__init__(name, help)
        self.base = base
        self.bounds = [base * (1 << i) for i in range(n_buckets)]
        self._counts = [0] * (n_buckets + 1)  # +1 = overflow bucket
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0
        #: Shared registry lock (set at registration): an observation
        #: updates five fields, so a concurrent scrape must not read a
        #: half-updated histogram.  Standalone histograms stay lock-free.
        self._lock: threading.RLock | None = None

    def observe(self, value: float) -> None:
        if value < 0:
            raise MetricError(f"histogram {self.name!r}: negative observation")
        lock = self._lock
        if lock is None:
            self._observe(value)
        else:
            with lock:
                self._observe(value)

    def _observe(self, value: float) -> None:
        self._counts[self._bucket_index(value)] += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def _bucket_index(self, value: float) -> int:
        if value <= self.bounds[0]:
            return 0
        if value > self.bounds[-1]:
            return len(self.bounds)
        lo, hi = 0, len(self.bounds) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    # -- reads -------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    def bucket_counts(self) -> list[int]:
        return list(self._counts)

    def percentile(self, p: float) -> float:
        """Estimate of the p-th percentile (p in [0, 100])."""
        if not 0 <= p <= 100:
            raise MetricError(f"percentile {p} outside [0, 100]")
        if self._count == 0:
            return 0.0
        rank = max(1, -(-self._count * p // 100))  # ceil, at least 1
        cumulative = 0
        for i, count in enumerate(self._counts):
            cumulative += count
            if cumulative >= rank:
                bound = (self.bounds[i] if i < len(self.bounds)
                         else self._max)
                return min(bound, self._max)
        return self._max  # pragma: no cover - cumulative covers count

    def reset(self) -> None:
        self._counts = [0] * len(self._counts)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = 0.0

    def sample(self) -> dict[str, float]:
        return {f"{self.name}_count": self._count,
                f"{self.name}_sum": self._sum}


class MetricsRegistry:
    """Named metric store with get-or-create semantics and collectors."""

    def __init__(self):
        self._metrics: dict[str, Metric] = {}
        self._collectors: list[Callable[[], dict[str, float]]] = []
        #: Guards aggregate reads (snapshot / text exposition) against
        #: concurrent histogram mutation — the serve plane scrapes from
        #: HTTP threads while the sweep thread flushes results.  RLock:
        #: histogram observes take the same lock, and a collector may
        #: legitimately read its own registry.
        self.lock = threading.RLock()

    # -- get-or-create factories -------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "", base: float = 1e-6,
                  n_buckets: int = 40) -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise MetricError(
                    f"{name!r} already registered as "
                    f"{type(existing).__name__}")
            return existing
        metric = Histogram(name, help, base=base, n_buckets=n_buckets)
        metric._lock = self.lock
        self._metrics[name] = metric
        return metric

    def _get_or_create(self, cls: type, name: str, help: str):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise MetricError(
                    f"{name!r} already registered as "
                    f"{type(existing).__name__}")
            return existing
        metric = cls(name, help)
        self._metrics[name] = metric
        return metric

    # -- access -------------------------------------------------------------
    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise MetricError(f"no metric named {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    # -- collectors ----------------------------------------------------------
    def register_collector(self,
                           collect: Callable[[], dict[str, float]]) -> None:
        """Publish externally-owned counters at snapshot time.

        Duplicate keys across collectors are *summed* — e.g. several
        approach instances of the same name each contribute their
        fallback counts.
        """
        self._collectors.append(collect)

    # -- aggregate reads ------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Every metric and collector flattened to name -> value.

        Taken under :attr:`lock`, so a snapshot from another thread can
        never observe a half-updated histogram mid-``observe``.
        """
        with self.lock:
            out: dict[str, float] = {}
            for metric in self._metrics.values():
                out.update(metric.sample())
            for collect in self._collectors:
                for key, value in collect().items():
                    out[key] = out.get(key, 0) + value
            return out

    def text_exposition(self) -> str:
        """The registry in Prometheus text-exposition format (0.0.4).

        Scrape-safe: the whole render happens under :attr:`lock` (a
        concurrent worker flush cannot tear a histogram), HELP text and
        label values are escaped per the spec, and collector-published
        series are included as untyped samples — serve it with
        :data:`TEXT_CONTENT_TYPE` and real scrapers parse it.
        """
        with self.lock:
            lines = []
            for name in self.names():
                metric = self._metrics[name]
                kind = type(metric).__name__.lower()
                if metric.help:
                    lines.append(f"# HELP {name} "
                                 f"{escape_help(metric.help)}")
                lines.append(f"# TYPE {name} {kind}")
                if isinstance(metric, Histogram):
                    cumulative = 0
                    for bound, count in zip(metric.bounds,
                                            metric.bucket_counts()):
                        cumulative += count
                        le = escape_label_value(f"{bound:g}")
                        lines.append(f'{name}_bucket{{le="{le}"}} '
                                     f"{cumulative}")
                    lines.append(f'{name}_bucket{{le="+Inf"}} '
                                 f"{metric.count}")
                    lines.append(f"{name}_sum {metric.sum:g}")
                    lines.append(f"{name}_count {metric.count}")
                else:
                    lines.append(f"{name} {metric.value:g}")
            collected: dict[str, float] = {}
            for collect in self._collectors:
                for key, value in collect().items():
                    collected[key] = collected.get(key, 0) + value
            for key in sorted(collected):
                if key in self._metrics:
                    continue  # already rendered as a typed series
                lines.append(f"# TYPE {key} untyped")
                lines.append(f"{key} {collected[key]:g}")
            return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        with self.lock:
            for metric in self._metrics.values():
                metric.reset()
