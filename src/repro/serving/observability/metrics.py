"""Dependency-free metrics: labeled families + Prometheus text exposition.

The serving stack's measurement substrate.  A :class:`MetricsRegistry`
holds counter/gauge/histogram *families*; each family owns labeled
*series* created on first use (``family.labels(priority="2").inc()``).
:meth:`MetricsRegistry.render_prometheus` emits the standard text
exposition format (``# HELP``/``# TYPE`` lines, escaped label values,
cumulative ``le`` histogram buckets with ``_sum``/``_count``), and
:class:`MetricsServer` serves it over plain stdlib HTTP so any
Prometheus-compatible scraper can watch a controller or ``serve-worker``
process -- no client library, no third-party dependency.

Design constraints, in order:

* **The store of record.**  A ``ServingController`` counts into its
  registry (a private one without ``metrics=``) and reads ``stats`` back
  from it (:meth:`Counter.values`), so a registry backs one controller.
* **Get-or-create registration.**  ``registry.counter(name, ...)``
  returns the existing family when one with the same type/labels is
  already registered (a long-lived ``serve-worker`` builds one servicer
  per cluster connection; each re-registers the same families) and
  raises :class:`~repro.exceptions.ValidationError` on a conflicting
  redefinition.
* **One lock.**  All mutation and rendering synchronize on a single
  registry lock, so a scrape observes a consistent cut across families
  -- counters published together are read together.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.exceptions import ValidationError

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
]

#: Default histogram buckets, tuned for tick/phase latencies: serving
#: ticks run tens of microseconds (inproc fast path) to seconds
#: (recovery replay), so the grid spans both with ~2-2.5x steps.
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def format_number(value) -> str:
    """Canonical exposition rendering of one sample value.

    Integral values print without a fractional part (``17``, not
    ``17.0``), non-finite values use the spec spellings (``+Inf``,
    ``-Inf``, ``NaN``), and everything else uses Python's shortest
    round-trip ``repr`` -- which the strict parser in the tests (and any
    float parser) reads back to the same double.
    """
    value = float(value)
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _render_labels(label_names, label_values, extra=()) -> str:
    pairs = [
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(label_names, label_values)
    ]
    pairs.extend(f'{name}="{_escape_label_value(value)}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _CounterSeries:
    """One monotonically non-decreasing sample."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock) -> None:
        self._lock = lock
        self.value = 0.0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValidationError(
                f"counters only go up; cannot inc by {amount}"
            )
        with self._lock:
            self.value += amount


class _GaugeSeries:
    """One freely settable sample."""

    __slots__ = ("_lock", "value")

    def __init__(self, lock) -> None:
        self._lock = lock
        self.value = 0.0

    def set(self, value) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount=1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount=1) -> None:
        self.inc(-amount)


class _HistogramSeries:
    """Bucketed observations plus their running sum and count."""

    __slots__ = ("_lock", "bounds", "counts", "sum", "count")

    def __init__(self, lock, bounds) -> None:
        self._lock = lock
        self.bounds = bounds  # sorted finite upper bounds (le)
        self.counts = [0] * (len(bounds) + 1)  # last slot = +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value) -> None:
        value = float(value)
        with self._lock:
            self.counts[bisect_left(self.bounds, value)] += 1
            self.sum += value
            self.count += 1

    def cumulative(self) -> list[int]:
        """Per-bucket cumulative counts, ``+Inf`` last (== count)."""
        out, total = [], 0
        for c in self.counts:
            total += c
            out.append(total)
        return out


class _Family:
    """Base of the three metric families: named, labeled, typed."""

    kind = "untyped"

    def __init__(self, registry, name: str, help: str, label_names) -> None:
        self._registry = registry
        self._lock = registry._lock
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._series: dict[tuple, object] = {}

    def _signature(self) -> tuple:
        return (type(self), self.label_names)

    def labels(self, **labels):
        """The series for one label-value combination (created on first
        use).  Label values are coerced to ``str``, the exposition's
        value domain."""
        if set(labels) != set(self.label_names):
            raise ValidationError(
                f"metric {self.name!r} takes labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.label_names)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = self._make_series()
        return series

    def _unlabeled(self):
        if self.label_names:
            raise ValidationError(
                f"metric {self.name!r} is labeled by {list(self.label_names)}; "
                "address a series via .labels(...)"
            )
        return self.labels()

    def _make_series(self):
        raise NotImplementedError

    def _sorted_series(self):
        return sorted(self._series.items())


class Counter(_Family):
    """A family of monotonically increasing counters."""

    kind = "counter"

    def _make_series(self):
        return _CounterSeries(self._lock)

    def inc(self, amount=1) -> None:
        """Increment the unlabeled series (label-less families only)."""
        self._unlabeled().inc(amount)

    @property
    def value(self) -> float:
        return self._unlabeled().value

    def values(self) -> dict:
        """Each series' value by label values (``()`` when unlabeled), in
        creation order; reading creates no series."""
        with self._lock:
            return {key: series.value for key, series in self._series.items()}

    def _render_into(self, lines) -> None:
        for key, series in self._sorted_series():
            labels = _render_labels(self.label_names, key)
            lines.append(
                f"{self.name}{labels} {format_number(series.value)}"
            )

    def _snapshot(self) -> list:
        return [
            {"labels": dict(zip(self.label_names, key)), "value": series.value}
            for key, series in self._sorted_series()
        ]


class Gauge(_Family):
    """A family of instantaneous values."""

    kind = "gauge"

    def _make_series(self):
        return _GaugeSeries(self._lock)

    def set(self, value) -> None:
        self._unlabeled().set(value)

    def inc(self, amount=1) -> None:
        self._unlabeled().inc(amount)

    def dec(self, amount=1) -> None:
        self._unlabeled().dec(amount)

    @property
    def value(self) -> float:
        return self._unlabeled().value

    _render_into = Counter._render_into
    _snapshot = Counter._snapshot


class Histogram(_Family):
    """A family of cumulative-bucket histograms."""

    kind = "histogram"

    def __init__(self, registry, name, help, label_names, buckets) -> None:
        super().__init__(registry, name, help, label_names)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValidationError(f"histogram {name!r} needs >= 1 bucket")
        if len(set(bounds)) != len(bounds):
            raise ValidationError(f"histogram {name!r} has duplicate buckets")
        if bounds[-1] == float("inf"):
            bounds = bounds[:-1]  # +Inf is implicit
        self.buckets = tuple(bounds)

    def _signature(self) -> tuple:
        return (type(self), self.label_names, self.buckets)

    def _make_series(self):
        return _HistogramSeries(self._lock, self.buckets)

    def observe(self, value) -> None:
        self._unlabeled().observe(value)

    def _render_into(self, lines) -> None:
        for key, series in self._sorted_series():
            cumulative = series.cumulative()
            for bound, total in zip(self.buckets, cumulative):
                labels = _render_labels(
                    self.label_names, key, extra=(("le", format_number(bound)),)
                )
                lines.append(f"{self.name}_bucket{labels} {total}")
            labels = _render_labels(self.label_names, key, extra=(("le", "+Inf"),))
            lines.append(f"{self.name}_bucket{labels} {cumulative[-1]}")
            labels = _render_labels(self.label_names, key)
            lines.append(f"{self.name}_sum{labels} {format_number(series.sum)}")
            lines.append(f"{self.name}_count{labels} {series.count}")

    def _snapshot(self) -> list:
        return [
            {
                "labels": dict(zip(self.label_names, key)),
                "count": series.count,
                "sum": series.sum,
                "buckets": {
                    format_number(bound): total
                    for bound, total in zip(
                        list(self.buckets) + [float("inf")],
                        series.cumulative(),
                    )
                },
            }
            for key, series in self._sorted_series()
        ]


class MetricsRegistry:
    """A named collection of metric families behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}

    # -- registration (get-or-create) ----------------------------------
    def counter(self, name: str, help: str = "", labels=()) -> Counter:
        return self._register(Counter(self, name, help, labels))

    def gauge(self, name: str, help: str = "", labels=()) -> Gauge:
        return self._register(Gauge(self, name, help, labels))

    def histogram(
        self, name: str, help: str = "", labels=(), buckets=DEFAULT_BUCKETS
    ) -> Histogram:
        return self._register(Histogram(self, name, help, labels, buckets))

    def _register(self, family: _Family) -> _Family:
        if not _METRIC_NAME.match(family.name):
            raise ValidationError(f"invalid metric name {family.name!r}")
        for label in family.label_names:
            if not _LABEL_NAME.match(label) or label.startswith("__"):
                raise ValidationError(
                    f"metric {family.name!r}: invalid label name {label!r}"
                )
            if isinstance(family, Histogram) and label == "le":
                raise ValidationError(
                    f"histogram {family.name!r} reserves the 'le' label"
                )
        with self._lock:
            existing = self._families.get(family.name)
            if existing is None:
                self._families[family.name] = family
                return family
            if existing._signature() != family._signature():
                raise ValidationError(
                    f"metric {family.name!r} is already registered as a "
                    f"{existing.kind} with labels {list(existing.label_names)}; "
                    "cannot redefine it"
                )
            return existing

    def get(self, name: str) -> _Family | None:
        """The registered family called ``name`` (None when absent)."""
        with self._lock:
            return self._families.get(name)

    # -- export --------------------------------------------------------
    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4).

        Families render in registration order, each introduced by its
        ``# HELP`` and ``# TYPE`` lines; the whole render happens under
        the registry lock, so the scrape is a consistent cut across
        every family.
        """
        lines: list[str] = []
        with self._lock:
            for family in self._families.values():
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
                lines.append(f"# TYPE {family.name} {family.kind}")
                family._render_into(lines)
        return "\n".join(lines) + "\n"

    def snapshot(self) -> dict:
        """JSON-safe dump of every family (the ``BENCH_*.json`` shape)."""
        with self._lock:
            return {
                name: {
                    "type": family.kind,
                    "help": family.help,
                    "series": family._snapshot(),
                }
                for name, family in self._families.items()
            }


# ---------------------------------------------------------------------------
# HTTP exposition
# ---------------------------------------------------------------------------

class _MetricsHandler(BaseHTTPRequestHandler):
    registry: MetricsRegistry  # bound by MetricsServer via subclassing

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            body = self.registry.render_prometheus().encode("utf-8")
            self._respond(
                200, body, "text/plain; version=0.0.4; charset=utf-8"
            )
        elif path == "/healthz":
            self._respond(200, b"ok\n", "text/plain; charset=utf-8")
        else:
            self._respond(404, b"not found\n", "text/plain; charset=utf-8")

    def _respond(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionError):  # scraper went away
            pass

    def log_message(self, *args) -> None:  # silence per-request stderr
        pass


class MetricsServer:
    """Serve a registry's ``/metrics`` endpoint from a daemon thread.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`);
    the listener thread is a daemon, so a crashing serving process never
    hangs on its own metrics endpoint.  Also answers ``/healthz`` so
    supervisors can probe liveness without parsing the exposition.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        handler = type("_BoundHandler", (_MetricsHandler,), {"registry": registry})
        self.registry = registry
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics",
            daemon=True,
        )
        self._thread.start()

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def parse_prometheus(text: str) -> dict:
    """Strict parser of the text exposition format (test/CI validation).

    Returns ``{family: {"type": ..., "help": ..., "samples": {(name,
    (label, value) pairs): float}}}`` and raises :class:`ValidationError`
    on anything out of spec: samples before their ``# TYPE``, sample
    names that do not belong to the family, malformed label syntax,
    non-monotonic histogram buckets, or a missing trailing newline.
    Lives here (not in the tests) so the CI smoke job can validate a
    live scrape with the same rigor.
    """
    if not text.endswith("\n"):
        raise ValidationError("exposition must end with a newline")
    families: dict = {}
    current: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            if name in families:
                raise ValidationError(f"line {lineno}: duplicate HELP for {name}")
            families[name] = {"type": None, "help": help_text, "samples": {}}
            current = name
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            if name not in families or name != current:
                raise ValidationError(
                    f"line {lineno}: TYPE for {name} without preceding HELP"
                )
            if kind not in ("counter", "gauge", "histogram", "untyped"):
                raise ValidationError(f"line {lineno}: unknown type {kind!r}")
            if families[name]["type"] is not None:
                raise ValidationError(f"line {lineno}: duplicate TYPE for {name}")
            families[name]["type"] = kind
            continue
        if line.startswith("#"):
            continue  # comment
        sample_name, labels, value = _parse_sample(line, lineno)
        if current is None or families[current]["type"] is None:
            raise ValidationError(
                f"line {lineno}: sample before any HELP/TYPE header"
            )
        allowed = {current}
        if families[current]["type"] == "histogram":
            allowed = {current + s for s in ("_bucket", "_sum", "_count")}
        if sample_name not in allowed:
            raise ValidationError(
                f"line {lineno}: sample {sample_name!r} does not belong to "
                f"family {current!r}"
            )
        key = (sample_name, labels)
        if key in families[current]["samples"]:
            raise ValidationError(f"line {lineno}: duplicate sample {key}")
        families[current]["samples"][key] = value
    _check_histograms(families)
    return families


def _parse_sample(line: str, lineno: int) -> tuple:
    """One sample line -> (name, sorted label tuple, float value)."""
    match = re.match(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(.*)\})? (\S+)$", line
    )
    if not match:
        raise ValidationError(f"line {lineno}: malformed sample {line!r}")
    name, _, label_blob, value_text = match.groups()
    labels = []
    if label_blob:
        for part in _split_labels(label_blob, lineno):
            label_match = re.match(r'^([a-zA-Z_][a-zA-Z0-9_]*)="(.*)"$', part)
            if not label_match:
                raise ValidationError(
                    f"line {lineno}: malformed label {part!r}"
                )
            raw = label_match.group(2)
            value = (
                raw.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
            )
            labels.append((label_match.group(1), value))
    try:
        if value_text == "+Inf":
            value = float("inf")
        elif value_text == "-Inf":
            value = float("-inf")
        else:
            value = float(value_text)
    except ValueError:
        raise ValidationError(
            f"line {lineno}: bad sample value {value_text!r}"
        ) from None
    return name, tuple(sorted(labels)), value


def _split_labels(blob: str, lineno: int) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quoted values."""
    parts, current, in_quotes, escaped = [], [], False, False
    for ch in blob:
        if escaped:
            current.append(ch)
            escaped = False
            continue
        if ch == "\\" and in_quotes:
            current.append(ch)
            escaped = True
            continue
        if ch == '"':
            in_quotes = not in_quotes
        if ch == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(ch)
    if in_quotes:
        raise ValidationError(f"line {lineno}: unterminated label value")
    if current:
        parts.append("".join(current))
    return parts


def _check_histograms(families: dict) -> None:
    """Bucket sanity: cumulative counts monotone, +Inf present == _count."""
    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        per_series: dict = {}
        for (sample, labels), value in family["samples"].items():
            if sample != name + "_bucket":
                continue
            le = dict(labels).get("le")
            if le is None:
                raise ValidationError(f"{name}: bucket sample without le")
            rest = tuple(kv for kv in labels if kv[0] != "le")
            per_series.setdefault(rest, []).append((float(le), value))
        for rest, buckets in per_series.items():
            buckets.sort()
            counts = [count for _, count in buckets]
            if counts != sorted(counts):
                raise ValidationError(
                    f"{name}{dict(rest)}: bucket counts are not cumulative"
                )
            if buckets[-1][0] != float("inf"):
                raise ValidationError(f"{name}{dict(rest)}: missing +Inf bucket")
            total = family["samples"].get((name + "_count", rest))
            if total is not None and total != buckets[-1][1]:
                raise ValidationError(
                    f"{name}{dict(rest)}: +Inf bucket {buckets[-1][1]} != "
                    f"_count {total}"
                )
