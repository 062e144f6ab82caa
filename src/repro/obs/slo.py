"""Rule-based SLO watchdog over registered metric series.

Confucius's argument (PAPERS.md) is that tail behaviour has to be
watched *continuously* — a run that ends with a fine mean hid the
stall that ruined it. The watchdog makes that first-class: declarative
rules over any series in a :class:`~repro.obs.registry.MetricRegistry`
(counters, gauges, or histogram quantiles), evaluated on the telemetry
tick in sim mode and on the supervisor heartbeat in live mode.

Two rule flavours:

* **threshold** — fire when the value breaches a fixed bound for
  ``for_count`` consecutive evaluations (hysteresis so one noisy
  sample on a shared CI box does not page);
* **EWMA drift** — fire when the value exceeds its own exponentially
  weighted baseline by a relative factor, after a warm-up; catches
  "pacing delay quietly tripled" without hand-picking a bound.

Alerts are structured events: appended to the watchdog's ``alerts``
ring, pushed through ``on_alert`` (live: fleet log + echo line; sim:
``telemetry.annotate`` so they land in the flight recorder and the
JSONL export), and mirrored as ``slo.*`` instruments in a publish
registry that rolls up as its own ``slo`` Prometheus shard.

Evaluation is deterministic: fixed rule order, no wall-clock reads
(the caller supplies ``now``), and reading a histogram quantile uses
the fixed-bucket interpolation from :mod:`repro.obs.quantiles`.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence

from repro.obs.quantiles import histogram_quantile
from repro.obs.registry import MetricRegistry

__all__ = [
    "SloRule",
    "SloWatchdog",
    "session_slo_rules",
    "fleet_slo_rules",
]

_OPS = {
    ">": lambda v, t: v > t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    "<=": lambda v, t: v <= t,
}

#: alert-ring capacity; a watchdog that fires more than this per run
#: has long since made its point.
ALERT_CAP = 256


@dataclass
class SloRule:
    """One declarative rule over a registered series.

    ``metric`` names a counter, gauge, or histogram in the watched
    registry; for histograms, set ``quantile`` (percent) to evaluate a
    fixed-bucket quantile estimate. Exactly one of ``threshold`` mode
    (default) or ``drift`` mode applies: when ``drift`` is not None
    the rule fires on relative deviation from the series' own EWMA
    baseline instead of a fixed bound.
    """

    name: str
    metric: str
    threshold: float = 0.0
    op: str = ">"
    quantile: Optional[float] = None
    #: consecutive breaching evaluations before the alert fires.
    for_count: int = 1
    #: drift mode: fire when value > ewma * (1 + drift). ``drift=1.0``
    #: means "double the running baseline".
    drift: Optional[float] = None
    ewma_alpha: float = 0.2
    #: drift warm-up: evaluations folded into the baseline before the
    #: rule may fire (a cold EWMA would alert on the first sample).
    min_samples: int = 5
    #: drift mode: absolute value below which a sample never breaches
    #: (it is folded into the baseline instead). Guards series whose
    #: healthy baseline sits near zero — any benign transient would
    #: otherwise dwarf the EWMA in relative terms.
    floor: float = 0.0

    # internal evaluation state (not part of the rule identity)
    _streak: int = field(default=0, repr=False, compare=False)
    _firing: bool = field(default=False, repr=False, compare=False)
    _ewma: Optional[float] = field(default=None, repr=False, compare=False)
    _seen: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown op {self.op!r}; use one of "
                             f"{sorted(_OPS)}")
        if self.for_count < 1:
            raise ValueError("for_count must be >= 1")

    def slug(self) -> str:
        return re.sub(r"[^A-Za-z0-9_]+", "_", self.name).strip("_")


def _read_value(registry: MetricRegistry, rule: SloRule) -> Optional[float]:
    """Current value of the rule's series, None when unavailable."""
    name = rule.metric
    hist = registry.histograms.get(name)
    if hist is not None:
        q = rule.quantile if rule.quantile is not None else 99.0
        return histogram_quantile(hist.cumulative(), q)
    counter = registry.counters.get(name)
    if counter is not None:
        return counter.value
    gauge = registry.gauges.get(name)
    if gauge is not None:
        return gauge.value  # None until first set/sample
    return None


class SloWatchdog:
    """Evaluate a rule set against a registry; emit structured alerts.

    ``source`` is the watched registry (a session's, or the live fleet
    registry); ``publish`` receives the ``slo.*`` mirror instruments
    and defaults to a fresh registry so it can roll up as a dedicated
    ``slo`` shard. Passing ``publish=source`` folds the mirror into
    the watched registry instead (single-session sim mode, where one
    snapshot should carry everything).
    """

    def __init__(self, rules: Sequence[SloRule], *,
                 source: MetricRegistry,
                 publish: Optional[MetricRegistry] = None,
                 on_alert: Optional[Callable[[dict], None]] = None) -> None:
        self.rules = list(rules)
        self.source = source
        self.publish = publish if publish is not None else MetricRegistry()
        self.on_alert = on_alert
        self.alerts: Deque[dict] = deque(maxlen=ALERT_CAP)
        self._c_evals = self.publish.counter(
            "slo.evaluations", help="Watchdog evaluation passes")
        self._c_alerts = self.publish.counter(
            "slo.alerts", help="SLO alerts fired (firing transitions)")
        self._g_firing = self.publish.gauge(
            "slo.firing", help="Rules currently in the firing state")
        self._g_firing.set(0.0)
        self._g_rule: Dict[str, object] = {}
        for rule in self.rules:
            g = self.publish.gauge(
                f"slo.breached.{rule.slug()}",
                help=f"1 while SLO rule '{rule.name}' is firing")
            g.set(0.0)
            self._g_rule[rule.name] = g

    @property
    def firing(self) -> List[str]:
        return [r.name for r in self.rules if r._firing]

    def evaluate(self, now: float) -> List[dict]:
        """One evaluation pass; returns newly emitted alert events.

        Emits a ``firing`` event on the breach transition (after
        ``for_count`` consecutive breaches) and a ``cleared`` event
        when a firing rule stops breaching.
        """
        self._c_evals.inc()
        emitted: List[dict] = []
        for rule in self.rules:
            value = _read_value(self.source, rule)
            if value is None:
                continue
            if rule.drift is not None:
                baseline = rule._ewma
                rule._seen += 1
                warm = (baseline is not None
                        and rule._seen > rule.min_samples)
                breach = bool(warm
                              and value >= rule.floor
                              and value > baseline * (1.0 + rule.drift))
                if not breach:
                    # the baseline only learns non-breaching samples, so
                    # a sustained stall cannot normalise itself away.
                    rule._ewma = (value if baseline is None else
                                  baseline + rule.ewma_alpha
                                  * (value - baseline))
                bound = (None if baseline is None
                         else baseline * (1.0 + rule.drift))
            else:
                breach = _OPS[rule.op](value, rule.threshold)
                bound = rule.threshold
            if breach:
                rule._streak += 1
            else:
                rule._streak = 0
            should_fire = rule._streak >= rule.for_count
            if should_fire and not rule._firing:
                rule._firing = True
                emitted.append(self._emit(rule, "firing", now, value, bound))
            elif rule._firing and not breach:
                rule._firing = False
                emitted.append(self._emit(rule, "cleared", now, value, bound))
        self._g_firing.set(float(sum(1 for r in self.rules if r._firing)))
        return emitted

    def _emit(self, rule: SloRule, state: str, now: float,
              value: float, bound: Optional[float]) -> dict:
        event = {
            "kind": "slo-alert",
            "rule": rule.name,
            "metric": rule.metric,
            "state": state,
            "value": round(value, 9),
            "bound": None if bound is None else round(bound, 9),
            "mode": "drift" if rule.drift is not None else "threshold",
            "at": round(now, 6),
        }
        if state == "firing":
            self._c_alerts.inc()
            self._g_rule[rule.name].set(1.0)
        else:
            self._g_rule[rule.name].set(0.0)
        self.alerts.append(event)
        if self.on_alert is not None:
            self.on_alert(event)
        return event

    def summary(self) -> dict:
        """Digest for run summaries and heartbeats."""
        return {
            "rules": len(self.rules),
            "evaluations": int(self._c_evals.value),
            "alerts": int(self._c_alerts.value),
            "firing": self.firing,
            "events": list(self.alerts),
        }


def format_slo_event(event: dict) -> str:
    """The one console line for an alert event (``SLO FIRING: <rule> ...``)
    — printed live by the fleet supervisor and after the run by the CLI."""
    bound = event.get("bound")
    value = event.get("value")
    return (f"SLO {event['state'].upper()}: {event['rule']} "
            f"({event['metric']} = "
            f"{'-' if value is None else f'{value:g}'}, bound "
            f"{'-' if bound is None else f'{bound:g}'}) "
            f"at t={event['at']:.2f}s")


def session_slo_rules(*, pacing_p99_s: float = 0.25) -> List[SloRule]:
    """Default per-session rules (sim ``repro run --slo`` and live).

    Watches the burst analyzer's pacing-delay histogram — the paper's
    pacing-latency definition — plus an EWMA drift rule on the pacer
    backlog that catches a stalled pacer even before the p99 bound
    trips.
    """
    return [
        SloRule("pacing-p99", "burst.pacing_delay_s",
                quantile=99.0, threshold=pacing_p99_s, for_count=2),
        # floor: keyframe bursts park a few hundred KB in the pacer for
        # a tick or two on a healthy run; only a backlog that is *both*
        # large and far above its own baseline is a stall signal.
        SloRule("pacer-backlog-drift", "pacer.backlog_bytes",
                drift=4.0, ewma_alpha=0.2, min_samples=10, for_count=3,
                floor=500_000.0),
    ]


def fleet_slo_rules(*, pacing_p99_s: float = 0.25) -> List[SloRule]:
    """Default fleet rules for the live supervisor heartbeat."""
    return [
        SloRule("fleet-pacing-p99", "live.pacing_p99_s",
                threshold=pacing_p99_s, for_count=2),
        SloRule("fleet-session-failed", "live.sessions_failed",
                threshold=0.0, op=">", for_count=1),
    ]
