"""A farm of security-processor cores serving mixed secure traffic.

The paper evaluates the platform one SSL transaction at a time, but its
objective is *sustained* secure traffic at 3G/WLAN rates -- and the
natural scale-out (Paul & Chakrabarti, arXiv:1410.7560) is to replicate
the security core and schedule crypto jobs across the replicas with a
preferential algorithm.  This package models exactly that step:

- :mod:`repro.farm.workload`  -- seeded generators of mixed-protocol
  session-request streams (SSL full/resumed, WTLS, IPSec ESP, WEP),
  costed in cycles through the existing platform cost models;
- :mod:`repro.farm.simulator` -- a deterministic discrete-event engine:
  one ``heapq`` event heap, per-core run queues, cycle-granular
  virtual clock;
- :mod:`repro.farm.scheduler` -- pluggable dispatch policies
  (round-robin, least-loaded, preferential with session-cache
  affinity);
- :mod:`repro.farm.metrics`   -- throughput, latency percentiles,
  utilization, and area-normalized throughput (an A-D style
  cores-vs-delay trade-off at the farm level);
- :mod:`repro.farm.capacity`  -- the capacity planner: how many cores
  of which configuration serve N users at rate R;
- :mod:`repro.farm.shard`     -- population sharding: independent
  per-shard PRNG streams, parallel per-shard simulations, an
  order-preserving merge (``shards=1`` is bit-identical to the plain
  simulator);
- :mod:`repro.farm.replay`    -- JSONL workload traces (export /
  import round-trips the exact request stream);
- :mod:`repro.farm.autoscale` -- the autoscaling capacity service:
  arrival curves, scale-out/in policies with warm-up costs, per-epoch
  SLO attainment;
- :mod:`repro.farm.timeseries` -- virtual-time metrics series of a
  run: a :class:`FarmSeriesRecorder` samples completion counters,
  windowed p99 / secure-throughput gauges, and latency histograms on
  a fixed cycle interval (derived post hoc from any merged result),
  with fault and SLO-alert event annotations;
- :mod:`repro.farm.serve`     -- the soak service behind
  ``python -m repro farm --serve``: replays traffic epochs
  continuously and exposes ``/metrics`` (Prometheus text exposition,
  virtual-time timestamps), ``/healthz``, and ``/slo`` over HTTP.

Importing the package loads the run path every farm run uses (config,
simulator, scheduler, workload, metrics, faults, shard); the optional
services (autoscale, capacity, replay, timeseries, serve) load on first
use of one of their names, and nothing here loads the explorer, the
macro-models or numpy.

Drive it from the command line with ``python -m repro farm``.
"""

from repro._lazy import lazy_exports
from repro.obs.slo import (SloMonitor, SloObjective, SloReport,
                           SloTarget)
from repro.farm.config import FarmConfig, FarmRun, run_epoch, run_farm
from repro.farm.faults import (DEFAULT_REDISPATCH_PENALTY_CYCLES,
                               FAULT_KINDS, FaultEvent, FaultPlan,
                               FaultReport, generate_fault_plan,
                               summarize_faults)
from repro.farm.metrics import (FarmMetrics, percentile, summarize,
                                window_metrics)
from repro.farm.scheduler import (SCHEDULERS, LeastLoadedScheduler,
                                  PreferentialScheduler,
                                  RoundRobinScheduler, Scheduler,
                                  make_scheduler)
from repro.farm.shard import ShardedRun, merge_results, shard_workload
from repro.farm.simulator import (BASE_CORE_GATES, Completion, Core,
                                  CoreSpec, FarmResult, FarmSimulator,
                                  build_farm, publish_metrics)
from repro.farm.workload import (SessionRequest, TrafficProfile, cost_of,
                                 generate_requests, is_public_key_heavy)
from repro.protocols import RequestCost
from repro.protocols.builtin import session_id_for_client

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.farm.autoscale": (
        "ARRIVAL_CURVES", "AutoscalePolicy", "AutoscaleReport",
        "EpochReport", "arrival_multiplier", "curve_names",
        "run_autoscale"),
    "repro.farm.capacity": (
        "CapacityPlan", "capacity_table", "cores_for_rate",
        "farm_rate_targets", "plan_farm", "specs_as_configs"),
    "repro.farm.replay": (
        "WorkloadTrace", "export_workload", "import_workload"),
    "repro.farm.serve": ("FarmSoakService",),
    "repro.farm.timeseries": (
        "DEFAULT_SERIES_INTERVAL_SECONDS", "FarmSeriesRecorder",
        "annotate_faults", "annotate_slo", "series_of"),
})

__all__ = [
    "ARRIVAL_CURVES", "BASE_CORE_GATES", "AutoscalePolicy",
    "AutoscaleReport", "CapacityPlan",
    "Completion", "Core", "CoreSpec",
    "DEFAULT_REDISPATCH_PENALTY_CYCLES",
    "DEFAULT_SERIES_INTERVAL_SECONDS", "EpochReport", "FAULT_KINDS",
    "FarmConfig", "FarmMetrics",
    "FarmResult", "FarmRun", "FarmSeriesRecorder", "FarmSimulator",
    "FarmSoakService", "FaultEvent", "FaultPlan", "FaultReport",
    "LeastLoadedScheduler", "PreferentialScheduler", "RequestCost",
    "RoundRobinScheduler", "SCHEDULERS", "Scheduler", "SessionRequest",
    "ShardedRun", "SloMonitor", "SloObjective", "SloReport",
    "SloTarget", "TrafficProfile", "WorkloadTrace",
    "annotate_faults", "annotate_slo", "arrival_multiplier",
    "build_farm", "capacity_table",
    "cores_for_rate", "cost_of", "curve_names", "export_workload",
    "farm_rate_targets", "generate_fault_plan", "generate_requests",
    "import_workload", "is_public_key_heavy",
    "make_scheduler", "merge_results", "percentile", "plan_farm",
    "publish_metrics", "run_autoscale", "run_epoch", "run_farm",
    "series_of",
    "session_id_for_client",
    "shard_workload",
    "specs_as_configs", "summarize", "summarize_faults",
    "window_metrics",
]
