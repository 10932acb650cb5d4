"""Command-line interface to the co-design flows.

    python -m repro characterize [--ext] [-o models.json] [--jobs N]
                                 [--json]
    python -m repro explore [--models models.json] [--bits 512] [--top 10]
                            [--stride 9] [--jobs N] [--resume] [--json]
    python -m repro speedups [--jobs N] [--json]
    python -m repro adcurves [--limbs 16] [--jobs N] [--json]
    python -m repro ssl [--sizes 1,4,16,32] [--json]
    python -m repro callgraph [--bits 256]
    python -m repro farm [--cores 4] [--requests 200] [--seed 1]
                         [--rate 60] [--extended-fraction 0.5]
                         [--shards N] [--jobs N]
                         [--replay trace.jsonl]
                         [--export-workload trace.jsonl]
                         [--faults SEED|plan.json] [--slo p99_ms=5,...]
                         [--series-out series.jsonl]
                         [--series-interval 0.05]
                         [--serve] [--port 0] [--max-epochs N]
                         [--epoch-seconds 2.0] [--serve-grace SEC]
                         [--json]
    python -m repro capacity [--users 100000] [--per-user-kbps 384]
                             [--autoscale] [--curve diurnal]
                             [--epochs 24] [--rate 400] [--json]
                             [--max-cores 16] [<farm flags>]
    python -m repro profile --trace trace.jsonl [--top 20]
                            [--group-by scheduler] [--folded out.folded]
    python -m repro timeseries --series series.jsonl [--key NAME]...
                               [--html dashboard.html] [--width 64]
                               [--json]
    python -m repro bench [--scenario NAME]... --dir DIR
    python -m repro bench --check [--scenario NAME]... [--dir DIR]
                          [--report FILE]

Each subcommand runs one phase of the paper's methodology and prints
the corresponding report; ``--json`` swaps the table for a
machine-readable payload through one shared serializer.  Every JSON
payload uses one envelope::

    {"command": <subcommand>, "params": <effective flags>,
     "results": <subcommand-specific body>}

Every cost-consuming subcommand shares one cost build behind
:mod:`repro.costs`: characterization is memoized per configuration in
the process, and ``--cache-dir DIR`` (or ``$REPRO_COSTS_CACHE_DIR``)
persists it on disk so repeated runs characterize zero times.
``--no-cache`` forces a fresh characterization.

The sweep subcommands (``characterize``, ``explore``, ``speedups``,
``adcurves``) accept ``--jobs N`` (or ``$REPRO_JOBS``) to fan work
across cores through :mod:`repro.parallel`; results are identical to
serial runs for any worker count.  ``explore`` persists evaluated
candidates beside the characterization cache, so warm re-runs evaluate
nothing and ``explore --resume`` picks up an interrupted sweep.

Observability (``farm``, ``ssl``, ``characterize``, ``explore``,
``speedups``): ``--trace-out FILE`` enables the process-global
:mod:`repro.obs` tracer and writes a deterministic JSON-lines event
log; ``--metrics`` adds the metrics summary to the report (under
``results.metrics`` with ``--json``) and ``--metrics-out FILE`` writes
the rendered registry to a file (``--metrics-format text`` or
``prometheus``); ``--profile FILE`` additionally reduces the run's
span tree to a cycle-attribution profile
(:class:`repro.obs.CycleProfile`), written as JSON with a top-10 table
on stdout.  An output file (these, ``--series-out`` or
``--export-workload``) in a missing directory exits 2 before the run
starts.  ``profile`` analyses a saved trace log offline; ``bench
--dir DIR`` records ``BENCH_<scenario>.json`` baselines into ``DIR``
and ``bench --check`` gates the current tree against the committed
ones.

``farm`` and ``capacity`` share the farm flags ``--seed``,
``--scheduler``, ``--extended-fraction``, ``--epoch-seconds``,
``--faults``, ``--fault-episodes`` and ``--series-out``: one parser
parent, one check before characterization, one ``FarmConfig`` build.

Time series: ``farm --series-out FILE`` exports the run as a
virtual-time metrics series (JSONL; fault and SLO-alert events
annotated), ``capacity --autoscale --series-out`` does the same per
epoch, ``timeseries`` renders a saved series as sparklines or a
self-contained HTML dashboard, and ``farm --serve`` soaks the farm
continuously while exposing ``/metrics`` (Prometheus text format on
virtual timestamps), ``/healthz``, and ``/slo`` over HTTP.
"""

import argparse
import json
import math
import os
import sys
import time

#: The shared farm flags that describe a simulated farm, with their
#: defaults.  ``capacity`` without ``--autoscale`` simulates no farm,
#: so it rejects any of them set to anything else.
_SIMULATED_FARM_DEFAULTS = {
    "scheduler": "preferential", "extended_fraction": 0.5,
    "epoch_seconds": 2.0, "faults": None, "fault_episodes": 3,
    "series_out": None}


def _params_of(args) -> dict:
    """The effective parameters of a run (everything but the callback)."""
    return {key: value for key, value in sorted(vars(args).items())
            if key not in ("func", "command")}


def _print_json(args, results) -> int:
    """The one JSON serialization path every subcommand shares --
    emits the standard ``{"command", "params", "results"}`` envelope."""
    envelope = {"command": args.command, "params": _params_of(args),
                "results": results}
    # Strict JSON: a NaN or infinity raises instead of printing a bare
    # NaN no JSON parser accepts.
    print(json.dumps(envelope, indent=2, sort_keys=True,
                     allow_nan=False))
    return 0


def _configure_cache(args) -> None:
    """Apply the shared ``--cache-dir``/``--no-cache`` flags."""
    from repro.costs import configure_cache
    if getattr(args, "no_cache", False):
        configure_cache(enabled=False)
    else:
        configure_cache(cache_dir=getattr(args, "cache_dir", None))


def _setup_obs(args) -> None:
    """Apply the shared ``--trace-out``/``--metrics``/``--profile``
    flags.

    A fresh metrics registry and (when requested) a fresh tracer are
    installed globally so the run's summary reflects this invocation
    only, however the process was reused.  ``--profile`` needs the
    span tree, so it enables tracing even without ``--trace-out``.
    """
    from repro.obs import configure_tracing, reset_metrics, reset_tracing
    reset_metrics()
    if getattr(args, "trace_out", None) or getattr(args, "profile", None):
        configure_tracing()
    else:
        reset_tracing()


def _finish_obs(args, results=None):
    """Write the trace log and profile; fold the metrics summary into
    the report.

    Returns the metrics summary dict (or ``None``); with ``results``
    given (the JSON path) it is also attached as ``results["metrics"]``.
    """
    from repro.obs import (CycleProfile, get_registry, get_tracer,
                           metrics_summary, render_metrics,
                           write_events_jsonl)
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        written = write_events_jsonl(get_tracer(), trace_out)
        if not args.json:
            print(f"wrote {written} trace records to {trace_out}")
    profile_out = getattr(args, "profile", None)
    if profile_out:
        profile = CycleProfile.from_tracer(get_tracer())
        with open(profile_out, "w") as fh:
            json.dump(profile.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        if not args.json:
            print("\ncycle attribution (top 10 by self cycles):")
            print(profile.render_top(10))
            print(f"wrote profile to {profile_out}")
    metrics_out = getattr(args, "metrics_out", None)
    metrics_format = getattr(args, "metrics_format", "text")
    if metrics_out:
        with open(metrics_out, "w") as fh:
            fh.write(render_metrics(get_registry(),
                                    format=metrics_format) + "\n")
        if not args.json:
            print(f"wrote {metrics_format} metrics to {metrics_out}")
    if not getattr(args, "metrics", False):
        return None
    summary = metrics_summary(get_registry())
    if results is not None:
        results["metrics"] = summary
    elif not args.json:
        print("\nmetrics:")
        print(render_metrics(get_registry(), format=metrics_format))
    return summary


def _measured_cost_pair(announce: bool = True):
    """The shared cost build: both stock platforms, measured once.

    Characterization behind this routes through the global cache, so
    however many subcommand phases need the pair, the ISS stimulus
    programs run at most once per configuration per process -- and not
    at all with a warm ``--cache-dir``.
    """
    from repro.costs import PlatformCosts
    from repro.platform import SecurityPlatform
    from repro.ssl import fixtures

    if announce:
        print("measuring both platforms (ISS kernels + macro-models)...")
    base_platform = SecurityPlatform.base()
    opt_platform = SecurityPlatform.optimized()
    base = PlatformCosts.measure(base_platform, fixtures.SERVER_1024)
    opt = PlatformCosts.measure(opt_platform, fixtures.SERVER_1024)
    return base_platform, opt_platform, base, opt


def _cmd_characterize(args) -> int:
    from repro.costs import characterize_cached
    from repro.macromodel.persist import modelset_to_dict, save_modelset

    _configure_cache(args)
    _setup_obs(args)
    widths = (args.add_width, args.mac_width) if args.ext else (0, 0)
    if not args.json:
        print(f"characterizing {'extended' if args.ext else 'base'} "
              f"platform on the ISS...")
    start = time.perf_counter()
    models = characterize_cached(*widths, jobs=args.jobs)
    elapsed = time.perf_counter() - start
    if args.output:
        save_modelset(models, args.output)
    if args.json:
        results = modelset_to_dict(models)
        _finish_obs(args, results)
        return _print_json(args, results)
    print(f"fitted {len(models)} macro-models in {elapsed:.1f}s:")
    for model in sorted(models, key=lambda m: m.routine):
        coeffs = ", ".join(f"{c:.2f}" for c in model.fit.coeffs)
        print(f"  {model.routine:18s} {model.fit.form:12s} [{coeffs}]  "
              f"fit err {model.fit.mean_abs_pct_error:.2f}%")
    if args.output:
        print(f"saved to {args.output}")
    _finish_obs(args)
    return 0


def _cmd_explore(args) -> int:
    from repro.costs import characterize_cached
    from repro.crypto.modexp import iter_configs
    from repro.explore import (AlgorithmExplorer, ExplorationStore,
                               RsaDecryptWorkload, exploration_digest)
    from repro.macromodel.persist import load_modelset

    _configure_cache(args)
    _setup_obs(args)
    if args.models:
        try:
            models = load_modelset(args.models)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        models = characterize_cached(jobs=args.jobs)
    workload = (RsaDecryptWorkload.bits1024() if args.bits == 1024
                else RsaDecryptWorkload.bits512())
    configs = list(iter_configs())[:: args.stride]
    store = ExplorationStore.from_global_cache()
    if args.resume:
        # --resume is an explicit claim that a partial sweep exists; a
        # plain run silently reuses whatever the store has anyway.
        if not store.persistent:
            print("error: --resume needs a persistent store "
                  "(--cache-dir or $REPRO_COSTS_CACHE_DIR)",
                  file=sys.stderr)
            return 2
        stored = store.rows_for(exploration_digest(models, workload))
        if not stored:
            print("error: no stored exploration found to resume "
                  "(run explore with the same models/workload first)",
                  file=sys.stderr)
            return 2
        if not args.json:
            print(f"resuming: {len(stored)} candidates already "
                  f"evaluated")
    if not args.json:
        print(f"exploring {len(configs)} candidates "
              f"({args.bits}-bit RSA decrypt)...")
    explorer = AlgorithmExplorer(models, workload)
    results = explorer.explore(configs, jobs=args.jobs, store=store)
    run = explorer.last_run
    if args.json:
        payload = {
            "bits": args.bits,
            "candidates_evaluated": run.evaluated,
            "candidates_cached": run.cached,
            "wall_seconds": run.wall_seconds,
            "candidate_wall_seconds": run.candidate_wall_seconds,
            "parallel_speedup": run.parallel_speedup,
            "jobs": run.jobs,
            "executor": run.executor,
            "top": [r.as_dict() for r in results[: args.top]],
        }
        _finish_obs(args, payload)
        return _print_json(args, payload)
    print(f"done in {run.wall_seconds:.0f}s "
          f"({run.evaluated} evaluated, {run.cached} from cache, "
          f"jobs={run.jobs}, speedup {run.parallel_speedup:.2f}x)\n")
    for result in results[: args.top]:
        print(f"  {result.estimated_cycles / 1e6:8.2f}M  {result.label}")
    _finish_obs(args)
    return 0


def _cmd_speedups(args) -> int:
    from repro.costs import characterize_cached
    from repro.obs import get_registry, get_tracer

    _configure_cache(args)
    _setup_obs(args)
    tracer = get_tracer()
    if args.jobs is not None:
        # Pre-warm both platform model sets with the requested fan-out;
        # the measurement below then hits the memo.
        characterize_cached(jobs=args.jobs)
        characterize_cached(8, 8, jobs=args.jobs)
    with tracer.span("speedups.measure"):
        base_p, opt_p, base, opt = _measured_cost_pair(
            announce=not args.json)
    registry = get_registry()
    ciphers = {}
    for algo in ("des", "3des", "aes"):
        with tracer.span("speedups.cipher", algo=algo):
            b = base_p.cipher_cycles_per_byte(algo)
            o = opt_p.cipher_cycles_per_byte(algo)
        ciphers[algo] = (b, o)
        registry.gauge("speedups.speedup", algo=algo).set(b / o)
    registry.gauge("speedups.speedup", algo="rsa_public").set(
        base.rsa_public_cycles / opt.rsa_public_cycles)
    registry.gauge("speedups.speedup", algo="rsa_private").set(
        base.rsa_private_cycles / opt.rsa_private_cycles)
    if args.json:
        payload = {
            "base": base.as_dict(),
            "optimized": opt.as_dict(),
            "speedups": dict(
                {algo: b / o for algo, (b, o) in ciphers.items()},
                rsa_public=base.rsa_public_cycles / opt.rsa_public_cycles,
                rsa_private=(base.rsa_private_cycles
                             / opt.rsa_private_cycles)),
        }
        _finish_obs(args, payload)
        return _print_json(args, payload)
    print(f"\n{'algorithm':10s} {'base':>12s} {'optimized':>12s} "
          f"{'speedup':>8s}")
    for algo, (b, o) in ciphers.items():
        print(f"{algo.upper():10s} {b:10.1f}c/B {o:10.1f}c/B {b / o:7.1f}x")
    print(f"{'RSA enc':10s} {base.rsa_public_cycles:11.0f}c "
          f"{opt.rsa_public_cycles:11.0f}c "
          f"{base.rsa_public_cycles / opt.rsa_public_cycles:7.1f}x")
    print(f"{'RSA dec':10s} {base.rsa_private_cycles:11.0f}c "
          f"{opt.rsa_private_cycles:11.0f}c "
          f"{base.rsa_private_cycles / opt.rsa_private_cycles:7.1f}x")
    _finish_obs(args)
    return 0


def _cmd_adcurves(args) -> int:
    from repro.obs import get_tracer
    from repro.parallel import executor_scope
    from repro.tie.formulation import (adcurve_aes_block,
                                       adcurve_des_block,
                                       adcurve_mpn_add_n,
                                       adcurve_mpn_addmul_1)

    _configure_cache(args)
    _setup_obs(args)
    if not args.json:
        print(f"measuring A-D curves ({args.limbs}-limb mpn operands)"
              f"...")
    tracer = get_tracer()
    curves = {}
    with tracer.span("adcurves.run", limbs=args.limbs), \
            executor_scope(args.jobs) as pool:
        for name, build in (
                ("mpn_add_n", lambda: adcurve_mpn_add_n(
                    args.limbs, executor=pool)),
                ("mpn_addmul_1", lambda: adcurve_mpn_addmul_1(
                    args.limbs, executor=pool)),
                ("des_block", lambda: adcurve_des_block(executor=pool)),
                ("aes_block", lambda: adcurve_aes_block(executor=pool))):
            with tracer.span("adcurves.curve", curve=name):
                curves[name] = build()
    if args.json:
        payload = {name: {"name": curve.name,
                          "points": [{"cycles": p.cycles,
                                      "area": p.area,
                                      "instructions":
                                          sorted(p.instructions)}
                                     for p in curve.points]}
                   for name, curve in curves.items()}
        _finish_obs(args, payload)
        return _print_json(args, payload)
    for name, curve in curves.items():
        print(f"\n{name}:")
        for point in curve.points:
            names = ",".join(sorted(point.instructions)) or "(software)"
            print(f"  {point.cycles:10.0f}c {point.area:10.0f}A  "
                  f"{names}")
    _finish_obs(args)
    return 0


def _cmd_ssl(args) -> int:
    from repro.obs import get_tracer
    from repro.ssl.transaction import SslWorkloadModel

    _configure_cache(args)
    _setup_obs(args)
    sizes = [int(s) for s in args.sizes.split(",")]
    _, _, base, opt = _measured_cost_pair(announce=False)
    model = SslWorkloadModel(base, opt)
    tracer = get_tracer()
    with tracer.span("ssl.series", sizes=",".join(map(str, sizes))):
        rows = []
        for kb in sizes:
            with tracer.span("ssl.transaction", size_kb=kb):
                rows.extend(model.series([kb * 1024]))
    if args.json:
        results = {"rows": rows,
                   "asymptotic_speedup": model.asymptotic_speedup()}
        _finish_obs(args, results)
        return _print_json(args, results)
    print(f"{'size':>8s} {'speedup':>8s}   base pk/sym/misc")
    for kb, row in zip(sizes, rows):
        bf = row["base_fractions"]
        print(f"{kb:6d}KB {row['speedup']:7.1f}x   "
              f"{bf['public_key']:.2f}/{bf['symmetric']:.2f}/"
              f"{bf['misc']:.2f}")
    print(f"asymptote: {model.asymptotic_speedup():.2f}x")
    _finish_obs(args)
    return 0


def _parse_mix(spec: str) -> dict:
    """Parse a ``--mix`` flag (``name=weight,name=weight``) into the
    mapping :class:`repro.farm.TrafficProfile` takes.  Unknown names
    are the profile's job to reject (with the registered choices)."""
    mix = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, sep, weight = part.partition("=")
        if not sep:
            raise ValueError(f"--mix entries are NAME=WEIGHT "
                             f"(got {part!r})")
        try:
            value = float(weight)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"--mix weight must be a finite number "
                             f"(got {part!r})")
        mix[name.strip()] = value
    if not mix:
        raise ValueError("--mix needs at least one NAME=WEIGHT entry")
    return mix


def _check_farm_flags(args, n_cores: int):
    """Check the shared farm flags against an ``n_cores`` farm.
    Returns the ``--faults`` spec: ``None``, an integer seed, or a JSON
    plan file's FaultPlan, checked against the farm."""
    from repro.farm import FaultPlan
    from repro.farm.scheduler import scheduler_names
    from repro.obs.validate import read_json
    if args.scheduler not in scheduler_names():
        raise ValueError(f"--scheduler must be one of "
                         f"{scheduler_names()}")
    if not 0 <= args.extended_fraction <= 1:
        raise ValueError("--extended-fraction must be in [0, 1]")
    if args.epoch_seconds <= 0:
        raise ValueError("--epoch-seconds must be positive")
    if args.fault_episodes < 0:
        raise ValueError("--fault-episodes must be non-negative")
    spec = args.faults
    if not spec:
        return None
    try:
        return int(spec)
    except ValueError:
        pass
    try:
        payload = read_json(spec)
    except OSError as exc:
        raise ValueError(
            f"--faults wants an integer seed or a JSON plan file: "
            f"{exc}") from None
    try:
        plan = FaultPlan.from_dict(payload)
        plan.check_cores(n_cores)
    except ValueError as exc:
        raise ValueError(f"{spec}: {exc}") from None
    return plan


def _farm_config(args, fault_spec, n_cores: int, costs,
                 horizon_cycles: float, **fields):
    """The FarmConfig the shared flags describe: ``n_cores`` cores
    from the ``(base, optimized)`` cost pair, plus the caller's
    ``fields``.  A seeded ``--faults`` plan is drawn over
    ``horizon_cycles``; a degraded extended core falls back to the
    base cost table."""
    from dataclasses import replace
    from repro.farm import FarmConfig, build_farm, generate_fault_plan
    base_costs, opt_costs = costs
    faults = None
    if isinstance(fault_spec, int):
        faults = generate_fault_plan(fault_spec, n_cores, horizon_cycles,
                                     episodes=args.fault_episodes,
                                     degraded_costs=base_costs)
    elif fault_spec is not None:
        faults = replace(fault_spec, degraded_costs=base_costs)
    specs = build_farm(n_cores, base_costs, opt_costs,
                       extended_fraction=args.extended_fraction)
    return FarmConfig(specs=tuple(specs), scheduler=args.scheduler,
                      seed=args.seed, faults=faults, **fields)


def _print_capacity_table(plans) -> None:
    """The capacity-plan table ``farm`` and ``capacity`` both print."""
    print(f"{'target':38s} {'config':>10s} {'cores':>7s} "
          f"{'farm Mgates':>12s}")
    for p in plans:
        print(f"{p.target_name:38s} {p.config_name:>10s} "
              f"{p.cores:7d} {p.farm_gates / 1e6:12.2f}")


def _cmd_farm(args) -> int:
    from repro.farm import (TrafficProfile, capacity_table,
                            farm_rate_targets, import_workload,
                            export_workload, run_farm, shard_workload,
                            specs_as_configs)
    from repro.farm.scheduler import scheduler_names
    from repro.obs import get_registry, get_tracer, parse_slo
    from repro.ssl.throughput import DEFAULT_CLOCK_HZ

    if args.list_protocols:
        from repro.protocols import get_protocol, protocol_names
        models = [get_protocol(name) for name in protocol_names()]
        if args.json:
            return _print_json(args, {"protocols": [
                {"name": m.name, "resumable": m.resumable,
                 "default_mix_weight": m.default_mix_weight}
                for m in models]})
        print(f"{'protocol':10s} {'resumable':>9s} {'weight':>7s}")
        for m in models:
            print(f"{m.name:10s} {('yes' if m.resumable else 'no'):>9s} "
                  f"{m.default_mix_weight:7.2f}")
        return 0

    _configure_cache(args)
    _setup_obs(args)
    # Validate the cheap inputs before the ~seconds of ISS
    # characterization so bad flags fail fast and cleanly.
    try:
        if args.cores < 1:
            raise ValueError("--cores must be at least 1")
        if args.shards < 1:
            raise ValueError("--shards must be at least 1")
        if args.shards > args.cores:
            raise ValueError("--shards cannot exceed --cores")
        fault_spec = _check_farm_flags(args, args.cores)
        slo = parse_slo(args.slo) if args.slo else None
        if args.slo_window <= 0:
            raise ValueError("--slo-window must be positive")
        if args.series_interval <= 0:
            raise ValueError("--series-interval must be positive")
        if args.serve:
            if args.replay:
                raise ValueError("--serve generates its own epoch "
                                 "traffic; --replay is one-shot")
            if args.export_workload:
                raise ValueError("--serve does not take "
                                 "--export-workload")
            if args.max_epochs is not None and args.max_epochs < 1:
                raise ValueError("--max-epochs must be at least 1")
            if args.serve_grace < 0:
                raise ValueError("--serve-grace must be non-negative")
        profile_kwargs = dict(arrival_rate=args.rate,
                              resumption_ratio=args.resumption)
        if args.mix:
            # Unknown names raise UnknownProtocolError (a ValueError)
            # from the profile, naming the registered choices.
            profile_kwargs["mix"] = _parse_mix(args.mix)
        profile = TrafficProfile(**profile_kwargs)
        clock_hz = DEFAULT_CLOCK_HZ
        if args.replay:
            trace = import_workload(args.replay)
            requests = trace.requests
            clock_hz = trace.clock_hz
        else:
            # One canonical stream (interleaved shard seqs, ordered by
            # seq) -- what --export-workload writes, and what the
            # replay path re-partitions into the identical shards.
            # shard_workload rejects a negative --requests and more
            # shards than clients.
            workloads = shard_workload(profile, args.requests,
                                       args.shards, seed=args.seed)
            requests = sorted((r for shard in workloads for r in shard),
                              key=lambda r: r.seq)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.export_workload:
        export_workload(args.export_workload, requests,
                        clock_hz=clock_hz, rate=args.rate,
                        seed=args.seed, shards=args.shards,
                        resumption=args.resumption,
                        source=args.replay or "generated")
        if not args.json:
            print(f"wrote {len(requests)} requests to "
                  f"{args.export_workload}")

    costs = _measured_cost_pair(announce=not args.json)[2:]

    if args.serve:
        # The soak horizon is the (bounded) epoch timeline; an
        # unbounded soak gets a generous default so seeded chaos
        # still lands somewhere observable.
        horizon = ((args.max_epochs if args.max_epochs else 64)
                   * args.epoch_seconds * clock_hz)
        config = _farm_config(args, fault_spec, args.cores, costs,
                              horizon, profile=profile,
                              clock_hz=clock_hz, slo=slo,
                              slo_window_seconds=args.slo_window)
        return _run_soak(args, config)

    # The chaos horizon is the offered-traffic window: strikes land
    # while there is load to disturb.
    horizon = max((r.arrival_cycle for r in requests),
                  default=0.0) or clock_hz
    config = _farm_config(args, fault_spec, args.cores, costs, horizon,
                          requests=tuple(requests), shards=args.shards,
                          clock_hz=clock_hz, jobs=args.jobs, slo=slo,
                          slo_window_seconds=args.slo_window,
                          series_interval_seconds=(
                              args.series_interval if args.series_out
                              else None))
    specs, plan = config.specs, config.faults

    tracer = get_tracer()
    metrics = (get_registry() if args.metrics or args.metrics_out
               else None)
    rows = []
    runs = []
    farm_runs = []
    for name in scheduler_names():
        farm_run = run_farm(config.with_scheduler(name), tracer=tracer,
                            metrics=metrics)
        farm_runs.append((name, farm_run))
        runs.append(farm_run.sharded)
        rows.append(farm_run.metrics)

    if args.series_out:
        from repro.obs import write_series_jsonl
        series = dict(farm_runs)[args.scheduler].series
        written = write_series_jsonl(series, args.series_out)
        if not args.json:
            print(f"wrote {written} series records "
                  f"({len(series.samples)} samples, "
                  f"{len(series.events)} events, scheduler "
                  f"{args.scheduler}) to {args.series_out}")

    configs = specs_as_configs(specs)
    plans = capacity_table(configs, farm_rate_targets())
    wall = sum(run.wall_seconds for run in runs)
    shard_wall = sum(run.shard_wall_seconds for run in runs)
    sharding = {
        "shards": args.shards,
        "jobs": runs[0].jobs,
        "executor": runs[0].executor,
        "parallel_speedup": (shard_wall / wall if wall > 0 else 0.0),
    }

    if args.json:
        results = {
            "cores": [{"name": s.name, "config": s.costs.name,
                       "gates": s.gates} for s in specs],
            "schedulers": [m.as_dict() for m in rows],
            "capacity": [p.as_dict() for p in plans],
            "sharding": sharding,
            "parallel_speedup": sharding["parallel_speedup"],
            "jobs": sharding["jobs"],
            "executor": sharding["executor"],
        }
        if plan is not None:
            results["faults"] = {
                "plan": plan.as_dict(),
                "by_scheduler": {name: run.faults.as_dict()
                                 for name, run in farm_runs},
            }
        if slo is not None:
            results["slo"] = {
                "target": slo.as_dict(),
                "window_seconds": args.slo_window,
                "by_scheduler": {name: run.slo.as_dict()
                                 for name, run in farm_runs},
            }
        _finish_obs(args, results)
        return _print_json(args, results)

    print(f"\nfarm: {args.cores} cores "
          f"({sum(s.extended for s in specs)} extended / "
          f"{sum(not s.extended for s in specs)} base), "
          f"{len(requests)} requests @ {args.rate:.0f}/s, "
          f"seed {args.seed}")
    if args.shards > 1:
        print(f"sharded: {args.shards} shards, "
              f"jobs={sharding['jobs']} ({sharding['executor']}), "
              f"speedup {sharding['parallel_speedup']:.2f}x")
    print(f"\n{'scheduler':14s} {'sess/s':>8s} {'Mbps':>7s} "
          f"{'p50 ms':>8s} {'p95 ms':>9s} {'p99 ms':>9s} "
          f"{'util':>5s} {'hit':>5s} {'/s/Mgate':>9s}")
    for m in rows:
        print(f"{m.scheduler:14s} {m.sessions_per_s:8.1f} "
              f"{m.secure_mbps:7.2f} {m.p50_ms:8.2f} {m.p95_ms:9.2f} "
              f"{m.p99_ms:9.2f} {m.mean_utilization:5.2f} "
              f"{m.cache_hit_rate:5.2f} "
              f"{m.sessions_per_s_per_mgate:9.1f}")
    if plan is not None:
        print(f"\nchaos: {len(plan.events)} planned fault events, "
              f"re-dispatch penalty "
              f"{plan.redispatch_penalty_cycles:.0f} cycles")
        print(f"{'scheduler':14s} {'applied':>8s} {'redisp':>7s} "
              f"{'flushed':>8s} {'down Mcyc':>10s}")
        for name, run in farm_runs:
            fr = run.faults
            print(f"{name:14s} {fr.events_injected:8d} "
                  f"{fr.redispatches:7d} {fr.sessions_flushed:8d} "
                  f"{fr.downtime_cycles / 1e6:10.2f}")
    if slo is not None:
        print(f"\nslo ({args.slo}, {args.slo_window:.1f}s windows):")
        print(f"{'scheduler':14s} {'windows':>8s} {'violated':>9s} "
              f"{'breaches':>9s} {'attain':>7s}")
        for name, run in farm_runs:
            sr = run.slo
            print(f"{name:14s} {len(sr.windows):8d} "
                  f"{sr.windows_violated:9d} {sr.violations:9d} "
                  f"{sr.attainment:7.2f}")
    print("\ncapacity plan (aggregate targets, "
          "2% busy-instant activity):")
    _print_capacity_table(plans)
    _finish_obs(args)
    return 0


def _run_soak(args, config) -> int:
    """The ``farm --serve`` path: soak epochs + scrape endpoints."""
    from repro.farm.serve import FarmSoakService
    from repro.obs import write_series_jsonl

    service = FarmSoakService(config, epoch_seconds=args.epoch_seconds,
                              series_interval_seconds=args.series_interval)
    port = service.serve(host=args.host, port=args.port)
    # One parseable line: CI greps the bound port out of it.
    print(f"soak: listening on port {port} "
          f"(http://{args.host}:{port}/metrics /healthz /slo; "
          f"POST /quit stops)", flush=True)
    try:
        epochs = service.run(max_epochs=args.max_epochs,
                             grace_seconds=args.serve_grace)
    except KeyboardInterrupt:
        service.stop()
        epochs = service.epochs
    finally:
        service.shutdown()
    if args.series_out:
        written = write_series_jsonl(service.series, args.series_out)
        print(f"wrote {written} series records "
              f"({len(service.series.samples)} samples, "
              f"{len(service.series.events)} events) to "
              f"{args.series_out}")
    print(f"soak: served {epochs} epochs, "
          f"{service.virtual_seconds:.1f}s virtual")
    _finish_obs(args)
    return 0


def _cmd_timeseries(args) -> int:
    from repro.obs import (read_series_jsonl, render_dashboard_html,
                           render_series)

    try:
        series = read_series_jsonl(args.series)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read series {args.series}: {exc}",
              file=sys.stderr)
        return 2
    keys = args.key or None
    if keys:
        known = set(series.keys())
        missing = [k for k in keys if k not in known]
        if missing:
            print(f"error: unknown series key(s) {missing}; "
                  f"known: {series.keys()}", file=sys.stderr)
            return 2
    if args.html:
        html = render_dashboard_html(series, keys=keys)
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(html)
    if args.json:
        payload = series.as_dict()
        if keys:
            payload["samples"] = [
                {"kind": "sample", "t_cycles": s.t_cycles,
                 "values": {k: v for k, v in s.values.items()
                            if k in keys}}
                for s in series.samples]
        return _print_json(args, payload)
    print(render_series(series, keys=keys, width=args.width))
    if args.html:
        print(f"wrote dashboard to {args.html}")
    return 0


def _cmd_capacity(args) -> int:
    from repro.farm import (AutoscalePolicy, SloTarget, TrafficProfile,
                            build_farm, capacity_table, curve_names,
                            plan_farm, run_autoscale, specs_as_configs)
    from repro.ssl.throughput import DEFAULT_CLOCK_HZ, RATE_TARGETS

    _configure_cache(args)
    try:
        if args.users < 1:
            raise ValueError("--users must be at least 1")
        if args.per_user_kbps <= 0:
            raise ValueError("--per-user-kbps must be positive")
        if args.curve not in curve_names():
            raise ValueError(f"--curve must be one of {curve_names()}")
        policy = AutoscalePolicy(
            min_cores=args.min_cores, max_cores=args.max_cores,
            target_utilization=args.target_utilization,
            warmup_epochs=args.warmup_epochs,
            cooldown_epochs=args.cooldown_epochs)
        slo = SloTarget(p99_ms=args.slo_p99_ms,
                        secure_mbps=args.slo_mbps)
        profile = TrafficProfile(arrival_rate=args.rate)
        if args.epochs < 1:
            raise ValueError("--epochs must be at least 1")
        if not args.autoscale:
            for dest, default in _SIMULATED_FARM_DEFAULTS.items():
                if getattr(args, dest) != default:
                    raise ValueError(
                        f"--{dest.replace('_', '-')} needs --autoscale "
                        "(the static plan simulates no farm)")
        fault_spec = _check_farm_flags(args, args.max_cores)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _, _, base_costs, opt_costs = _measured_cost_pair(
        announce=not args.json)
    # A two-core heterogeneous farm yields exactly the base and
    # extended configurations with their gate costs.
    configs = specs_as_configs(build_farm(2, base_costs, opt_costs, 0.5))
    plan = plan_farm(args.users, args.per_user_kbps * 1e3, configs)
    targets = {name: args.users * 0.02 * rate
               for name, rate in RATE_TARGETS.items()}
    table = capacity_table(configs, targets)

    report = None
    if args.autoscale:
        # The chaos horizon spans the whole autoscale run; each epoch
        # injects its own window of the plan.
        horizon = args.epochs * args.epoch_seconds * DEFAULT_CLOCK_HZ
        config = _farm_config(args, fault_spec, args.max_cores,
                              (base_costs, opt_costs), horizon,
                              profile=profile, slo=slo)
        report = run_autoscale(config, policy=policy,
                               n_epochs=args.epochs,
                               epoch_seconds=args.epoch_seconds,
                               curve=args.curve)
        if args.series_out:
            from repro.obs import write_series_jsonl
            written = write_series_jsonl(report.series,
                                         args.series_out)
            if not args.json:
                print(f"wrote {written} series records "
                      f"({len(report.series.samples)} samples, "
                      f"{len(report.series.events)} events) to "
                      f"{args.series_out}")

    if args.json:
        results = {
            "plan": plan.as_dict(),
            "table": [p.as_dict() for p in table],
        }
        if report is not None:
            results["autoscale"] = report.as_dict()
        return _print_json(args, results)

    print(f"\ncheapest plan for {args.users:,} users @ "
          f"{args.per_user_kbps:.0f} kbps each:")
    print(f"  {plan.cores} x {plan.config_name} cores "
          f"({plan.farm_gates / 1e6:.2f} Mgates, "
          f"{plan.per_core_bps / 1e6:.2f} Mbps/core)")
    print()
    _print_capacity_table(table)
    if report is not None:
        print(f"\nautoscale ({args.curve} curve, {args.epochs} epochs "
              f"x {args.epoch_seconds:.1f}s, scheduler "
              f"{args.scheduler}):")
        print(f"{'epoch':>5s} {'rate/s':>8s} {'cores':>6s} "
              f"{'warm':>5s} {'util':>5s} {'p99 ms':>9s} "
              f"{'Mbps':>7s} {'slo':>4s} {'viol':>5s} {'fail':>5s} "
              f"action")
        for e in report.epochs:
            print(f"{e.epoch:5d} {e.offered_rate:8.1f} "
                  f"{e.active_cores:6d} {e.warming_cores:5d} "
                  f"{e.utilization:5.2f} {e.p99_ms:9.2f} "
                  f"{e.secure_mbps:7.2f} "
                  f"{'ok' if e.slo_met else 'MISS':>4s} "
                  f"{e.slo_violations:5d} {e.failed_cores:5d} "
                  f"{e.action}")
        print(f"\npeak {report.peak_cores} cores, mean "
              f"{report.mean_cores:.1f}, {report.core_epochs} "
              f"core-epochs, {report.slo_violations} SLO misses, "
              f"{report.core_failures} core failures, "
              f"{report.scale_outs} scale-outs / "
              f"{report.scale_ins} scale-ins")
    return 0


def _cmd_callgraph(args) -> int:
    from repro.isa.kernels.modexp_kernel import ModExpKernel
    from repro.tie.callgraph import CallGraph

    modulus = (1 << args.bits) + 0x169
    kernel = ModExpKernel()
    print(f"profiling a {args.bits}-bit modular exponentiation on the "
          f"ISS...")
    _, cycles, profile = kernel.powm(0xFEEDFACE, 0xA5A5, modulus)
    graph = CallGraph.from_profile(profile, "modexp")
    print(f"{cycles} cycles\n")
    print(graph.render())
    return 0


def _cmd_profile(args) -> int:
    from repro.obs import CycleProfile, read_events_jsonl

    try:
        tracer = read_events_jsonl(args.trace)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {args.trace}: {exc}",
              file=sys.stderr)
        return 2
    group_by = tuple(a for a in args.group_by.split(",") if a)
    profile = CycleProfile.from_tracer(tracer, group_by=group_by)
    if args.folded:
        with open(args.folded, "w") as fh:
            for line in profile.folded():
                fh.write(line + "\n")
    if args.json:
        return _print_json(args, profile.as_dict())
    print(f"{len(tracer.spans)} spans, "
          f"{profile.total_cycles():.0f} cycles attributed")
    print(profile.render_top(args.top))
    if args.folded:
        print(f"wrote folded stacks to {args.folded} "
              f"(feed to flamegraph.pl)")
    return 0


def _cmd_bench(args) -> int:
    from repro.obs import bench

    _configure_cache(args)
    names = args.scenario or bench.scenario_names()
    try:
        for name in names:
            bench.get_scenario(name)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    if args.check:
        reports, ok = bench.check_scenarios(
            args.dir or bench.DEFAULT_BASELINE_DIR, names)
        payload = {"ok": ok,
                   "scenarios": [r.as_dict() for r in reports]}
        if args.report:
            with open(args.report, "w") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        if args.json:
            _print_json(args, payload)
        else:
            print(bench.render_report(reports, verbose=args.verbose))
            print(f"bench gate: "
                  f"{'ok' if ok else 'REGRESSIONS DETECTED'}")
            if args.report:
                print(f"wrote report to {args.report}")
        return 0 if ok else 1

    if args.dir is None:
        # Recording into the committed baselines must be asked for.
        print("error: recording baselines needs --dir DIR (pass --dir "
              f"{bench.DEFAULT_BASELINE_DIR} to rewrite the committed "
              "ones)", file=sys.stderr)
        return 2
    results = {}
    for name in names:
        metrics = bench.run_scenario(name)
        path = bench.write_baseline(args.dir, name, metrics)
        results[name] = {"path": path, "metrics": metrics}
        if not args.json:
            print(f"recorded {name}: {len(metrics)} metrics -> {path}")
    if args.json:
        return _print_json(args, results)
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro.costs.cache import CACHE_DIR_ENV

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Wireless security processing platform co-design flows")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by every cost-consuming subcommand.
    cache_flags = argparse.ArgumentParser(add_help=False)
    cache_flags.add_argument(
        "--cache-dir", default=os.environ.get(CACHE_DIR_ENV) or None,
        help="persist/reuse the characterization store in this directory "
             f"(default: ${CACHE_DIR_ENV})")
    cache_flags.add_argument(
        "--no-cache", action="store_true",
        help="force re-characterization (bypass memo and disk store)")

    # Worker-count flag shared by the parallel sweep subcommands.
    from repro.parallel import JOBS_ENV
    jobs_flags = argparse.ArgumentParser(add_help=False)
    jobs_flags.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan the sweep across N workers (default: $"
             f"{JOBS_ENV} or serial); results are identical to serial")

    # Observability flags shared by the instrumented subcommands.
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--trace-out", metavar="FILE",
        help="enable tracing and write a JSON-lines span/event log here")
    obs_flags.add_argument(
        "--metrics", action="store_true",
        help="report the metrics summary (under results.metrics with "
             "--json)")
    obs_flags.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the rendered metrics registry to this file")
    obs_flags.add_argument(
        "--metrics-format", choices=("text", "prometheus"),
        default="text",
        help="rendering for --metrics-out and the --metrics table "
             "(default: text)")
    obs_flags.add_argument(
        "--profile", metavar="FILE",
        help="enable tracing and write the run's cycle-attribution "
             "profile here as JSON (prints a top-10 table too)")

    # The farm description `farm` and `capacity` share.  --rate stays
    # per subcommand: its default differs, and parents share their
    # Action objects, so a set_defaults on one would move both.
    farm_flags = argparse.ArgumentParser(add_help=False)
    farm_flags.add_argument("--seed", type=int, default=1)
    farm_flags.add_argument(
        "--scheduler", default=_SIMULATED_FARM_DEFAULTS["scheduler"],
        help="scheduler the --serve soak, the --series-out export and "
             "the autoscale loop run (farm's offline table still "
             "sweeps every policy)")
    farm_flags.add_argument(
        "--extended-fraction", type=float,
        default=_SIMULATED_FARM_DEFAULTS["extended_fraction"],
        help="fraction of cores with TIE extensions")
    farm_flags.add_argument(
        "--epoch-seconds", type=float,
        default=_SIMULATED_FARM_DEFAULTS["epoch_seconds"],
        help="farm --serve / capacity --autoscale epoch length in "
             "virtual seconds")
    farm_flags.add_argument(
        "--faults", metavar="SEED|FILE",
        help="deterministic chaos: an integer seed draws a fault "
             "schedule from the 'faults' PRNG fork, a path replays an "
             "explicit JSON FaultPlan; under capacity --autoscale "
             "failed cores leave the fleet and the policy must scale "
             "the capacity back")
    farm_flags.add_argument(
        "--fault-episodes", type=int,
        default=_SIMULATED_FARM_DEFAULTS["fault_episodes"],
        help="fault episodes a seeded --faults plan draws")
    farm_flags.add_argument(
        "--series-out", metavar="FILE",
        help="export the run as a virtual-time metrics series (JSONL; "
             "fault, SLO, scale and failure events annotated; capacity "
             "needs --autoscale)")

    p = sub.add_parser("characterize",
                       parents=[cache_flags, obs_flags, jobs_flags],
                       help="fit leaf-routine macro-models")
    p.add_argument("--ext", action="store_true",
                   help="characterize the extended platform")
    p.add_argument("--add-width", type=int, default=8)
    p.add_argument("--mac-width", type=int, default=8)
    p.add_argument("-o", "--output", help="save models as JSON")
    p.add_argument("--json", action="store_true",
                   help="emit the fitted model set as JSON")
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("explore",
                       parents=[cache_flags, obs_flags, jobs_flags],
                       help="explore the modexp design space")
    p.add_argument("--models", help="JSON macro-models (else characterize)")
    p.add_argument("--bits", type=int, default=512, choices=(512, 1024))
    p.add_argument("--stride", type=int, default=9,
                   help="evaluate every Nth of the 450 candidates (1=all)")
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--resume", action="store_true",
                   help="continue an interrupted sweep from the "
                        "persistent store (error if none exists)")
    p.add_argument("--json", action="store_true",
                   help="emit the ranked candidates as JSON")
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("speedups",
                       parents=[cache_flags, obs_flags, jobs_flags],
                       help="Table 1: per-algorithm speedups")
    p.add_argument("--json", action="store_true",
                   help="emit unit costs and speedups as JSON")
    p.set_defaults(func=_cmd_speedups)

    p = sub.add_parser("adcurves",
                       parents=[cache_flags, obs_flags, jobs_flags],
                       help="Figure 5: measured area-delay curves")
    p.add_argument("--limbs", type=int, default=16,
                   help="mpn operand size for the add_n/addmul_1 curves")
    p.add_argument("--json", action="store_true",
                   help="emit the curves as JSON")
    p.set_defaults(func=_cmd_adcurves)

    p = sub.add_parser("ssl", parents=[cache_flags, obs_flags],
                       help="Figure 8: SSL transaction speedups")
    p.add_argument("--sizes", default="1,2,4,8,16,32",
                   help="comma-separated transaction sizes in KB")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of the table")
    p.set_defaults(func=_cmd_ssl)

    p = sub.add_parser("farm",
                       parents=[cache_flags, obs_flags, jobs_flags,
                                farm_flags],
                       help="multi-core farm: schedulers + capacity plan")
    p.add_argument("--cores", type=int, default=4)
    p.add_argument("--requests", type=int, default=200)
    p.add_argument("--rate", type=float, default=60.0,
                   help="offered load in sessions/second")
    p.add_argument("--resumption", type=float, default=0.4,
                   help="session-resumption ratio (resumable "
                        "protocols: ssl, tls13, ...)")
    p.add_argument("--mix", metavar="NAME=W[,NAME=W...]",
                   help="traffic mix over registered protocols, e.g. "
                        "tls13=0.7,wep=0.3 (default: each protocol's "
                        "default weight)")
    p.add_argument("--list-protocols", action="store_true",
                   help="list the registered protocol models and exit")
    p.add_argument("--shards", type=int, default=1,
                   help="partition the population across N independent "
                        "shard simulations (1 = the plain simulator, "
                        "bit-identical)")
    p.add_argument("--replay", metavar="FILE",
                   help="replay a JSONL workload trace instead of "
                        "generating traffic")
    p.add_argument("--export-workload", metavar="FILE",
                   help="write the offered request stream as a JSONL "
                        "trace for later --replay")
    p.add_argument("--slo", metavar="NAME=V[,NAME=V...]",
                   help="runtime SLO gate evaluated per window, e.g. "
                        "p99_ms=5,secure_mbps=10,cache_hit_rate=0.3,"
                        "utilization=0.2")
    p.add_argument("--slo-window", type=float, default=1.0,
                   help="SLO evaluation window in (virtual) seconds")
    p.add_argument("--series-interval", type=float, default=0.05,
                   help="series sampling interval in virtual seconds")
    p.add_argument("--serve", action="store_true",
                   help="soak mode: replay traffic epochs continuously "
                        "and expose /metrics, /healthz, /slo over HTTP")
    p.add_argument("--host", default="127.0.0.1",
                   help="--serve bind address")
    p.add_argument("--port", type=int, default=0,
                   help="--serve port (0 picks a free one; the bound "
                        "port is printed)")
    p.add_argument("--max-epochs", type=int, default=None,
                   help="--serve: stop after N epochs (default: run "
                        "until POST /quit or Ctrl-C)")
    p.add_argument("--serve-grace", type=float, default=0.0,
                   help="--serve: linger this many wall seconds after "
                        "the last epoch for late scrapers")
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable JSON instead of tables")
    p.set_defaults(func=_cmd_farm)

    p = sub.add_parser("capacity", parents=[cache_flags, farm_flags],
                       help="capacity planner: static sizing + "
                            "autoscaling simulation")
    p.add_argument("--users", type=int, default=100_000,
                   help="subscriber population to size for")
    p.add_argument("--per-user-kbps", type=float, default=384.0,
                   help="per-user secure rate target (kbps)")
    p.add_argument("--autoscale", action="store_true",
                   help="additionally simulate the autoscaling control "
                        "loop")
    p.add_argument("--curve", default="diurnal",
                   help="arrival curve: constant, diurnal, or bursty")
    p.add_argument("--epochs", type=int, default=24)
    p.add_argument("--rate", type=float, default=400.0,
                   help="base offered load in sessions/second")
    p.add_argument("--min-cores", type=int, default=2)
    p.add_argument("--max-cores", type=int, default=16)
    p.add_argument("--target-utilization", type=float, default=0.7)
    p.add_argument("--warmup-epochs", type=int, default=1,
                   help="epochs a scaled-out core takes to come online")
    p.add_argument("--cooldown-epochs", type=int, default=2)
    p.add_argument("--slo-p99-ms", type=float, default=None,
                   help="per-epoch p99 latency SLO (ms)")
    p.add_argument("--slo-mbps", type=float, default=None,
                   help="per-epoch secure-throughput SLO (Mbps)")
    p.add_argument("--json", action="store_true",
                   help="emit the plan/table/autoscale report as JSON")
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("callgraph", help="Figure 4: profile a modexp")
    p.add_argument("--bits", type=int, default=256)
    p.set_defaults(func=_cmd_callgraph)

    p = sub.add_parser("profile",
                       help="cycle-attribution profile of a trace log")
    p.add_argument("--trace", required=True, metavar="FILE",
                   help="JSON-lines trace written by --trace-out")
    p.add_argument("--top", type=int, default=20,
                   help="rows in the hot-path table")
    p.add_argument("--group-by", default="",
                   help="comma-separated span attrs that split call "
                        "paths (e.g. scheduler,protocol)")
    p.add_argument("--folded", metavar="FILE",
                   help="write folded-stack lines for flamegraph.pl")
    p.add_argument("--json", action="store_true",
                   help="emit the profile tree as JSON")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("timeseries",
                       help="render a saved virtual-time metrics "
                            "series (sparklines / HTML dashboard)")
    p.add_argument("--series", required=True, metavar="FILE",
                   help="JSONL series written by --series-out")
    p.add_argument("--key", action="append", metavar="NAME",
                   help="only these series keys (repeatable; default "
                        "all)")
    p.add_argument("--html", metavar="FILE",
                   help="write a self-contained HTML dashboard here")
    p.add_argument("--width", type=int, default=64,
                   help="sparkline width in columns")
    p.add_argument("--json", action="store_true",
                   help="emit the series as JSON")
    p.set_defaults(func=_cmd_timeseries)

    from repro.obs.bench import DEFAULT_BASELINE_DIR
    p = sub.add_parser("bench", parents=[cache_flags],
                       help="record or gate benchmark baselines")
    p.add_argument("--scenario", action="append", metavar="NAME",
                   help="run only this scenario (repeatable; default "
                        "all)")
    p.add_argument("--dir",
                   help="baseline directory holding BENCH_<name>.json; "
                        "required to record, --check defaults to "
                        f"{DEFAULT_BASELINE_DIR}")
    p.add_argument("--check", action="store_true",
                   help="compare against committed baselines and exit "
                        "non-zero on regressions")
    p.add_argument("--report", metavar="FILE",
                   help="with --check: write the JSON diff report here")
    p.add_argument("--verbose", action="store_true",
                   help="with --check: show every metric row, not just "
                        "regressions")
    p.add_argument("--json", action="store_true",
                   help="emit scenario metrics / the gate report as "
                        "JSON")
    p.set_defaults(func=_cmd_bench)

    return parser


#: Flags naming a file a run writes after its (possibly long) work.
_OUTPUT_FLAGS = ("trace_out", "metrics_out", "profile", "series_out",
                 "export_workload")


def _check_output_paths(args) -> None:
    """Reject an output file whose directory does not exist before the
    run starts, not with a traceback after it."""
    for dest in _OUTPUT_FLAGS:
        path = getattr(args, dest, None)
        if path:
            parent = os.path.dirname(path) or "."
            if not os.path.isdir(parent):
                flag = "--" + dest.replace("_", "-")
                raise ValueError(f"{flag}: directory {parent!r} does "
                                 f"not exist")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_output_paths(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
