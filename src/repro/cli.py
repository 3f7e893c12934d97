"""Command-line interface.

A thin shell over the unified compilation pipeline API
(:mod:`repro.api`): every subcommand resolves machines through
:mod:`repro.machine.specs`, schedulers through
:mod:`repro.sched.registry` and register-pressure strategies through
:mod:`repro.core.registry` — the CLI keeps no lookup tables of its own,
so registering a new scheduler or strategy makes it reachable from the
command line without touching this module.

Compile a loop written in the mini language into a register-constrained
software-pipelined schedule and inspect every intermediate artifact::

    python -m repro compile loop.l --machine P2L4 --registers 32
    python -m repro compile -e "x[i] = y[i]*a + y[i-3]" --show all
    python -m repro mii -e "s = s + x[i]*y[i]" --machine P1L4
    python -m repro suite --size 24 --registers 32
    python -m repro sweep --jobs 4 --json-out results.json

Subcommands:

* ``compile`` — run :func:`repro.api.compile_loop` under a register
  budget (``--method spill`` is Figure 1b, ``increase`` Figure 1a,
  ``combined`` the Section-5 proposal, ``prespill`` the [30] baseline,
  ``none`` the unconstrained schedule), with ``--json`` for the
  machine-readable :class:`~repro.api.CompilationResult`;
* ``mii`` — print ResMII / RecMII / MII for a loop;
* ``suite`` — summarize the evaluation suite under a budget;
* ``sweep`` — regenerate the paper's evaluation artifacts through the
  parallel cached experiment engine (one-command reproduction): suite ×
  machines × budgets × heuristic variants × ``--scheduler``, rendered
  tables on stdout and machine-readable JSON via ``--json-out``
  (deterministic for any ``--jobs`` value);
* ``fuzz`` — differential fuzzing: every iteration draws one random
  loop from a derived seed, compiles it through every scheduler ×
  strategy, and re-checks each result with the independent
  :mod:`repro.verify` oracle; failures are greedily shrunk and written
  as replayable reproducer documents (``--corpus DIR``, replayed with
  ``--replay PATH``); ``--self-check`` dry-runs the shrinker (CI gate);
* ``robust`` — perturbation robustness for one loop: N seeded
  compilations under latency/unit-count/dependence-distance jitter
  (:mod:`repro.robust`), reporting II degradation, schedule stability
  and oracle-pass statistics;
* ``cache`` — operator hygiene for a shared persistent store
  (``repro cache stats`` / ``clear`` / ``prune --max-bytes N``, with
  ``prune --dry-run`` to preview evictions) without writing any Python;
* ``serve`` — the long-lived compilation daemon
  (:mod:`repro.server`): one warm worker pool and one shared store
  across every client, request batching and in-flight coalescing, over
  stdio (default), ``--socket PATH``, ``--tcp [HOST:]PORT`` or
  ``--http PORT``, with ``--token`` shared-token authentication and a
  persistent :mod:`repro.metrics` database (``--metrics PATH``;
  defaults to ``metrics.sqlite`` inside ``--cache-dir``);
* ``compile --connect ADDR`` — hand the request to a running daemon
  (via :mod:`repro.client`) instead of compiling in-process;
* ``sweep --connect ADDR[,ADDR...]`` — route the whole experiment grid
  through a sharded daemon cluster (:mod:`repro.cluster`), one shard
  per consistent-hash key range, byte-identical JSON either way;
* ``cluster stats|top`` — per-shard + aggregated telemetry of a
  running cluster, and the persisted metrics time series (``cluster
  stats --prune-older-than DAYS`` prunes old rows offline);
* ``sweep --trace PATH`` / ``serve --trace`` — record end-to-end
  request traces (client, server, service and worker spans, each
  worker span with its per-phase times) without changing any output
  byte;
* ``trace show|top|slow`` — inspect persisted traces: span trees,
  the aggregate phase profile, the slowest spans (``--json`` emits
  the ``repro.trace/2`` document).  See ``docs/OBSERVABILITY.md``.

``compile``, ``sweep`` and ``serve`` take ``--cache-dir DIR`` (default:
``$REPRO_CACHE_DIR``): a persistent :mod:`repro.sched.store` directory
shared by every worker process and every later run — a repeated sweep
into the same directory is served from disk (see ``docs/CACHING.md``) —
plus ``--max-bytes N`` to set the store's eviction cap.
"""

from __future__ import annotations

import argparse
import sys

from repro.api import compile_loop
from repro.codegen import (
    render_kernel,
    render_lifetimes,
    render_pressure,
    render_schedule,
)
from repro.core.registry import strategy_names, strategy_options
from repro.eval import format_table
from repro.graph import ddg_from_source
from repro.lifetimes import register_requirements
from repro.machine.specs import machine_names, resolve_machine
from repro.sched import compute_mii, rec_mii, reduce_stages, res_mii
from repro.sched.registry import create_scheduler, scheduler_names
from repro.trace import LAYERS

_SHOW_CHOICES = ("graph", "schedule", "kernel", "lifetimes", "pressure", "all")


def _machine_from(args):
    try:
        return resolve_machine(args.machine)
    except ValueError as error:
        raise SystemExit(f"repro: {error}")


def _cache_from(args):
    """Resolve ``--cache-dir`` into a store up front, so a bad path (an
    existing file, an unwritable parent) is a clean CLI error instead of
    a traceback mid-run.  ``--max-bytes`` (where the subcommand takes
    it) overrides the store's eviction cap for the run."""
    from repro.sched import store as sched_store

    if args.cache_dir is None:
        return None
    try:
        store = sched_store.resolve_store(args.cache_dir)
    except OSError as error:
        raise SystemExit(
            f"repro: cannot use cache directory {args.cache_dir!r}:"
            f" {error}"
        )
    max_bytes = getattr(args, "max_bytes", None)
    if max_bytes is not None:
        if max_bytes <= 0:
            raise SystemExit("repro: --max-bytes must be positive")
        store.max_bytes = max_bytes
    return store


def _source_from(args) -> str:
    if args.expr:
        return args.expr
    if args.file == "-":
        return sys.stdin.read()
    with open(args.file) as handle:
        return handle.read()


def _add_loop_arguments(parser):
    parser.add_argument(
        "file", nargs="?", default="-",
        help="mini-language source file ('-' for stdin)",
    )
    parser.add_argument(
        "-e", "--expr", metavar="SOURCE",
        help="inline loop body instead of a file",
    )
    parser.add_argument(
        "--machine", default="P2L4",
        help=f"{', '.join(machine_names())} or generic:UNITS:LATENCY"
        " (default P2L4)",
    )


def _cmd_compile(args) -> int:
    options = {}
    # Strategies declare their accepted options in the registry, so the
    # --policy flag reaches every strategy that takes one (including
    # third-party registrations) without a name list here.
    if "policy" in strategy_options(args.method):
        options["policy"] = "max_lt" if args.policy == "lt" else "max_lt_traf"
    if args.connect:
        return _compile_connected(args, options)
    try:
        result = compile_loop(
            _source_from(args),
            machine=_machine_from(args),
            scheduler=args.scheduler,
            strategy=args.method,
            registers=args.registers,
            options=options,
            name=args.name,
            cache=_cache_from(args),
            verify=args.verify,
        )
    except ValueError as error:
        raise SystemExit(f"repro compile: {error}")
    except Exception as error:
        from repro.verify import VerificationError

        if isinstance(error, VerificationError):
            raise SystemExit(f"repro compile: {error}")
        raise

    if result.schedule is None:
        print(f"FAILED: {result.reason}")
        if args.json:
            print(result.to_json_text())
        return 1
    schedule = result.schedule
    print(result.render())
    if args.stage_pass:
        staged = reduce_stages(schedule)
        schedule = staged.schedule
        report = register_requirements(schedule)
        print(
            f"stage pass: SC={schedule.stage_count}"
            f" registers={report.total}"
            f" (saved {staged.registers_saved})"
        )
    if args.json:
        print(result.to_json_text())
    _show(args, schedule)
    return 0 if result.converged else 1


def _compile_connected(args, options: dict) -> int:
    """``repro compile --connect ADDR``: hand the request to a running
    ``repro serve`` daemon and print its (service-shaped) result."""
    from repro.client import ClientError, connect

    if args.show or args.stage_pass:
        raise SystemExit(
            "repro compile: --show/--stage-pass need the schedule"
            " artifact, which does not cross the wire; drop --connect"
        )
    if args.cache_dir is not None or args.max_bytes is not None:
        raise SystemExit(
            "repro compile: --cache-dir/--max-bytes configure the"
            " in-process store; the daemon owns its own cache"
            " (start it with 'repro serve --cache-dir ...')"
        )
    try:
        with connect(args.connect, fallback=False) as client:
            result = client.compile(
                _source_from(args),
                name=args.name,
                machine=args.machine,
                scheduler=args.scheduler,
                strategy=args.method,
                registers=args.registers,
                options=options,
            )
    except (OSError, ClientError, ValueError) as error:
        raise SystemExit(f"repro compile: --connect {args.connect}: {error}")
    if args.verify:
        # served results carry no artifacts, so the oracle recompiles
        # locally and cross-checks the daemon's scalars against it
        from repro.verify import verify_result

        oracle = verify_result(result, loop=_source_from(args))
        if not oracle.ok:
            print(oracle.render())
            return 1
    # mirror the local path: "FAILED" when no schedule exists at all
    # (ii is None), the render() verdict line otherwise
    if result.ii is None:
        print(f"FAILED: {result.reason}")
    else:
        print(result.render())
    if args.json:
        print(result.to_json_text())
    return 0 if result.converged else 1


def _show(args, schedule) -> None:
    wanted = set(args.show or [])
    if "all" in wanted:
        wanted = set(_SHOW_CHOICES) - {"all"}
    sections = [
        ("graph", lambda: str(schedule.ddg)),
        ("schedule", lambda: render_schedule(schedule)),
        ("kernel", lambda: render_kernel(schedule)),
        ("lifetimes", lambda: render_lifetimes(schedule)),
        ("pressure", lambda: render_pressure(schedule)),
    ]
    for name, renderer in sections:
        if name in wanted:
            print(f"\n--- {name} ---")
            print(renderer())


def _cmd_mii(args) -> int:
    machine = _machine_from(args)
    loop = ddg_from_source(_source_from(args), name=args.name)
    print(f"ResMII = {res_mii(loop, machine)}")
    print(f"RecMII = {rec_mii(loop, machine)}")
    print(f"MII    = {compute_mii(loop, machine)}")
    return 0


def _cmd_suite(args) -> int:
    from repro.workloads import perfect_club_like_suite

    machine = _machine_from(args)
    suite = perfect_club_like_suite(size=args.size)
    scheduler = create_scheduler(args.scheduler)
    rows = []
    needy = 0
    for workload in suite:
        schedule = scheduler.schedule(workload.ddg, machine)
        report = register_requirements(schedule)
        fits = report.fits(args.registers)
        needy += not fits
        rows.append([
            workload.name, len(workload.ddg), schedule.ii,
            report.total, "" if fits else "needs reduction",
        ])
    print(format_table(
        ["loop", "ops", "II", "registers", ""],
        rows,
        title=(
            f"suite of {len(suite)} loops on {machine.name}"
            f" / {args.registers} registers — {needy} need reduction"
        ),
    ))
    return 0


def _flush_sweep_trace(path: str) -> None:
    """Persist every span a traced sweep produced into the ``--trace``
    database (pool workers' spans came back with their results)."""
    from repro.metrics import MetricsDB
    from repro.trace import context as trace_context

    spans = trace_context.drain_spans()
    dropped = trace_context.dropped_count()
    if dropped:
        print(
            f"repro sweep: --trace: the {trace_context.SPAN_BUFFER_CAP}"
            f"-span buffer dropped {dropped} span(s), oldest first",
            file=sys.stderr,
        )
    if not spans:
        return
    with MetricsDB(path) as db:
        db.record_spans(spans)
    print(f"[{len(spans)} trace span(s) written to {path}]")


def _cmd_sweep(args) -> int:
    from repro.eval.engine import run_sweep
    from repro.workloads import (
        RandomDDGParams,
        perfect_club_like_suite,
        random_suite,
    )

    try:
        machines = [resolve_machine(spec) for spec in args.machines]
        names = [
            part.strip() for part in args.scheduler.split(",") if part.strip()
        ]
        if not names:
            raise ValueError("--scheduler needs at least one name")
        schedulers = [create_scheduler(name) for name in names]
    except ValueError as error:
        raise SystemExit(f"repro sweep: {error}")
    scheduler = schedulers if len(schedulers) > 1 else schedulers[0]
    if args.suite == "club":
        suite = perfect_club_like_suite(size=args.size, seed=args.seed)
        suite_info = {"kind": "club", "seed": args.seed}
    else:
        params = RandomDDGParams(
            ops=args.ops,
            recurrence_density=args.recurrence_density,
            load_mix=args.load_mix,
            store_mix=args.store_mix,
        )
        try:
            params.validate()
        except ValueError as error:
            raise SystemExit(f"repro sweep: {error}")
        suite = random_suite(size=args.size, seed=args.seed, params=params)
        suite_info = {
            "kind": "random",
            "seed": args.seed,
            "ops": args.ops,
            "recurrence_density": args.recurrence_density,
            "load_mix": args.load_mix,
            "store_mix": args.store_mix,
        }
    if args.trace:
        import os

        from repro import trace as trace_mod

        # The env var (not just the in-process switch) so forked pool
        # workers inherit tracing; worker spans come back with the
        # results of each chunk.
        os.environ[trace_mod.ENV_VAR] = "1"
        trace_mod.enable(True)
    cluster = None
    if args.connect:
        if args.cache_dir is not None or args.max_bytes is not None:
            raise SystemExit(
                "repro sweep: --cache-dir/--max-bytes configure the"
                " in-process store; with --connect each shard daemon"
                " owns its own cache (start them with"
                " 'repro serve --cache-dir ...')"
            )
        from repro.cluster import ClusterClient

        try:
            cluster = ClusterClient(args.connect, token=args.token)
        except ValueError as error:
            raise SystemExit(f"repro sweep: --connect: {error}")
    try:
        report = run_sweep(
            suite=suite,
            machines=machines,
            budgets=tuple(args.budgets),
            artifacts=tuple(args.artifacts),
            jobs=args.jobs,
            scheduler=scheduler,
            suite_info=suite_info,
            cache_dir=None if cluster is not None else _cache_from(args),
            suite_filter=args.suite_filter,
            cluster=cluster,
            verify=args.verify,
        )
    except ValueError as error:
        raise SystemExit(f"repro sweep: {error}")
    except Exception as error:
        from repro.client import ClientError

        if cluster is not None and isinstance(error, (OSError, ClientError)):
            raise SystemExit(
                f"repro sweep: --connect {args.connect}: {error}"
            )
        raise
    finally:
        if cluster is not None:
            cluster.close()
        if args.trace:
            _flush_sweep_trace(args.trace)
    print(report.render())
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(report.to_json_text())
            handle.write("\n")
        print(f"[json written to {args.json_out}]")
    return 0


def _cmd_fuzz(args) -> int:
    from repro.robust.fuzz import (
        FuzzConfig,
        replay_reproducer,
        run_fuzz,
        shrinker_self_check,
    )
    from repro.workloads import RandomDDGParams

    if args.replay:
        problems = replay_reproducer(args.replay)
        if problems:
            print(f"reproduces ({len(problems)} violation(s)):")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print("no longer reproduces")
        return 0
    if args.self_check:
        outcome = shrinker_self_check(args.seed)
        print(
            f"shrinker self-check: {outcome['start_ops']} ops ->"
            f" {outcome['shrunk_ops']} ops"
            f" ({outcome['shrunk_source']!r})"
        )
        if outcome["shrunk_ops"] > 8:
            print("FAILED: shrinker left more than 8 operations")
            return 1
        return 0
    params = RandomDDGParams(
        ops=args.ops,
        recurrence_density=args.recurrence_density,
        load_mix=args.load_mix,
        store_mix=args.store_mix,
    )
    try:
        params.validate()
        config = FuzzConfig(
            iterations=args.iterations,
            seed=args.seed,
            machines=tuple(args.machines),
            schedulers=tuple(args.schedulers),
            strategies=tuple(args.strategies),
            registers=tuple(args.registers),
            params=params,
            shrink=not args.no_shrink,
        )
        report = run_fuzz(config, corpus_dir=args.corpus, log=print)
    except ValueError as error:
        raise SystemExit(f"repro fuzz: {error}")
    print(report.render())
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(report.to_json_text())
            handle.write("\n")
        print(f"[json written to {args.json_out}]")
    return 0 if report.ok else 1


def _cmd_robust(args) -> int:
    from repro.robust import PerturbSpec, run_robustness

    try:
        spec = PerturbSpec(
            latency=args.jitter_latency,
            units=args.jitter_units,
            distance=args.jitter_distance,
            rate=args.jitter_rate,
        )
        report = run_robustness(
            _source_from(args),
            machine=_machine_from(args),
            scheduler=args.scheduler,
            strategy=args.method,
            registers=args.registers,
            spec=spec,
            runs=args.runs,
            seed=args.seed,
            name=args.name,
        )
    except ValueError as error:
        raise SystemExit(f"repro robust: {error}")
    print(report.render())
    if args.json_out:
        with open(args.json_out, "w") as handle:
            handle.write(report.to_json_text())
            handle.write("\n")
        print(f"[json written to {args.json_out}]")
    return 0 if report.oracle_passes == len(report.rows) else 1


def _cmd_cache(args) -> int:
    from repro.sched import store as sched_store

    directory = args.cache_dir
    if directory is None:
        import os

        directory = os.environ.get(sched_store.ENV_CACHE_DIR)
    if not directory:
        raise SystemExit(
            "repro cache: no cache directory (pass --cache-dir or set"
            f" ${sched_store.ENV_CACHE_DIR})"
        )
    import pathlib

    if not pathlib.Path(directory).is_dir():
        # Resolving a store would silently mkdir the path — on a typo an
        # operator would "clear" a brand-new empty directory and walk
        # away thinking the real cache is gone.
        raise SystemExit(
            f"repro cache: {directory!r} is not an existing directory"
        )
    try:
        store = sched_store.resolve_store(directory)
    except OSError as error:
        raise SystemExit(
            f"repro: cannot use cache directory {directory!r}: {error}"
        )
    if args.cache_command == "stats":
        telemetry = store.stats()
        print(f"store: {telemetry['root']}")
        print(f"version: {telemetry['version']}")
        for namespace in sorted(telemetry["namespaces"]):
            block = telemetry["namespaces"][namespace]
            print(
                f"  {namespace:>10}: {block['entries']} entries,"
                f" {block['bytes']} bytes"
            )
        print(
            f"total: {telemetry['entries']} entries,"
            f" {telemetry['total_bytes']} bytes (cap {store.max_bytes})"
        )
        return 0
    if args.cache_command == "clear":
        removed = len(store.entries())
        store.clear()
        print(f"cleared {removed} entries from {store.root}")
        return 0
    if args.cache_command == "prune":
        max_bytes = args.max_bytes  # only the prune subparser has it
        if max_bytes is not None and max_bytes <= 0:
            raise SystemExit("repro cache: --max-bytes must be positive")
        before = store.total_bytes()
        cap = max_bytes if max_bytes is not None else store.max_bytes
        if args.dry_run:
            victims: list = []
            remaining = store.evict(max_bytes, dry_run=True, victims=victims)
            for path in victims:
                print(f"would delete {path.relative_to(store.root)}")
            print(
                f"dry run on {store.root}: {before} -> {remaining} bytes"
                f" (cap {cap}, {len(victims)} entries would go)"
            )
            return 0
        remaining = store.evict(max_bytes)
        print(
            f"pruned {store.root}: {before} -> {remaining} bytes"
            f" (cap {cap})"
        )
        return 0
    raise SystemExit(f"repro cache: unknown action {args.cache_command!r}")


def _cmd_serve(args) -> int:
    import os

    from repro.server import CompileService, serve

    if args.jobs < 1:
        raise SystemExit("repro serve: --jobs must be >= 1")
    if args.http is not None and not (0 <= args.http <= 65535):
        raise SystemExit("repro serve: --http PORT must be 0..65535")
    if args.tcp is not None:
        from repro.server.protocol import parse_tcp_address

        try:
            parse_tcp_address(args.tcp)
        except ValueError:
            raise SystemExit(
                f"repro serve: bad --tcp address {args.tcp!r}"
                " (expected [HOST:]PORT)"
            )
    token = args.token or os.environ.get("REPRO_TOKEN") or None
    if args.trace:
        from repro import trace as trace_mod

        # env var too, so pool workers forked by batches inherit it
        os.environ[trace_mod.ENV_VAR] = "1"
        trace_mod.enable(True)
    store = _cache_from(args)
    metrics = args.metrics
    if metrics is None and store is not None:
        # persistence rides along with the cache dir by default: one
        # operator-owned directory per shard holds both
        from repro.metrics import metrics_path

        metrics = str(metrics_path(store.root))
    service = CompileService(
        cache=store, jobs=args.jobs, metrics=metrics
    )
    return serve(
        service,
        http_port=args.http,
        socket_path=args.socket,
        stdio=args.stdio,
        tcp=args.tcp,
        token=token,
    )


def _cluster_client_from(args):
    from repro.cluster import ClusterClient

    if not args.connect:
        raise SystemExit(
            "repro cluster: --connect ADDR[,ADDR...] is required"
        )
    try:
        return ClusterClient(args.connect, token=args.token)
    except ValueError as error:
        raise SystemExit(f"repro cluster: {error}")


def _trace_db_paths(args) -> list[str]:
    """Resolve ``--metrics`` / ``--cache-dir`` (both repeatable) into
    existing metrics-database paths, erroring on a missing file so a
    typo reads as a typo and not as an empty trace set."""
    import pathlib

    from repro.metrics import metrics_path

    paths = list(args.metrics or [])
    paths.extend(
        str(metrics_path(directory)) for directory in args.cache_dir or []
    )
    if not paths:
        raise SystemExit(
            "repro trace: pass --metrics PATH and/or --cache-dir DIR"
            " (repeatable; spans from every database are merged)"
        )
    for path in paths:
        if not pathlib.Path(path).is_file():
            raise SystemExit(
                f"repro trace: no metrics database at {path!r}"
            )
    return paths


def _cmd_trace(args) -> int:
    from repro.trace import report as trace_report

    spans = trace_report.load_spans(_trace_db_paths(args))
    if args.json:
        print(trace_report.export_text(spans))
        return 0
    if args.trace_command == "show":
        print(
            trace_report.render_show(
                spans, trace_id=args.trace_id, limit=args.limit
            )
        )
        return 0
    if args.trace_command == "top":
        print(trace_report.render_top(spans))
        return 0
    if args.trace_command == "slow":
        print(
            trace_report.render_slow(
                spans, limit=args.limit, layer=args.layer
            )
        )
        return 0
    raise SystemExit(f"repro trace: unknown action {args.trace_command!r}")


def _cmd_cluster_prune(args) -> int:
    """``repro cluster stats --prune-older-than DAYS``: offline
    retention pruning of persisted metrics databases."""
    import pathlib
    import time

    from repro.metrics import MetricsDB, metrics_path

    if args.prune_older_than <= 0:
        raise SystemExit(
            "repro cluster stats: --prune-older-than must be a positive"
            " number of days"
        )
    paths = list(args.metrics or [])
    paths.extend(
        str(metrics_path(directory)) for directory in args.cache_dir or []
    )
    if not paths:
        raise SystemExit(
            "repro cluster stats: --prune-older-than needs --metrics PATH"
            " and/or --cache-dir DIR (repeatable) naming the shard"
            " databases to prune"
        )
    cutoff = time.time() - args.prune_older_than * 86400.0
    for path in paths:
        if not pathlib.Path(path).is_file():
            raise SystemExit(
                f"repro cluster stats: no metrics database at {path!r}"
            )
        with MetricsDB(path) as db:
            victims = db.prune_older_than(cutoff, dry_run=args.dry_run)
        total = sum(victims.values())
        detail = " ".join(
            f"{table}={victims[table]}" for table in sorted(victims)
        )
        if args.dry_run:
            print(
                f"dry run on {path}: {total} row(s) older than"
                f" {args.prune_older_than:g} day(s) would go ({detail})"
            )
        else:
            print(
                f"pruned {path}: {total} row(s) older than"
                f" {args.prune_older_than:g} day(s) deleted ({detail})"
            )
    return 0


def _cmd_cluster(args) -> int:
    import json as json_mod

    if args.cluster_command == "stats":
        if args.prune_older_than is not None:
            return _cmd_cluster_prune(args)
        client = _cluster_client_from(args)
        try:
            document = client.stats()
        finally:
            client.close()
        if args.json:
            print(json_mod.dumps(document, indent=2, sort_keys=True))
            return 0
        for address in document["nodes"]:
            shard = document["shards"][address]
            if "error" in shard:
                print(f"{address}: unreachable ({shard['error']})")
                continue
            service = shard.get("service") or {}
            print(
                f"{address}: requests={service.get('requests', 0)}"
                f" batches={service.get('batches', 0)}"
                f" coalesced={service.get('coalesced', 0)}"
                f" cells={service.get('cells', 0)}"
                f" errors={service.get('errors', 0)}"
            )
            latency = (shard.get("metrics") or {}).get("latency") or {}
            for op in sorted(latency):
                digest = latency[op]
                print(
                    f"  {op}: n={digest['count']}"
                    f" p50={digest['p50_ms']}ms p90={digest['p90_ms']}ms"
                    f" p99={digest['p99_ms']}ms max={digest['max_ms']}ms"
                )
        totals = document["cluster"]["service"]
        print(
            "cluster: "
            + " ".join(f"{name}={totals[name]}" for name in sorted(totals))
        )
        return 0
    if args.cluster_command == "top":
        import pathlib

        from repro.metrics import MetricsDB, metrics_path, percentile

        path = args.metrics
        if path is None and args.cache_dir is not None:
            path = str(metrics_path(args.cache_dir))
        if path is None:
            raise SystemExit(
                "repro cluster top: pass --metrics PATH or --cache-dir DIR"
            )
        if not pathlib.Path(path).is_file():
            raise SystemExit(
                f"repro cluster top: no metrics database at {path!r}"
            )
        with MetricsDB(path) as db:
            totals = db.counter_totals()
            print(f"metrics: {path}")
            if totals:
                width = max(len(name) for name in totals)
                for name in sorted(totals):
                    print(f"  {name:<{width}}  {totals[name]}")
            else:
                print("  (no counters recorded)")
            for op in db.latency_ops():
                histogram = db.histogram(op)
                count = sum(histogram.values())
                print(
                    f"  latency[{op}]: n={count}"
                    f" p50={percentile(histogram, 50):.3g}ms"
                    f" p90={percentile(histogram, 90):.3g}ms"
                    f" p99={percentile(histogram, 99):.3g}ms"
                )
        return 0
    raise SystemExit(
        f"repro cluster: unknown action {args.cluster_command!r}"
    )


def _cmd_chaos(args) -> int:
    import pathlib

    from repro.faults.chaos import ChaosError, run_chaos

    if args.size < 1:
        raise SystemExit("repro chaos: --size must be >= 1")
    if args.jobs < 2:
        raise SystemExit(
            "repro chaos: --jobs must be >= 2 (the worker-kill shard"
            " needs a real pool)"
        )
    try:
        report = run_chaos(
            size=args.size,
            seed=args.seed,
            jobs=args.jobs,
            budgets=tuple(args.budgets),
            machine_names=tuple(args.machines),
            down_ttl=args.down_ttl,
            verify=not args.no_verify,
            artifacts_dir=args.artifacts_dir,
            skip_restart=args.no_restart,
            log=lambda message: print(f"repro chaos: {message}"),
        )
    except ChaosError as error:
        raise SystemExit(f"repro chaos: {error}")
    print(report.render())
    if args.json_out:
        path = pathlib.Path(args.json_out)
        path.write_text(report.to_json_text() + "\n")
        print(f"report written to {path}")
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="register-constrained software pipelining"
        " (Llosa/Valero/Ayguade, MICRO 1996)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compile_parser = sub.add_parser(
        "compile", help="schedule a loop under a register budget"
    )
    _add_loop_arguments(compile_parser)
    compile_parser.add_argument("--name", default="loop")
    compile_parser.add_argument(
        "--registers", type=int, default=32, metavar="N"
    )
    compile_parser.add_argument(
        "--method", choices=tuple(strategy_names()), default="combined",
        help="register-pressure strategy (default combined)",
    )
    compile_parser.add_argument(
        "--scheduler", choices=tuple(scheduler_names()), default="hrms"
    )
    compile_parser.add_argument(
        "--policy", choices=("lt", "lt_traf"), default="lt_traf",
        help="spill selection heuristic",
    )
    compile_parser.add_argument(
        "--stage-pass", action="store_true",
        help="run the stage-scheduling post-pass on the result",
    )
    compile_parser.add_argument(
        "--json", action="store_true",
        help="also print the CompilationResult as JSON",
    )
    compile_parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent schedule cache directory (shared across runs;"
        " default: $REPRO_CACHE_DIR if set)",
    )
    compile_parser.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="size cap for --cache-dir eviction (default 512 MiB)",
    )
    compile_parser.add_argument(
        "--connect", metavar="ADDR", default=None,
        help="send the request to a running 'repro serve' daemon"
        " (http://host:port or a unix-socket path) instead of"
        " compiling in-process",
    )
    compile_parser.add_argument(
        "--show", nargs="*", choices=_SHOW_CHOICES, metavar="SECTION",
        help=f"artifacts to print: {', '.join(_SHOW_CHOICES)}",
    )
    compile_parser.add_argument(
        "--verify", action="store_true",
        help="re-derive every scheduling invariant with the independent"
        " repro.verify oracle (with --connect: recompile locally and"
        " cross-check the daemon's answer)",
    )
    compile_parser.set_defaults(func=_cmd_compile)

    mii_parser = sub.add_parser("mii", help="print the loop's MII bounds")
    _add_loop_arguments(mii_parser)
    mii_parser.add_argument("--name", default="loop")
    mii_parser.set_defaults(func=_cmd_mii)

    suite_parser = sub.add_parser(
        "suite", help="summarize the evaluation suite"
    )
    suite_parser.add_argument("--size", type=int, default=24)
    suite_parser.add_argument("--registers", type=int, default=32)
    suite_parser.add_argument("--machine", default="P2L4")
    suite_parser.add_argument(
        "--scheduler", choices=tuple(scheduler_names()), default="hrms"
    )
    suite_parser.set_defaults(func=_cmd_suite)

    sweep_parser = sub.add_parser(
        "sweep",
        help="regenerate evaluation artifacts via the experiment engine",
    )
    sweep_parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker processes (1 = serial; results identical either way)",
    )
    sweep_parser.add_argument(
        "--json-out", metavar="PATH",
        help="write machine-readable results (schema repro.sweep/1)",
    )
    sweep_parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent schedule cache shared by all workers and"
        " across runs (a repeat sweep into the same directory is"
        " served from disk; default: $REPRO_CACHE_DIR if set)",
    )
    sweep_parser.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="size cap for --cache-dir eviction (default 512 MiB)",
    )
    sweep_parser.add_argument(
        "--artifacts", nargs="+", metavar="NAME",
        choices=("table1", "fig4", "fig7", "fig8", "fig9"),
        default=["table1", "fig8"],
        help="artifacts to regenerate (default: table1 fig8)",
    )
    sweep_parser.add_argument(
        "--machines", nargs="+", metavar="SPEC",
        default=["P1L4", "P2L4", "P2L6"],
        help=f"machine filter: {' '.join(machine_names())}"
        " or generic:UNITS:LATENCY",
    )
    sweep_parser.add_argument(
        "--scheduler", default="hrms", metavar="NAME[,NAME...]",
        help="modulo scheduler(s) every cell runs on — a comma-separated"
        f" list of {', '.join(scheduler_names())} runs the whole grid"
        " once per scheduler into one combined artifact (default hrms)",
    )
    sweep_parser.add_argument(
        "--suite-filter", metavar="CATEGORY[,CATEGORY...]", default=None,
        help="restrict the suite to the named workload categories"
        " (e.g. high_pressure,nonconvergent)",
    )
    sweep_parser.add_argument(
        "--budgets", nargs="+", type=int, default=[64, 32], metavar="N",
        help="register budgets to sweep (default: 64 32)",
    )
    sweep_parser.add_argument(
        "--suite", choices=("club", "random"), default="club",
        help="loop population: the calibrated perfect-club-like suite or"
        " the parameterized random generator",
    )
    sweep_parser.add_argument(
        "--size", type=int, default=None, metavar="N",
        help="suite size (default: REPRO_SUITE_SIZE or 160)",
    )
    sweep_parser.add_argument("--seed", type=int, default=1996)
    sweep_parser.add_argument(
        "--ops", type=int, default=12,
        help="random suite: statement-op budget per loop",
    )
    sweep_parser.add_argument(
        "--recurrence-density", type=float, default=0.15,
        help="random suite: probability a statement closes a recurrence",
    )
    sweep_parser.add_argument(
        "--load-mix", type=float, default=0.55,
        help="random suite: probability an expression leaf is a load",
    )
    sweep_parser.add_argument(
        "--store-mix", type=float, default=0.3,
        help="random suite: probability a statement stores to memory",
    )
    sweep_parser.add_argument(
        "--connect", metavar="ADDR[,ADDR...]", default=None,
        help="route every cell through running 'repro serve' daemons"
        " (tcp://host:port, host:port, http://..., or socket paths;"
        " several addresses shard by consistent hashing) instead of"
        " evaluating in-process",
    )
    sweep_parser.add_argument(
        "--token", default=None,
        help="shared authentication token for --connect daemons"
        " (default: $REPRO_TOKEN)",
    )
    sweep_parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record an end-to-end trace of the run (client, service,"
        " and worker spans with per-phase times) into this repro.metrics/2"
        " database — sweep output bytes are unchanged; inspect with"
        " 'repro trace show|top|slow --metrics PATH'",
    )
    sweep_parser.add_argument(
        "--verify", action="store_true",
        help="run the independent repro.verify oracle on every schedule"
        " the sweep produces (output bytes unchanged; an invalid"
        " schedule aborts the run)",
    )
    sweep_parser.set_defaults(func=_cmd_sweep)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="differential-fuzz random loops through every scheduler x"
        " strategy, oracle-checking each result",
    )
    fuzz_parser.add_argument(
        "--iterations", "-n", type=int, default=100, metavar="N",
        help="random loops to generate (each compiles through every"
        " scheduler x strategy; default 100)",
    )
    fuzz_parser.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed; iteration i draws from derive_seed(seed, i)"
        " so any failure replays in isolation (default 0)",
    )
    fuzz_parser.add_argument(
        "--machines", nargs="+", metavar="SPEC",
        default=["P2L4", "P1L4"],
        help=f"machines cycled across iterations: {' '.join(machine_names())}"
        " or generic:UNITS:LATENCY (default: P2L4 P1L4)",
    )
    fuzz_parser.add_argument(
        "--schedulers", nargs="+", metavar="NAME",
        choices=tuple(scheduler_names()), default=list(scheduler_names()),
        help="schedulers to cross (default: all)",
    )
    fuzz_parser.add_argument(
        "--strategies", nargs="+", metavar="NAME",
        choices=tuple(strategy_names()), default=list(strategy_names()),
        help="register strategies to cross (default: all)",
    )
    fuzz_parser.add_argument(
        "--registers", nargs="+", type=int, default=[16, 32], metavar="N",
        help="register budgets cycled across iterations (default: 16 32)",
    )
    fuzz_parser.add_argument(
        "--ops", type=int, default=12,
        help="statement-op budget per random loop",
    )
    fuzz_parser.add_argument(
        "--recurrence-density", type=float, default=0.15,
        help="probability a statement closes a recurrence",
    )
    fuzz_parser.add_argument(
        "--load-mix", type=float, default=0.55,
        help="probability an expression leaf is a load",
    )
    fuzz_parser.add_argument(
        "--store-mix", type=float, default=0.3,
        help="probability a statement stores to memory",
    )
    fuzz_parser.add_argument(
        "--corpus", metavar="DIR", default=None,
        help="write each shrunk failure as a replayable reproducer"
        " document into this directory",
    )
    fuzz_parser.add_argument(
        "--no-shrink", action="store_true",
        help="keep failing loops at full size (faster triage loop)",
    )
    fuzz_parser.add_argument(
        "--replay", metavar="PATH", default=None,
        help="re-run one reproducer document from a --corpus directory"
        " instead of fuzzing",
    )
    fuzz_parser.add_argument(
        "--self-check", action="store_true",
        help="dry-run the shrinker on an injected failure and assert it"
        " minimizes to <= 8 operations (the CI gate)",
    )
    fuzz_parser.add_argument(
        "--json-out", metavar="PATH",
        help="write the campaign report (schema repro.fuzz/1)",
    )
    fuzz_parser.set_defaults(func=_cmd_fuzz)

    robust_parser = sub.add_parser(
        "robust",
        help="perturbation-robustness statistics for one loop (seeded"
        " latency/unit/distance jitter, every run oracle-checked)",
    )
    _add_loop_arguments(robust_parser)
    robust_parser.add_argument("--name", default="loop")
    robust_parser.add_argument(
        "--scheduler", choices=tuple(scheduler_names()), default="hrms"
    )
    robust_parser.add_argument(
        "--method", choices=tuple(strategy_names()), default="combined",
        help="register-pressure strategy (default combined)",
    )
    robust_parser.add_argument("--registers", type=int, default=32)
    robust_parser.add_argument(
        "--runs", type=int, default=20, metavar="N",
        help="perturbed compilations to measure (default 20)",
    )
    robust_parser.add_argument(
        "--seed", type=int, default=0,
        help="harness seed; run i jitters with derive_seed(seed, i)",
    )
    robust_parser.add_argument(
        "--jitter-latency", type=int, default=1, metavar="CYCLES",
        help="max absolute latency jitter per opcode (default 1)",
    )
    robust_parser.add_argument(
        "--jitter-units", type=int, default=1, metavar="COUNT",
        help="max absolute unit-count jitter per FU class (default 1)",
    )
    robust_parser.add_argument(
        "--jitter-distance", type=int, default=0, metavar="ITERS",
        help="max absolute jitter of loop-carried dependence distances"
        " (default 0 = distances untouched)",
    )
    robust_parser.add_argument(
        "--jitter-rate", type=float, default=0.5, metavar="P",
        help="per-item probability a latency/count/edge is jittered"
        " (default 0.5)",
    )
    robust_parser.add_argument(
        "--json-out", metavar="PATH",
        help="write the robustness report (schema repro.robust/1)",
    )
    robust_parser.set_defaults(func=_cmd_robust)

    cache_parser = sub.add_parser(
        "cache",
        help="inspect or clear a persistent schedule-cache directory",
    )
    cache_sub = cache_parser.add_subparsers(
        dest="cache_command", required=True
    )
    for action, description in (
        ("stats", "entry counts and bytes per namespace"),
        ("clear", "delete every entry (the directory is kept)"),
        ("prune", "evict oldest entries down to the size cap"),
    ):
        action_parser = cache_sub.add_parser(action, help=description)
        action_parser.add_argument(
            "--cache-dir", metavar="DIR", default=None,
            help="store directory (default: $REPRO_CACHE_DIR)",
        )
        if action == "prune":
            action_parser.add_argument(
                "--max-bytes", type=int, default=None, metavar="N",
                help="evict down to this cap instead of the store's"
                " default (512 MiB)",
            )
            action_parser.add_argument(
                "--dry-run", action="store_true",
                help="report what eviction would delete without"
                " deleting anything",
            )
        action_parser.set_defaults(func=_cmd_cache)

    serve_parser = sub.add_parser(
        "serve",
        help="run the long-lived compilation daemon (warm pool + shared"
        " store across clients)",
    )
    serve_parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="worker-pool width per batch (1 = compile in the daemon"
        " process; default 1)",
    )
    serve_parser.add_argument(
        "--http", type=int, default=None, metavar="PORT",
        help="serve HTTP on 127.0.0.1:PORT (0 picks a free port;"
        " endpoints: POST /compile, POST /compile_many, GET /healthz,"
        " GET /stats, POST /shutdown)",
    )
    serve_parser.add_argument(
        "--socket", metavar="PATH", default=None,
        help="serve the line-delimited JSON protocol on a unix socket",
    )
    serve_parser.add_argument(
        "--tcp", metavar="[HOST:]PORT", default=None,
        help="serve the line protocol on a TCP socket (the cluster"
        " transport; 0 picks a free port; combine with --token)",
    )
    serve_parser.add_argument(
        "--stdio", action="store_true",
        help="serve the line protocol on stdin/stdout (the default when"
        " no other transport is given)",
    )
    serve_parser.add_argument(
        "--token", default=None,
        help="shared authentication token: socket/TCP/HTTP requests"
        " without it are rejected (default: $REPRO_TOKEN; stdio and"
        " GET /healthz stay open)",
    )
    serve_parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent schedule cache the daemon owns for its whole"
        " lifetime (default: $REPRO_CACHE_DIR if set)",
    )
    serve_parser.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="size cap for --cache-dir eviction (default 512 MiB)",
    )
    serve_parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="SQLite metrics database (latency histograms + counter"
        " time series; default: metrics.sqlite inside --cache-dir,"
        " in-memory only without one)",
    )
    serve_parser.add_argument(
        "--trace", action="store_true",
        help="record spans for every request this daemon handles (not"
        " just propagated ones) into the metrics database; response"
        " bytes are unchanged",
    )
    serve_parser.set_defaults(func=_cmd_serve)

    trace_parser = sub.add_parser(
        "trace",
        help="inspect persisted request traces (span trees, phase"
        " breakdown, slowest spans) from repro.metrics/2 databases",
    )
    trace_sub = trace_parser.add_subparsers(
        dest="trace_command", required=True
    )
    for action, description in (
        ("show", "render the newest traces (or one trace) as span trees"),
        ("top", "aggregate per-phase profile across every trace"),
        ("slow", "the slowest spans, optionally of one layer"),
    ):
        action_parser = trace_sub.add_parser(action, help=description)
        action_parser.add_argument(
            "--metrics", metavar="PATH", action="append", default=None,
            help="metrics database to read (repeatable; spans merge"
            " across databases by trace_id)",
        )
        action_parser.add_argument(
            "--cache-dir", metavar="DIR", action="append", default=None,
            help="shard cache directory holding metrics.sqlite"
            " (repeatable)",
        )
        action_parser.add_argument(
            "--json", action="store_true",
            help="print the full repro.trace/2 export instead of text",
        )
        if action == "show":
            action_parser.add_argument(
                "trace_id", nargs="?", default=None,
                help="show only this trace (unambiguous id prefix ok)",
            )
        if action in ("show", "slow"):
            action_parser.add_argument(
                "--limit", type=int, default=10, metavar="N",
                help="how many traces/spans to show (default 10)",
            )
        if action == "slow":
            action_parser.add_argument(
                "--layer", default=None,
                choices=LAYERS,
                help="restrict to one span layer",
            )
        action_parser.set_defaults(func=_cmd_trace)

    cluster_parser = sub.add_parser(
        "cluster",
        help="inspect a sharded daemon cluster (per-shard + aggregated"
        " stats, persisted metrics)",
    )
    cluster_sub = cluster_parser.add_subparsers(
        dest="cluster_command", required=True
    )
    stats_parser = cluster_sub.add_parser(
        "stats", help="per-shard /stats plus a cluster-wide aggregate"
    )
    stats_parser.add_argument(
        "--connect", metavar="ADDR[,ADDR...]", default=None,
        help="shard daemon addresses (consistent-hash ring order"
        " does not matter)",
    )
    stats_parser.add_argument(
        "--token", default=None,
        help="shared authentication token (default: $REPRO_TOKEN)",
    )
    stats_parser.add_argument(
        "--json", action="store_true",
        help="print the raw aggregated document as JSON",
    )
    stats_parser.add_argument(
        "--prune-older-than", type=float, default=None, metavar="DAYS",
        help="instead of querying the cluster: delete metrics/trace"
        " rows older than DAYS days from the named databases"
        " (offline retention pruning; combine with --dry-run)",
    )
    stats_parser.add_argument(
        "--dry-run", action="store_true",
        help="with --prune-older-than: report what would be deleted"
        " without touching the databases",
    )
    stats_parser.add_argument(
        "--metrics", metavar="PATH", action="append", default=None,
        help="metrics database for --prune-older-than (repeatable)",
    )
    stats_parser.add_argument(
        "--cache-dir", metavar="DIR", action="append", default=None,
        help="shard cache directory holding metrics.sqlite for"
        " --prune-older-than (repeatable)",
    )
    stats_parser.set_defaults(func=_cmd_cluster)
    top_parser = cluster_sub.add_parser(
        "top", help="read one shard's persisted metrics database"
    )
    top_parser.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="metrics database file (what 'repro serve --metrics'"
        " wrote)",
    )
    top_parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="shard cache directory holding metrics.sqlite",
    )
    top_parser.set_defaults(func=_cmd_cluster)

    chaos_parser = sub.add_parser(
        "chaos",
        help="run the seeded fault schedule against a live local"
        " cluster and assert sweep byte-identity (see REPRO_FAULTS in"
        " docs/TESTING.md)",
    )
    chaos_parser.add_argument(
        "--size", type=int, default=6, metavar="N",
        help="suite size for the chaos sweep (default 6)",
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=None,
        help="suite + fault-plan seed (default: the suite default)",
    )
    chaos_parser.add_argument(
        "--jobs", "-j", type=int, default=2, metavar="N",
        help="pool width of the worker-kill shard (default 2)",
    )
    chaos_parser.add_argument(
        "--budgets", type=int, nargs="+", default=[32], metavar="R",
        help="register budgets for the sweep (default: 32)",
    )
    chaos_parser.add_argument(
        "--machines", nargs="+", default=["P2L4"], metavar="NAME",
        choices=machine_names(),
        help="machine configurations for the sweep (default: P2L4)",
    )
    chaos_parser.add_argument(
        "--down-ttl", type=float, default=2.0, metavar="SECONDS",
        help="cluster down-set TTL: how long a dead shard is skipped"
        " before re-probing (default 2.0)",
    )
    chaos_parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the independent schedule oracle on every cell",
    )
    chaos_parser.add_argument(
        "--no-restart", action="store_true",
        help="skip the shard-rebirth phase (no recovery assertion)",
    )
    chaos_parser.add_argument(
        "--artifacts-dir", metavar="DIR", default=None,
        help="write per-phase sweep JSON here for external cmp"
        " (default: a temporary directory)",
    )
    chaos_parser.add_argument(
        "--json-out", metavar="PATH", default=None,
        help="write the machine-readable chaos report here",
    )
    chaos_parser.set_defaults(func=_cmd_chaos)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
