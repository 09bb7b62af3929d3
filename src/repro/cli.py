"""Command-line interface: ``wasai scan | gen | bench | serve | ...``.

Examples::

    # Generate a vulnerable contract and write contract.wasm + ABI
    wasai gen --no-fake-eos-guard --out victim

    # Scan a contract binary (concolic fuzz + the five detectors)
    wasai scan victim.wasm --abi victim.abi.json

    # Run the Table 4 evaluation at a small scale
    wasai bench table4 --scale 0.02

    # Run the scan daemon, then submit work to it
    wasai serve --port 8734 --store scans.db
    wasai submit victim.wasm --abi victim.abi.json --wait
    wasai status <job-id> --url http://127.0.0.1:8734
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .benchgen import (ContractConfig, build_table4_corpus,
                       generate_contract, obfuscated_variant,
                       verification_variant)
from .eosio.abi import Abi
from .harness import (DEFAULT_TIMEOUT_MS, evaluate_corpus, run_eosafe,
                      run_eosfuzzer, run_wasai)
from .scanner import format_report
from .wasm import encode_module

__all__ = ["main"]


def _oracles_spec(text: str) -> tuple:
    """argparse type for ``--oracles``: resolve family names/aliases,
    turning a typo into a usage error (exit 2), not a stack trace."""
    from .semoracle import UnknownOracleFamily, resolve_oracles
    try:
        return resolve_oracles(text)
    except UnknownOracleFamily as exc:
        raise argparse.ArgumentTypeError(str(exc))


_ORACLES_HELP = ("comma-separated oracle families to enable "
                 "(names or the aliases paper5/semantic/all; "
                 "default: the paper's five)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="wasai",
        description="WASAI: concolic fuzzing of Wasm smart contracts")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="fuzz + scan one contract binary")
    scan.add_argument("wasm", type=Path, help="contract .wasm file")
    scan.add_argument("--abi", type=Path, required=True,
                      help="ABI JSON file")
    scan.add_argument("--timeout-ms", type=float,
                      default=DEFAULT_TIMEOUT_MS,
                      help="virtual fuzzing budget (default 30000)")
    scan.add_argument("--tool", choices=("wasai", "eosfuzzer", "eosafe"),
                      default="wasai")
    scan.add_argument("--seed", type=int, default=1)
    scan.add_argument("--json", action="store_true",
                      help="emit the report as JSON")
    scan.add_argument("--exploits", action="store_true",
                      help="print replayable exploit payloads for "
                           "every confirmed finding")
    scan.add_argument("--address-pool", action="store_true",
                      help="mine bytecode constants for caller "
                           "identities (resolves admin-gated FNs)")
    scan.add_argument("--max-module-bytes", type=int, default=None,
                      help="ingestion budget: reject binaries larger "
                           "than this (default 8 MiB)")
    scan.add_argument("--max-memory-pages", type=int, default=None,
                      help="cap on Wasm linear memory growth during "
                           "fuzzing, in 64 KiB pages (default 1024)")
    scan.add_argument("--no-translate", dest="translate",
                      action="store_false", default=True,
                      help="run the generic reference interpreter instead "
                           "of the direct-threaded translation layer")
    scan.add_argument("--no-divergence-check", dest="divergence_check",
                      action="store_false",
                      help="disable the concolic divergence sentinel "
                           "(trace/replay cross-checking)")
    scan.add_argument("--oracles", type=_oracles_spec, default=None,
                      help=_ORACLES_HELP)

    gen = sub.add_parser("gen", help="generate a benchmark contract")
    gen.add_argument("--out", type=Path, default=Path("victim"),
                     help="output prefix (<out>.wasm, <out>.abi.json)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--maze-depth", type=int, default=2)
    gen.add_argument("--reward", choices=("inline", "defer", "none"),
                     default="defer")
    for flag, attr in (("fake-eos-guard", "fake_eos_guard"),
                       ("fake-notif-guard", "fake_notif_guard"),
                       ("auth-check", "auth_check")):
        gen.add_argument(f"--no-{flag}", dest=attr, action="store_false")
    gen.add_argument("--blockinfo", dest="use_blockinfo",
                     action="store_true")
    gen.add_argument("--obfuscate", action="store_true")
    gen.add_argument("--verification", action="store_true")

    bench = sub.add_parser("bench", help="run a paper experiment")
    bench.add_argument("experiment",
                       choices=("table4", "table5", "table6", "hostile",
                                "semantic"))
    bench.add_argument("--scale", type=float, default=0.02)
    bench.add_argument("--timeout-ms", type=float, default=20_000.0)
    bench.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the campaigns "
                            "(0 = one per CPU, default 1 = serial)")
    bench.add_argument("--task-timeout-s", type=float, default=None,
                       help="real wall-clock cap per sample when "
                            "running parallel (--jobs > 1)")
    bench.add_argument("--journal", type=Path, default=None,
                       help="append-only checkpoint journal; completed "
                            "samples are recorded as they finish")
    bench.add_argument("--resume", action="store_true",
                       help="reuse results already in --journal instead "
                            "of recomputing them")
    bench.add_argument("--max-retries", type=int, default=1,
                       help="retries per failed sample before it counts "
                            "against quarantine (default 1)")
    bench.add_argument("--quarantine-after", type=int, default=3,
                       help="bench a sample after this many failed "
                            "attempts; it is reported as skipped "
                            "(default 3)")
    bench.add_argument("--no-translate", dest="translate",
                       action="store_false", default=True,
                       help="run the generic reference interpreter instead "
                            "of the direct-threaded translation layer")
    bench.add_argument("--no-divergence-check", dest="divergence_check",
                       action="store_false",
                       help="disable the concolic divergence sentinel")
    bench.add_argument("--mutants", type=int, default=220,
                       help="hostile experiment: number of malformed "
                            "modules to generate (default 220)")
    bench.add_argument("--fail-on-quarantine", action="store_true",
                       help="exit non-zero when any sample was "
                            "quarantined (CI containment gate)")
    bench.add_argument("--oracles", type=_oracles_spec, default=None,
                       help=_ORACLES_HELP)
    bench.add_argument("--fail-on-family-fp", action="store_true",
                       help="exit 6 when any semantic oracle family "
                            "records a false positive (CI precision "
                            "gate)")

    corpus = sub.add_parser("gen-corpus",
                            help="write a labelled benchmark corpus "
                                 "(.wasm + ABI + manifest) to disk")
    corpus.add_argument("directory", type=Path)
    corpus.add_argument("--scale", type=float, default=0.02)
    corpus.add_argument("--variant",
                        choices=("plain", "obfuscated", "verified"),
                        default="plain")

    serve = sub.add_parser("serve",
                           help="run the scan service HTTP daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8734)
    serve.add_argument("--store", type=Path, default=Path("wasai.db"),
                       help="SQLite artifact store plus its verdict "
                            "log <store>.jsonl (default wasai.db); the "
                            "next serve on it resubmits jobs queued at "
                            "SIGTERM")
    serve.add_argument("--workers", type=int, default=2,
                       help="scan worker threads (default 2)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="admission bound: at most queue-depth + "
                            "workers jobs queued or running; "
                            "submissions beyond it are shed with HTTP "
                            "429 kind=queue (default 64)")
    serve.add_argument("--timeout-ms", type=float,
                       default=DEFAULT_TIMEOUT_MS,
                       help="default virtual fuzzing budget per job")
    serve.add_argument("--max-retries", type=int, default=1)
    serve.add_argument("--quarantine-after", type=int, default=3)
    serve.add_argument("--job-ttl-s", type=float, default=None,
                       help="default relative deadline per job, folded "
                            "into the caller's deadline at admission; "
                            "a job past it, queued or running, ends "
                            "'deadline_exceeded'")
    serve.add_argument("--promote-after-s", type=float, default=None,
                       help="anti-starvation: serve any job queued "
                            "longer than this ahead of every "
                            "priority band")
    serve.add_argument("--task-deadline-s", type=float, default=300.0,
                       help="claim age before the watchdog declares "
                            "a worker hung and requeues its job "
                            "(default 300)")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive per-stage failures before "
                            "the circuit breaker trips (default 3)")
    serve.add_argument("--breaker-cooldown-s", type=float,
                       default=30.0,
                       help="open->half-open cooldown; doubles per "
                            "re-trip (default 30)")
    serve.add_argument("--store-max-bytes", type=int, default=None,
                       help="artifact-store disk budget; writes "
                            "beyond it shed with HTTP 429 "
                            "kind=disk")
    serve.add_argument("--tenants", type=Path, default=None,
                       help="JSON file of per-tenant API keys and "
                            "quotas; submissions are admission-gated "
                            "(401 unknown key, typed 429 kind=quota)")
    serve.add_argument("--capture-traces", action="store_true",
                       help="persist a durable trace-IR pack per "
                            "completed scan so oracles can later be "
                            "replayed without re-fuzzing")
    serve.add_argument("--drift-audit-s", type=float, default=None,
                       help="background drift auditor cadence: every "
                            "N seconds replay a sample of stored "
                            "traces and flag verdict drift (default "
                            "off)")
    serve.add_argument("--drift-audit-sample", type=int, default=4,
                       help="traces replayed per audit round "
                            "(default 4)")
    serve.add_argument("--oracles", type=_oracles_spec, default=None,
                       help=_ORACLES_HELP + "; applies to every "
                            "submitted job and re-verdict sweep")
    serve.add_argument("--target-p95-s", type=float, default=None,
                       help="latency SLO driving adaptive admission "
                            "control: while observed p95 job latency "
                            "breaches this, the admission bound "
                            "shrinks (AIMD) and the brownout ladder "
                            "engages (default 30)")
    serve.add_argument("--housekeeping-s", type=float, default=0.25,
                       help="cadence of the housekeeping tick that "
                            "sweeps expired jobs off an idle queue "
                            "and refreshes the pressure level "
                            "(default 0.25)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")

    submit = sub.add_parser("submit",
                            help="submit a contract to a running "
                                 "scan daemon")
    submit.add_argument("wasm", type=Path, help="contract .wasm file")
    submit.add_argument("--abi", type=Path, required=True)
    submit.add_argument("--url", default="http://127.0.0.1:8734",
                        help="daemon base URL")
    submit.add_argument("--api-key", default=None,
                        help="tenant API key (sent as X-Api-Key)")
    submit.add_argument("--timeout-ms", type=float, default=None,
                        help="virtual fuzzing budget (default: the "
                             "daemon's)")
    submit.add_argument("--tool",
                        choices=("wasai", "eosfuzzer", "eosafe"),
                        default=None)
    submit.add_argument("--seed", type=int, default=None)
    submit.add_argument("--client", default="cli",
                        help="client id for fair scheduling")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs sooner (default 0)")
    submit.add_argument("--deadline-s", type=float, default=None,
                        help="answer-by budget in seconds: propagated "
                             "end-to-end as an absolute wall-clock "
                             "deadline (X-Deadline-Ms); past it the "
                             "daemon cuts the campaign short with the "
                             "terminal state deadline_exceeded")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job is terminal and "
                             "print the verdict")
    submit.add_argument("--wait-timeout-s", type=float, default=300.0)

    status = sub.add_parser("status",
                            help="query a job (or --stats) on a "
                                 "running scan daemon")
    status.add_argument("job_id", nargs="?", default=None)
    status.add_argument("--url", default="http://127.0.0.1:8734")
    status.add_argument("--stats", action="store_true",
                        help="print the daemon's /stats instead")

    reverdict = sub.add_parser(
        "reverdict",
        help="replay the scanner oracles over stored trace-IR packs "
             "(zero re-fuzzing) and rewrite the verdicts")
    reverdict.add_argument("--oracle-version", type=int, default=None,
                           help="oracle version to stamp into the "
                                "rewritten verdicts' provenance "
                                "(default: the registered version)")
    reverdict.add_argument("--store", type=Path, default=None,
                           help="run offline against this SQLite "
                                "artifact store instead of a daemon")
    reverdict.add_argument("--url", default="http://127.0.0.1:8734",
                           help="daemon base URL (ignored with "
                                "--store)")
    reverdict.add_argument("--wait-timeout-s", type=float,
                           default=300.0)
    reverdict.add_argument("--oracles", type=_oracles_spec, default=None,
                           help=_ORACLES_HELP)
    reverdict.add_argument("--json", action="store_true",
                           help="emit the sweep report as JSON")

    chaos = sub.add_parser("chaos",
                           help="chaos-drill a live in-process daemon "
                                "under a deterministic fault schedule")
    chaos.add_argument("--schedule",
                       choices=("ci", "quick", "overload"),
                       default="ci",
                       help="fault schedule: 'ci' runs every phase, "
                            "'quick' a fast subset, 'overload' "
                            "the deadline/brownout burst drill "
                            "(default ci)")
    chaos.add_argument("--json", action="store_true",
                       help="emit the machine-readable report")
    chaos.add_argument("--keep-dir", type=Path, default=None,
                       help="run in (and keep) this directory for "
                            "post-mortem instead of a temp dir")
    chaos.add_argument("--verbose", action="store_true",
                       help="print each phase as it completes")

    args = parser.parse_args(argv)
    # A process-wide performance knob: a plain module global, so
    # forked parallel workers inherit it.
    if getattr(args, "translate", True) is False:
        from .wasm.interpreter import configure_translation
        configure_translation(False)
    if args.command == "scan":
        return _cmd_scan(args)
    if args.command == "gen":
        return _cmd_gen(args)
    if args.command == "gen-corpus":
        return _cmd_gen_corpus(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "reverdict":
        return _cmd_reverdict(args)
    if args.command == "chaos":
        return _cmd_chaos(args)
    return _cmd_bench(args)


def _cmd_scan(args) -> int:
    import dataclasses

    from .resilience import MalformedModule
    from .wasm import DEFAULT_BUDGET, load_untrusted_module
    from .wasm.interpreter import ExecutionLimits

    budget = DEFAULT_BUDGET
    if args.max_module_bytes is not None:
        budget = dataclasses.replace(budget,
                                     max_module_bytes=args.max_module_bytes)
    try:
        module = load_untrusted_module(args.wasm.read_bytes(),
                                       budget=budget)
    except MalformedModule as exc:
        print(f"error: rejected untrusted module: {exc}", file=sys.stderr)
        return 2
    abi = Abi.from_json(args.abi.read_text())
    run = None
    if args.tool == "eosafe":
        result = run_eosafe(module)
    else:
        runner = run_wasai if args.tool == "wasai" else run_eosfuzzer
        kwargs = {}
        if args.tool == "wasai":
            kwargs["divergence_check"] = args.divergence_check
            kwargs["oracles"] = args.oracles
            if args.address_pool:
                kwargs["address_pool"] = True
            if args.max_memory_pages is not None:
                kwargs["limits"] = ExecutionLimits(
                    max_memory_pages=args.max_memory_pages)
        run = runner(module, abi, timeout_ms=args.timeout_ms,
                     rng_seed=args.seed, **kwargs)
        result = run.scan
        if not args.json:
            print(f"# iterations: {run.report.iterations}, "
                  f"distinct branches covered: {len(run.report.covered)}")
    if args.json:
        from .scanner import report_to_json
        print(report_to_json(result))
    else:
        print(format_report(result))
    if args.exploits and run is not None:
        from .scanner import synthesize_exploits, verify_exploit
        exploits = synthesize_exploits(run.report, result)
        if exploits:
            print("\nSynthesised exploit payloads:")
        for exploit in exploits:
            verified = verify_exploit(
                exploit, module, abi,
                instrumentation=run.target.instrumentation)
            status = "verified on a fresh chain" if verified \
                else "NOT reproducible"
            print(f"  # {status}")
            print("  " + exploit.summary().replace("\n", "\n  "))
    return 1 if result.is_vulnerable() else 0


def _cmd_gen(args) -> int:
    config = ContractConfig(
        seed=args.seed,
        fake_eos_guard=args.fake_eos_guard,
        fake_notif_guard=args.fake_notif_guard,
        auth_check=args.auth_check,
        use_blockinfo=args.use_blockinfo,
        reward_scheme=args.reward,
        maze_depth=args.maze_depth,
    )
    generated = generate_contract(config)
    module = generated.module
    if args.obfuscate:
        from .benchgen import obfuscate_module
        module = obfuscate_module(module, seed=args.seed)
    if args.verification:
        from .benchgen import inject_verification
        module = inject_verification(module)
    wasm_path = args.out.with_suffix(".wasm")
    abi_path = args.out.with_suffix(".abi.json")
    wasm_path.write_bytes(encode_module(module))
    abi_path.write_text(generated.abi.to_json())
    truth = {k: v for k, v in generated.ground_truth.items() if v}
    print(f"wrote {wasm_path} ({wasm_path.stat().st_size} bytes) "
          f"and {abi_path}")
    print("ground truth:",
          json.dumps(truth) if truth else "not vulnerable")
    return 0


def _cmd_gen_corpus(args) -> int:
    from .benchgen import export_corpus
    samples = build_table4_corpus(scale=args.scale)
    if args.variant == "obfuscated":
        samples = [obfuscated_variant(s) for s in samples]
    elif args.variant == "verified":
        samples = [verification_variant(s) for s in samples]
    manifest = export_corpus(samples, args.directory)
    print(f"wrote {len(samples)} samples to {args.directory} "
          f"(manifest: {manifest})")
    return 0


def _cmd_bench_hostile(args) -> int:
    """Containment smoke test: the malformed corpus must be rejected
    with typed diagnostics and the resource-hostile modules trapped by
    the metered interpreter — anything else is a hardening failure."""
    from .benchgen.hostile import (build_hostile_corpus,
                                   build_resource_hostile_modules)
    from .resilience import MalformedModule
    from .wasm import load_untrusted_module
    from .wasm.interpreter import ExecutionLimits, Instance, Trap
    corpus = build_hostile_corpus(mutants=args.mutants)
    parsed = rejected = 0
    escaped: list[tuple[str, str]] = []
    for sample in corpus:
        try:
            load_untrusted_module(sample.data, sample_id=sample.name)
            parsed += 1
        except MalformedModule:
            rejected += 1
        except Exception as exc:  # raw leak: exactly what we test for
            escaped.append((sample.name,
                            f"{type(exc).__name__}: {exc}"))
    trapped = 0
    limits = ExecutionLimits(fuel=200_000, deadline_s=5.0,
                             max_memory_pages=64)
    for name, module in build_resource_hostile_modules():
        try:
            Instance(module, {}, limits=limits).invoke("attack", [])
            escaped.append((name, "completed without trapping"))
        except Trap:
            trapped += 1
        except Exception as exc:
            escaped.append((name, f"{type(exc).__name__}: {exc}"))
    print(f"# hostile: {len(corpus)} malformed inputs, "
          f"{trapped + len(escaped)} resource-hostile modules")
    print(f"  parsed clean   {parsed}")
    print(f"  rejected typed {rejected}")
    print(f"  trapped        {trapped}")
    print(f"  escaped        {len(escaped)}")
    for name, reason in escaped:
        print(f"    {name}: {reason}")
    return 1 if escaped else 0


def _cmd_bench(args) -> int:
    from .metrics import ThroughputStats
    from .resilience import CampaignJournal, ResiliencePolicy
    if args.experiment == "hostile":
        return _cmd_bench_hostile(args)
    tools = ("wasai", "eosfuzzer", "eosafe")
    oracles = args.oracles
    if args.experiment == "semantic":
        # The semantic corpus: per family, one buggy/clean pair per
        # unit of scale.  Only WASAI evaluates the semantic families,
        # so the comparison tools sit this experiment out.
        from .benchgen import build_semantic_corpus
        samples = build_semantic_corpus(pairs=max(1, round(args.scale * 50)))
        tools = ("wasai",)
        if oracles is None:
            oracles = _oracles_spec("all")
    else:
        samples = build_table4_corpus(scale=args.scale)
        if args.experiment == "table5":
            samples = [obfuscated_variant(s) for s in samples]
        elif args.experiment == "table6":
            samples = [verification_variant(s) for s in samples]
    print(f"# {args.experiment}: {len(samples)} samples "
          f"(scale {args.scale}, jobs {args.jobs or 'auto'})")
    if args.resume and args.journal is None:
        print("error: --resume requires --journal", file=sys.stderr)
        return 2
    policy = ResiliencePolicy(max_retries=args.max_retries,
                              quarantine_after=args.quarantine_after)
    journal = CampaignJournal(args.journal) if args.journal else None
    perf = ThroughputStats()
    tables = evaluate_corpus(samples, tools=tools,
                             timeout_ms=args.timeout_ms,
                             jobs=args.jobs,
                             task_timeout_s=args.task_timeout_s,
                             perf=perf, policy=policy,
                             journal=journal, resume=args.resume,
                             divergence_check=args.divergence_check,
                             oracles=oracles)
    for table in tables.values():
        print(table.format())
    print(perf.format())
    if args.fail_on_quarantine and perf.quarantined:
        print(f"error: {perf.quarantined} sample(s) quarantined "
              "(--fail-on-quarantine)", file=sys.stderr)
        return 3
    if args.fail_on_family_fp:
        from .semoracle import SEMANTIC_FAMILIES
        family_fps = {
            f"{tool}/{family}": count
            for tool, table in tables.items()
            for family, count in
            table.false_positives(SEMANTIC_FAMILIES).items()}
        if family_fps:
            detail = ", ".join(f"{k}: {v}"
                               for k, v in sorted(family_fps.items()))
            print(f"error: semantic family false positives — {detail} "
                  "(--fail-on-family-fp)", file=sys.stderr)
            return 6
    return 0


def _cmd_serve(args) -> int:
    from .resilience import ResiliencePolicy
    from .service import (ScanService, ScanServiceConfig, make_server,
                          serve_forever)
    service = ScanService(
        store=str(args.store),
        config=ScanServiceConfig(workers=args.workers,
                                 max_depth=args.queue_depth,
                                 default_timeout_ms=args.timeout_ms,
                                 job_ttl_s=args.job_ttl_s,
                                 promote_after_s=args.promote_after_s,
                                 task_deadline_s=args.task_deadline_s,
                                 breaker_threshold=args.breaker_threshold,
                                 breaker_cooldown_s=args.breaker_cooldown_s,
                                 store_max_bytes=args.store_max_bytes,
                                 capture_traces=args.capture_traces,
                                 drift_audit_s=args.drift_audit_s,
                                 drift_audit_sample=args.drift_audit_sample,
                                 oracles=args.oracles,
                                 target_p95_s=args.target_p95_s,
                                 housekeeping_s=args.housekeeping_s),
        policy=ResiliencePolicy(max_retries=args.max_retries,
                                quarantine_after=args.quarantine_after))
    tenants = None
    if args.tenants is not None:
        from .service import TenantBook
        tenants = TenantBook.from_doc(
            json.loads(args.tenants.read_text(encoding="utf-8")))
    server = make_server(service, host=args.host, port=args.port,
                         verbose=args.verbose, tenants=tenants)
    host, port = server.server_address[:2]
    print(f"wasai scan service on http://{host}:{port} "
          f"(store {args.store}, {args.workers} workers, "
          f"queue depth {args.queue_depth})", flush=True)
    checkpointed = serve_forever(server)
    print(f"drained; {checkpointed} queued job(s) checkpointed",
          flush=True)
    return 0


def _cmd_submit(args) -> int:
    from .service import ServiceClient, ServiceError
    client = ServiceClient(args.url, api_key=args.api_key)
    config = {}
    if args.timeout_ms is not None:
        config["timeout_ms"] = args.timeout_ms
    if args.tool is not None:
        config["tool"] = args.tool
    if args.seed is not None:
        config["rng_seed"] = args.seed
    try:
        doc = client.submit(args.wasm.read_bytes(),
                            args.abi.read_text(), config=config or None,
                            client=args.client, priority=args.priority,
                            deadline_s=args.deadline_s)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if exc.error == "malformed_module" else 4
    print(f"job {doc['id']}: {doc['state']} "
          f"(outcome: {doc['outcome']})")
    if doc["state"] == "deadline_exceeded":
        print(f"error: {doc.get('error', 'deadline exceeded')}",
              file=sys.stderr)
        return 4
    if doc["state"] == "done" or args.wait:
        if doc["state"] != "done":
            try:
                doc = client.wait(doc["id"],
                                  timeout_s=args.wait_timeout_s)
            except (ServiceError, TimeoutError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 4
        print(json.dumps(doc, indent=2, sort_keys=True))
        if doc["state"] != "done":
            return 4
        verdict = doc.get("verdict", {})
        return 1 if verdict.get("vulnerable") else 0
    return 0


def _cmd_status(args) -> int:
    from .service import ServiceClient, ServiceError
    client = ServiceClient(args.url)
    try:
        if args.stats or args.job_id is None:
            doc = client.stats()
        else:
            doc = client.status(args.job_id)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _format_reverdict_report(doc: dict) -> str:
    header = (f"# reverdict: oracle v{doc.get('oracle_version')}, "
              f"trace IR v{doc.get('traceir_version')}")
    if doc.get("oracles"):
        header += f", families: {','.join(doc['oracles'])}"
    lines = [
        header,
        f"  replayed   {doc.get('replayed', 0)} "
        f"(rewritten {doc.get('rewritten', 0)}, "
        f"orphaned {doc.get('orphaned', 0)})",
        f"  matched    {doc.get('matched', 0)}",
        f"  drift      {doc.get('drift', 0)}",
        f"  corrupt    {doc.get('corrupt', 0)} (quarantined)",
        f"  insufficient {doc.get('insufficient', 0)} "
        "(surface too old; re-queued for fresh scans)",
    ]
    for incident in doc.get("incidents", ()):
        kind = incident.get("kind", "incident")
        key = incident.get("scan_key", "?")
        detail = incident.get("detail", "")
        lines.append(f"    {kind} {key[:16]} {detail}".rstrip())
    return "\n".join(lines)


def _cmd_reverdict(args) -> int:
    if args.store is not None:
        # Offline: open the artifact store directly — the sweep needs
        # no fuzzing workers, so no daemon is required.
        from .service.reverdict import reverdict_store
        from .service.store import ArtifactStore
        store = ArtifactStore(str(args.store))
        try:
            report_doc = reverdict_store(
                store, oracle_version=args.oracle_version,
                oracles=args.oracles).to_doc()
        finally:
            store.close()
    else:
        from .service import ServiceClient, ServiceError
        client = ServiceClient(args.url)
        try:
            doc = client.reverdict(oracle_version=args.oracle_version,
                                   wait=True,
                                   timeout_s=args.wait_timeout_s,
                                   oracles=args.oracles)
        except (ServiceError, TimeoutError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 4
        if doc.get("state") != "done":
            print(f"error: reverdict job {doc.get('id')} ended "
                  f"{doc.get('state')}: {doc.get('error')}",
                  file=sys.stderr)
            return 4
        report_doc = doc.get("result", {})
    if args.json:
        print(json.dumps(report_doc, indent=2, sort_keys=True))
    else:
        print(_format_reverdict_report(report_doc))
    return 1 if report_doc.get("drift") else 0


def _cmd_chaos(args) -> int:
    from .service import run_chaos_drill
    report = run_chaos_drill(
        args.schedule, verbose=args.verbose,
        keep_dir=str(args.keep_dir) if args.keep_dir else None)
    if args.json:
        print(json.dumps(report.to_doc(), indent=2, sort_keys=True))
    else:
        print(report.format())
    return 0 if report.ok else 5


if __name__ == "__main__":
    sys.exit(main())
