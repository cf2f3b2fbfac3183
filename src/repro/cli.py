"""Command-line interface: regenerate paper artifacts from the shell.

Usage::

    python -m repro list
    python -m repro run fig19_ablation --scale medium
    python -m repro run all --scale small --out report.txt
    python -m repro info llama2-7b
    python -m repro serve --requests 16 --batch-capacity 8
    python -m repro train-exits --steps 160 --contrast
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import IO, List, Optional

from repro.config import MODELS, get_model_spec
from repro.distributed import LINKS, make_cluster
from repro.experiments import REGISTRY
from repro.hardware.devices import DEVICES
from repro.serving.control import CONTROL_POLICIES
from repro.serving.router import ROUTING_POLICIES
from repro.serving.scheduler import SCHEDULING_POLICIES
from repro.utils.tables import render_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpecEE reproduction: regenerate the paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list every reproducible artifact")

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment name from 'list', or 'all'")
    run.add_argument("--scale", default="small", choices=["small", "medium", "full"],
                     help="workload size (default: small)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=None, help="write the report to a file")

    info = sub.add_parser("info", help="show a model or device spec")
    info.add_argument("name", help="model (llama2-7b, ...) or device (a100-80g, ...)")

    train = sub.add_parser(
        "train-exits",
        help="LayerSkip-train the tiny transformer, distill its draft, and "
             "decode with verified early exits",
    )
    train.add_argument("--steps", type=int, default=160,
                       help="LayerSkip training steps")
    train.add_argument("--curriculum", default="rotational",
                       choices=["rotational", "gradual", "all"],
                       help="which exit layers get a loss each step")
    train.add_argument("--max-layer-dropout", type=float, default=0.3,
                       help="dropout probability of the deepest layer "
                            "(shallower layers scale down linearly)")
    train.add_argument("--early-exit-scale", type=float, default=0.5,
                       help="weight of the mean early-exit loss vs the final CE")
    train.add_argument("--prompts", type=int, default=6,
                       help="prompts to decode with the trained rig")
    train.add_argument("--max-new-tokens", type=int, default=24)
    train.add_argument("--contrast", action="store_true",
                       help="also decode the untrained random-weight rig for "
                            "the before/after exit-rate contrast")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", default=None, help="write the report to a file")

    serve = sub.add_parser(
        "serve", help="continuous-batching serving run vs sequential SpecEE",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "policy flags and their precedence:\n"
            "  --sched    orders service *within* one replica (admission/resume\n"
            "             order, preemption victims); in effect on every\n"
            "             workload (closed batch, --trace, closed:M clients)\n"
            "             at any --replicas.\n"
            "  --route    picks *which* replica each request lands on, after\n"
            "             router-level rejection and before --sched sees the\n"
            "             request; it has a choice to make only when\n"
            "             --replicas > 1 (one engine is the fleet of width 1).\n"
            "  --control  adapts *how* each admitted request decodes (exit\n"
            "             threshold / draft length per tick from observed\n"
            "             load); applied last, inside the replica, wherever\n"
            "             --sched applies.  'static' is token-identical\n"
            "             to the pre-controller engine; 'pressure' and\n"
            "             'bandit' trade exit depth against load.\n"
            "  --faults   injects replica failures (crash/restart/drain,\n"
            "             slowdowns, predictor anomalies, KV corruption) at\n"
            "             any --replicas; the plan is resolved before any\n"
            "             routing happens, and --route only ever sees replicas\n"
            "             the plan left healthy.  --fault-seed resolves\n"
            "             replica=any picks; --no-failover is the ablation\n"
            "             that loses crashed work.\n"
            "  --prefix-share  pages prompts through the copy-on-write radix\n"
            "             tree inside each replica's paged KV, orthogonal to\n"
            "             all four: admission adopts shared prefixes before\n"
            "             --sched orders service, on every workload and fleet\n"
            "             width.  Tokens are identical with it on or off.\n"
            "  --control-seed seeds the bandit only.\n"
        ))
    serve.add_argument("--backend", default="synthetic",
                       choices=["synthetic", "transformer"],
                       help="decode substrate: the synthetic semantic model, or "
                            "the real numpy transformer with batched wall-clock decode")
    serve.add_argument("--model", default="llama2-7b", choices=sorted(MODELS))
    serve.add_argument("--requests", type=int, default=12)
    serve.add_argument("--max-new-tokens", type=int, default=48)
    serve.add_argument("--batch-capacity", type=int, default=8)
    serve.add_argument("--kv-blocks", type=int, default=512)
    serve.add_argument("--block-size", type=int, default=16)
    serve.add_argument("--scheduler", default="two_level",
                       choices=["all", "offline", "online", "two_level"])
    serve.add_argument("--device", default="a100-80g", choices=sorted(DEVICES))
    serve.add_argument("--framework", default="vllm",
                       choices=["hf", "vllm", "awq", "flashattention"])
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--out", default=None, help="write the report to a file")
    # Arrival trace; "off" is the closed batch (every request at t=0).
    serve.add_argument("--trace", default="off",
                       choices=["off", "poisson", "bursty", "chat"],
                       help="drive an arrival trace instead of a closed batch "
                            "(off = all --requests arrive at t=0)")
    serve.add_argument("--rate", type=float, default=10.0,
                       help="poisson arrival rate, requests per modelled second "
                            "(chat: session-opening rate)")
    # Multi-turn chat traffic and shared-prefix KV reuse.
    serve.add_argument("--sessions", type=int, default=8,
                       help="chat sessions in a --trace chat workload")
    serve.add_argument("--tenants", type=int, default=2,
                       help="tenants (shared system prompts) in a chat trace")
    serve.add_argument("--turns", type=int, default=3,
                       help="turns per chat session (each extends the last)")
    serve.add_argument("--prefix-share", action="store_true",
                       help="page prompts through the copy-on-write shared-"
                            "prefix radix tree (adopted prefixes skip prefill)")
    serve.add_argument("--burst-size", type=int, default=4)
    serve.add_argument("--burst-gap", type=float, default=0.5,
                       help="seconds between bursts (bursty trace)")
    serve.add_argument("--slo-scale", type=float, default=3.0,
                       help="deadline = slo-scale x ideal service time")
    serve.add_argument("--admission", default="optimistic",
                       choices=["optimistic", "reserve"])
    serve.add_argument("--preemption", default="auto",
                       choices=["auto", "swap", "recompute", "never"])
    serve.add_argument("--chunk-prefill", type=int, default=32,
                       help="prefill tokens per tick (0 = unchunked, monopolising)")
    serve.add_argument("--sched", default="fifo_priority",
                       choices=sorted(SCHEDULING_POLICIES),
                       help="async scheduling policy: service order and "
                            "preemption-victim selection")
    serve.add_argument("--control", default="static",
                       choices=sorted(CONTROL_POLICIES),
                       help="load-adaptive speculation control: per-request "
                            "exit-threshold/draft-length actuation from "
                            "observed load")
    serve.add_argument("--control-seed", type=int, default=0,
                       help="seed for the bandit control policy's Thompson "
                            "sampling stream")
    # Data-parallel fleet width, routing and closed-loop clients.
    serve.add_argument("--replicas", type=int, default=1,
                       help="data-parallel replica count behind the router "
                            "(1 = a lone engine, the fleet of width 1)")
    serve.add_argument("--route", default="round_robin",
                       choices=sorted(ROUTING_POLICIES),
                       help="fleet routing policy")
    serve.add_argument("--clients", default="open",
                       help="'open' (trace arrivals) or 'closed:M' "
                            "(M closed-loop clients with think time)")
    serve.add_argument("--think-time", type=float, default=0.05,
                       help="mean closed-loop client think time, modelled "
                            "seconds")
    # Fault injection and recovery.
    serve.add_argument("--faults", default="none",
                       help="fault plan: a preset (none, single-crash, "
                            "crash-restart, degraded-spec, chaos) or a spec "
                            "string like 'crash@0.3:replica=0,down=1.0;"
                            "slow@0.2:factor=3,duration=0.5'")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed resolving replica=any picks and corruption "
                            "RNG streams in the fault plan")
    serve.add_argument("--no-failover", action="store_true",
                       help="ablation: lose a crashed replica's in-flight "
                            "work instead of re-routing it")
    # Multi-device sharding (modelled cluster; 1/1 = single device).
    serve.add_argument("--tp", type=int, default=1,
                       help="tensor-parallel degree (devices per layer shard)")
    serve.add_argument("--pp", type=int, default=1,
                       help="pipeline-parallel degree (stages of contiguous layers)")
    serve.add_argument("--tp-link", default="nvlink", choices=sorted(LINKS),
                       help="interconnect inside a tensor-parallel group")
    serve.add_argument("--pp-link", default="pcie4", choices=sorted(LINKS),
                       help="interconnect between pipeline stages")
    return parser


def _cmd_list(out: IO[str]) -> int:
    rows = [[name, module.run.__module__.rsplit(".", 1)[-1],
             (module.__doc__ or "").strip().splitlines()[0]]
            for name, module in sorted(REGISTRY.items())]
    print(render_table(["experiment", "module", "description"], rows), file=out)
    return 0


def _cmd_run(experiment: str, scale: str, seed: int, out: IO[str]) -> int:
    names: List[str]
    if experiment == "all":
        names = sorted(REGISTRY)
    elif experiment in REGISTRY:
        names = [experiment]
    else:
        known = ", ".join(sorted(REGISTRY))
        print(f"unknown experiment {experiment!r}; known: all, {known}", file=sys.stderr)
        return 2
    for name in names:
        start = time.perf_counter()
        result = REGISTRY[name].run(scale, seed=seed)
        elapsed = time.perf_counter() - start
        print(result.render(), file=out)
        print(f"[{name} completed in {elapsed:.1f}s]\n", file=out)
    return 0


def _cmd_info(name: str, out: IO[str]) -> int:
    if name in MODELS:
        spec = get_model_spec(name)
        rows = [["hidden_dim", spec.hidden_dim], ["heads", spec.n_heads],
                ["layers", spec.n_layers], ["vocab", spec.vocab_size],
                ["params (B)", spec.total_params / 1e9],
                ["fp16 weights (GiB)", spec.weight_bytes / 1024**3]]
        print(render_table(["field", "value"], rows, title=name), file=out)
        return 0
    if name in DEVICES:
        device = DEVICES[name]
        rows = [["kind", device.kind], ["fp16 TFLOPS", device.fp16_tflops],
                ["mem GB/s", device.mem_bw_gbps], ["TDP W", device.tdp_w],
                ["VRAM GB", device.vram_gb]]
        print(render_table(["field", "value"], rows, title=name), file=out)
        return 0
    print(f"unknown model/device {name!r}", file=sys.stderr)
    return 2


def _decode_exit_stats(rig, n_prompts: int, max_new_tokens: int) -> dict:
    """Verified-exit statistics of a batch-1 SpecEE decode on ``rig``."""
    import numpy as np

    from repro.config import SpecEEConfig
    from repro.data.corpus import generate_prompts

    config = SpecEEConfig(scheduler="offline", exit_threshold=0.3)
    rates, layers = [], []
    for prompt in generate_prompts(n_prompts, rig.model.vocab_size, seed=31):
        engine = rig.specee_engine("offline", config=config, offline_top_k=2)
        result = engine.generate(prompt, max_new_tokens)
        rates.append(result.early_exit_rate)
        layers.extend(result.exit_layers)
    return {"exit_rate": float(np.mean(rates)),
            "avg_exit_layer": float(np.mean(layers)) + 1}


def _cmd_train_exits(args, out: IO[str]) -> int:
    """Run the full repro.training loop and decode with the trained rig."""
    from repro.eval.harness import (
        build_trained_transformer_rig, build_transformer_rig,
        trained_transformer_config,
    )

    start = time.perf_counter()
    try:
        rig = build_trained_transformer_rig(
            seed=args.seed, steps=args.steps, curriculum=args.curriculum,
            max_layer_dropout=args.max_layer_dropout,
            early_exit_scale=args.early_exit_scale)
    except ValueError as exc:
        print(f"train-exits: {exc}", file=sys.stderr)
        return 2
    stats = _decode_exit_stats(rig, args.prompts, args.max_new_tokens)
    meta = rig.metadata
    agreement = "/".join(f"{a:.2f}" for a in meta["layer_agreement"])
    rows = [
        ["training steps", args.steps],
        ["curriculum", args.curriculum],
        ["max layer dropout", f"{args.max_layer_dropout:.2f}"],
        ["early-exit loss scale", f"{args.early_exit_scale:.2f}"],
        ["final training loss", f"{meta['training_final_loss']:.3f}"],
        ["held-out next-token accuracy", f"{meta['training_accuracy']:.1%}"],
        ["per-layer argmax agreement", agreement],
        ["distilled draft hit rate", f"{meta['draft_hit_rate']:.2f}"],
        ["verified early-exit rate", f"{stats['exit_rate']:.2f}"],
        ["avg exit layer (1-based)",
         f"{stats['avg_exit_layer']:.1f} / {rig.model.n_layers}"],
    ]
    if args.contrast:
        untrained = build_transformer_rig(trained_transformer_config(),
                                          seed=args.seed, max_tokens=256)
        u = _decode_exit_stats(untrained, args.prompts, args.max_new_tokens)
        rows.extend([
            ["untrained verified exit rate", f"{u['exit_rate']:.2f}"],
            ["untrained avg exit layer",
             f"{u['avg_exit_layer']:.1f} / {untrained.model.n_layers}"],
        ])
    elapsed = time.perf_counter() - start
    title = (f"train-exits: LayerSkip recipe on the tiny transformer "
             f"({args.prompts} prompts x {args.max_new_tokens} tokens)")
    print(render_table(["metric", "value"], rows, title=title), file=out)
    print(f"[train-exits completed in {elapsed:.1f}s]", file=out)
    return 0


def _parse_clients(spec: str) -> Optional[int]:
    """Client count from a ``--clients`` spec: None for 'open', M for
    'closed:M'."""
    if spec == "open":
        return None
    if spec.startswith("closed:"):
        try:
            n_clients = int(spec.split(":", 1)[1])
        except ValueError:
            n_clients = 0
        if n_clients >= 1:
            return n_clients
    raise ValueError(f"--clients must be 'open' or 'closed:M', got {spec!r}")


def _serve_workload(args, rig, per_token_s: float):
    """``(description, workload)`` for the serve flags: a closed batch
    (every request at t=0), a poisson / bursty / chat arrival trace, or
    ``closed:M`` closed-loop clients; deadlines scale from ``per_token_s``,
    the latency model pricing the run."""
    from repro.data.corpus import generate_prompts
    from repro.serving import (
        ClosedLoopClients, Request, bursty_trace, chat_trace, poisson_trace,
    )

    n_clients = _parse_clients(args.clients)
    if n_clients is not None and args.trace != "off":
        raise ValueError(
            "--clients closed:M and --trace are both workloads; pass one "
            "(closed-loop clients issue their own arrivals)")
    kwargs = dict(
        vocab_size=rig.model.vocab_size, slo_scale=args.slo_scale,
        per_token_s=per_token_s, seed=args.seed + 7,
        max_new_tokens_range=(max(args.max_new_tokens // 2, 1),
                              args.max_new_tokens),
    )
    if n_clients is not None:
        # Ceiling: never issue fewer total requests than --requests asks.
        rounds = max(1, -(-args.requests // n_clients))
        return f"closed:{n_clients} clients", ClosedLoopClients(
            n_clients, rounds, think_time_s=args.think_time, **kwargs)
    if args.trace == "off":
        prompts = generate_prompts(args.requests, rig.model.vocab_size,
                                   seed=args.seed + 7)
        return "closed batch", [Request(i, prompt, args.max_new_tokens)
                                for i, prompt in enumerate(prompts)]
    if args.trace == "poisson":
        trace = poisson_trace(args.requests, args.rate, **kwargs)
    elif args.trace == "chat":
        trace = chat_trace(args.sessions, tenants=args.tenants,
                           turns=args.turns, rate_per_s=args.rate, **kwargs)
    else:
        trace = bursty_trace(args.requests, args.burst_size, args.burst_gap,
                             **kwargs)
    return f"{args.trace} trace", trace


def _serve_rows(args, fleet, report) -> List[list]:
    """The serve table: fleet-level rows from the report's request fold,
    engine-level rows per replica (``/``-joined; one value at width 1)."""
    replicas = report.replica_reports

    def each(attr: str, fmt: str = "{}") -> str:
        return "/".join(fmt.format(getattr(r, attr)) for r in replicas)

    rows = [
        ["requests served", len(report.results)],
        ["requests rejected",
         len(report.rejected) + sum(len(r.rejected) for r in replicas)],
        ["tokens generated", report.total_tokens],
        ["scheduler ticks", each("n_steps")],
        ["makespan (modelled s)", f"{report.makespan_s:.3f}"],
        ["throughput tokens/s", f"{report.throughput_tps:.1f}"],
        ["goodput tokens/s (met SLO)", f"{report.goodput_tps:.1f}"],
        ["sequential tokens/s", each("sequential_tps", "{:.1f}")],
        ["throughput speedup", each("speedup", "{:.2f}x")],
        ["SLO attainment", f"{report.slo_attainment:.0%}"],
        ["mean latency (s)", f"{report.mean_latency_s:.3f}"],
        ["p95 latency (s)", f"{report.p95_latency_s():.3f}"],
        ["avg batch occupancy", each("avg_batch_occupancy", "{:.2f}")],
        ["peak KV blocks", f"{each('peak_kv_blocks')} / {args.kv_blocks}"],
        ["preemptions", report.preemptions],
        ["swap preemptions", each("swaps")],
        ["recompute preemptions", each("recomputes")],
        ["peak host-pool tokens", each("peak_host_tokens")],
        ["requests per replica",
         "/".join(str(c) for c in report.replica_request_counts)],
        ["observed layers/token per replica",
         "/".join(f"{l:.1f}" for l in report.replica_layers_per_token)],
        ["control policy", report.control],
        ["mean threshold offset per replica",
         "/".join(f"{o:+.2f}" for o in report.replica_threshold_offsets)],
    ]
    if args.prefix_share:
        rows += [
            ["prefix hit rate", f"{report.prefix_hit_rate:.0%}"],
            ["prompt tokens adopted",
             f"{report.prefix_matched_tokens} / {report.prefix_prompt_tokens}"],
            ["copy-on-write clones", each("cow_copies")],
            ["mean TTFT (s)", f"{report.mean_ttft_s:.3f}"],
            ["p95 TTFT (s)", f"{report.p95_ttft_s():.3f}"],
        ]
    if args.backend == "transformer":
        # Real backend: measured wall-clock numbers next to the modelled ones.
        rows += [
            ["batched decode", "on" if fleet.replicas[0].batched else "off"],
            ["wall time (s)", each("wall_time_s", "{:.3f}")],
            ["measured tokens/s (wall-clock)", each("measured_tps", "{:.1f}")],
        ]
    if report.faults != "none":
        frac = report.recovered_fraction
        rows += [
            ["fault plan", f"{report.faults} (seed {report.fault_seed})"],
            ["crashes / restarts / drains",
             f"{report.crashes} / {report.restarts} / {report.drains}"],
            ["failover",
             "on" if report.failover else "off (ablation: crashed work lost)"],
            ["requests recovered / lost",
             f"{report.requests_recovered} / {report.requests_lost}"],
            ["recovered fraction",
             "n/a" if frac != frac else f"{frac:.0%}"],
            ["failover retries", report.retries],
            ["tokens salvaged / lost",
             f"{report.tokens_salvaged} / {report.tokens_lost}"],
            ["kv corruptions detected", report.kv_corruptions],
            ["degraded ticks / trips",
             f"{report.degraded_ticks} / {report.degraded_events}"],
            ["watchdog timeouts", report.watchdog_timeouts],
            ["replica health", "/".join(report.replica_health)],
        ]
    return rows


def _cmd_serve(args, out: IO[str]) -> int:
    """Serve one workload on ``--replicas`` engines behind the router — a
    lone engine is the fleet of width 1 (bit-identical to driving it
    directly), so every flag combination takes this one path."""
    from repro.eval.harness import build_rig, build_transformer_rig

    if args.replicas < 1:
        print(f"serve: --replicas must be >= 1, got {args.replicas}",
              file=sys.stderr)
        return 2
    if args.backend == "transformer":
        # Real numpy decode at any fleet width and tp/pp shape; ledgers are
        # priced as --model on --device either way.
        rig = build_transformer_rig(seed=args.seed, priced_as=args.model)
    else:
        rig = build_rig(args.model, seed=args.seed, train_prompts=6, train_tokens=30,
                        predictor_hidden=128, epochs=10)
    start = time.perf_counter()
    try:
        if args.tp < 1 or args.pp < 1:
            raise ValueError(
                f"--tp/--pp must be >= 1, got tp={args.tp} pp={args.pp}")
        fleet = rig.router_fleet(
            args.replicas, route=args.route, scheduling=args.sched,
            cluster=make_cluster(args.device, tp=args.tp, pp=args.pp,
                                 tp_link=args.tp_link, pp_link=args.pp_link),
            faults=args.faults, fault_seed=args.fault_seed,
            failover=not args.no_failover,
            scheduler_kind=args.scheduler, device=args.device,
            framework=args.framework, batch_capacity=args.batch_capacity,
            kv_blocks=args.kv_blocks, block_size=args.block_size,
            admission=args.admission, preemption=args.preemption,
            chunk_prefill_tokens=args.chunk_prefill or None,
            control=args.control, control_seed=args.control_seed,
            prefix_share=args.prefix_share,
        )
        described, workload = _serve_workload(
            args, rig, fleet.replicas[0].latency.full_depth_token_time())
        report = fleet.run(workload)
    except (MemoryError, ValueError) as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    served = (f"tiny-transformer (priced as {args.model})"
              if args.backend == "transformer" else args.model)
    width = ("async serving: " if args.replicas == 1
             else f"fleet serving: {args.replicas}x ")
    title = (f"{width}{served} @ {args.device}/{args.framework}, "
             f"tp={args.tp} pp={args.pp}, {described}, "
             f"{args.admission} admission, {args.preemption} preemption, "
             f"chunk={args.chunk_prefill}, route={args.route}, "
             f"sched={args.sched}, control={args.control}")
    print(render_table(["metric", "value"], _serve_rows(args, fleet, report),
                       title=title), file=out)
    print(f"[serve completed in {elapsed:.1f}s]", file=out)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    sink: IO[str] = sys.stdout
    close = False
    if getattr(args, "out", None):
        sink = open(args.out, "w")
        close = True
    try:
        if args.command == "list":
            return _cmd_list(sink)
        if args.command == "run":
            return _cmd_run(args.experiment, args.scale, args.seed, sink)
        if args.command == "info":
            return _cmd_info(args.name, sink)
        if args.command == "train-exits":
            return _cmd_train_exits(args, sink)
        if args.command == "serve":
            return _cmd_serve(args, sink)
        return 2
    finally:
        if close:
            sink.close()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
