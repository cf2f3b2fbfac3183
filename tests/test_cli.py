"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.eval.harness import build_rig
from repro.serving import poisson_trace


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig17_memory"])
        assert args.scale == "small" and args.seed == 0


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig14_cloud_ar" in out and "table04_accuracy" in out

    def test_info_model(self, capsys):
        assert main(["info", "llama2-7b"]) == 0
        assert "params" in capsys.readouterr().out

    def test_info_device(self, capsys):
        assert main(["info", "a100-80g"]) == 0
        assert "TFLOPS" in capsys.readouterr().out

    def test_info_unknown(self, capsys):
        assert main(["info", "abacus"]) == 2

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_run_cheap_experiment(self, capsys):
        assert main(["run", "fig17_memory", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "memory" in out and "completed in" in out

    def test_run_writes_file(self, tmp_path):
        path = tmp_path / "report.txt"
        assert main(["run", "table02_03_configs", "--out", str(path)]) == 0
        assert "hardware platforms" in path.read_text()

    def test_serve(self, capsys):
        assert main(["serve", "--requests", "5", "--max-new-tokens", "12",
                     "--batch-capacity", "4"]) == 0
        out = capsys.readouterr().out
        assert "closed batch" in out
        assert "throughput speedup" in out

    def test_serve_closed_batch_honours_engine_flags(self, capsys):
        """A closed batch is a trace that arrives at t=0, so --preemption,
        --sched and --control reach the engine with --trace off too."""
        common = ["serve", "--trace", "off", "--preemption", "never",
                  "--sched", "edf", "--control", "pressure",
                  "--requests", "4", "--max-new-tokens", "16",
                  "--batch-capacity", "4", "--block-size", "4"]
        assert main(common + ["--kv-blocks", "64"]) == 0
        out = capsys.readouterr().out
        assert "closed batch" in out and "never preemption" in out
        assert "sched=edf" in out and "control=pressure" in out
        assert re.search(r"control policy\s+\| pressure", out)
        # A pool too tight for the batch needs preemption, which is off.
        assert main(common + ["--kv-blocks", "8"]) == 2
        assert "enable preemption" in capsys.readouterr().err

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.batch_capacity == 8 and args.scheduler == "two_level"
        assert args.framework == "vllm"
        assert args.tp == 1 and args.pp == 1
        assert args.tp_link == "nvlink" and args.pp_link == "pcie4"

    def test_serve_sharded(self, capsys):
        assert main(["serve", "--requests", "4", "--max-new-tokens", "8",
                     "--batch-capacity", "4", "--tp", "2", "--pp", "2"]) == 0
        out = capsys.readouterr().out
        assert "tp=2 pp=2" in out
        assert "throughput speedup" in out

    def test_serve_sharded_trace(self, capsys):
        assert main(["serve", "--trace", "poisson", "--requests", "4",
                     "--max-new-tokens", "8", "--batch-capacity", "4",
                     "--kv-blocks", "16", "--block-size", "4",
                     "--tp", "2", "--pp", "2"]) == 0
        out = capsys.readouterr().out
        assert "tp=2 pp=2" in out
        assert "SLO attainment" in out


class TestFleetServe:
    def test_fleet_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.replicas == 1 and args.route == "round_robin"
        assert args.sched == "fifo_priority" and args.clients == "open"

    def test_serve_fleet_trace(self, capsys):
        assert main(["serve", "--replicas", "3", "--route", "exit_aware",
                     "--sched", "edf", "--trace", "poisson",
                     "--requests", "6", "--max-new-tokens", "12",
                     "--batch-capacity", "4",
                     "--kv-blocks", "16", "--block-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "fleet serving: 3x" in out
        assert "route=exit_aware" in out and "sched=edf" in out
        assert "goodput" in out

    def test_serve_closed_loop_clients(self, capsys):
        assert main(["serve", "--replicas", "2", "--clients", "closed:3",
                     "--requests", "6", "--max-new-tokens", "12",
                     "--batch-capacity", "4",
                     "--kv-blocks", "16", "--block-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "closed:3 clients" in out
        assert "requests per replica" in out

    def test_serve_fleet_sharded_replicas(self, capsys):
        assert main(["serve", "--replicas", "2", "--trace", "poisson",
                     "--requests", "4", "--max-new-tokens", "8",
                     "--batch-capacity", "4", "--kv-blocks", "16",
                     "--block-size", "4", "--tp", "2"]) == 0
        out = capsys.readouterr().out
        assert "tp=2" in out and "fleet serving" in out

    def test_sched_flag_on_single_engine_trace(self, capsys):
        assert main(["serve", "--trace", "poisson", "--sched", "edf",
                     "--requests", "4", "--max-new-tokens", "8",
                     "--batch-capacity", "4", "--kv-blocks", "16",
                     "--block-size", "4"]) == 0
        assert "sched=edf" in capsys.readouterr().out

    def test_fleet_serves_a_closed_batch(self, capsys):
        """A closed batch is a workload like any other: --trace off at
        --replicas 2 routes the t=0 arrivals across the fleet."""
        assert main(["serve", "--replicas", "2", "--trace", "off",
                     "--requests", "6", "--max-new-tokens", "12",
                     "--batch-capacity", "4"]) == 0
        out = capsys.readouterr().out
        assert "fleet serving: 2x" in out and "closed batch" in out
        assert re.search(r"requests served\s+\| 6\b", out)
        assert re.search(r"requests per replica\s+\| 3/3", out)

    def test_one_replica_cli_agrees_with_the_engine_api(self, capsys):
        """--replicas 1 is the engine: the table's tokens, ticks and
        makespan are what driving AsyncServingEngine directly reports."""
        assert main(["serve", "--replicas", "1", "--trace", "poisson",
                     "--requests", "6", "--max-new-tokens", "12",
                     "--batch-capacity", "4", "--kv-blocks", "16",
                     "--block-size", "4"]) == 0
        out = capsys.readouterr().out
        rig = build_rig("llama2-7b", train_prompts=6, train_tokens=30,
                        predictor_hidden=128, epochs=10)
        engine = rig.async_serving_engine(
            batch_capacity=4, kv_blocks=16, block_size=4, control="static")
        report = engine.run(poisson_trace(
            6, 10.0, rig.model.vocab_size, slo_scale=3.0, seed=7,
            per_token_s=engine.latency.full_depth_token_time(),
            max_new_tokens_range=(6, 12)))
        for label, value in [("tokens generated", report.total_tokens),
                             ("scheduler ticks", report.n_steps),
                             ("makespan (modelled s)",
                              f"{report.makespan_s:.3f}")]:
            assert re.search(rf"{re.escape(label)}\s+\| {value}\s", out), label

    def test_clients_and_trace_conflict_errors(self, capsys):
        assert main(["serve", "--replicas", "2", "--clients", "closed:4",
                     "--trace", "bursty"]) == 2
        assert "both workloads" in capsys.readouterr().err

    def test_bad_clients_spec_errors(self, capsys):
        assert main(["serve", "--replicas", "2", "--clients", "closed:zero",
                     "--trace", "poisson"]) == 2
        assert "--clients" in capsys.readouterr().err

    def test_replicas_below_one_errors(self, capsys):
        assert main(["serve", "--replicas", "0", "--trace", "poisson"]) == 2
        assert "--replicas" in capsys.readouterr().err

    def test_transformer_backend_fleet(self, capsys):
        assert main(["serve", "--backend", "transformer",
                     "--replicas", "2", "--trace", "poisson",
                     "--requests", "4", "--max-new-tokens", "6",
                     "--batch-capacity", "4", "--kv-blocks", "16",
                     "--block-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "fleet serving: 2x tiny-transformer (priced as llama2-7b)" in out
        assert "requests per replica" in out

    def test_transformer_backend_closed_clients(self, capsys):
        assert main(["serve", "--backend", "transformer",
                     "--clients", "closed:2", "--requests", "4",
                     "--max-new-tokens", "6", "--batch-capacity", "4",
                     "--kv-blocks", "16", "--block-size", "4"]) == 0
        assert "closed:2 clients" in capsys.readouterr().out
