"""Documentation consistency: DESIGN.md's experiment index, the experiments
registry, the benchmark files, the ledger-event reference table, the CLI
flag docs, and the public-docstring contract must stay in sync."""

import argparse
import ast
import inspect
import json
import pathlib
import re

import pytest

from repro.cli import build_parser
from repro.experiments import REGISTRY
from repro.hardware.ledger import Event
from repro.serving import (CONTROL_POLICIES, ROUTING_POLICIES,
                           SCHEDULING_POLICIES, AsyncServingEngine,
                           ServingRouter)

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestDesignDoc:
    def test_design_mentions_every_experiment_module(self):
        design = (REPO / "DESIGN.md").read_text()
        for name in REGISTRY:
            module_suffix = name.split("_", 1)[0]
            assert module_suffix in design or name in design

    def test_every_registry_entry_has_a_benchmark(self):
        bench_dir = REPO / "benchmarks"
        benches = {p.stem for p in bench_dir.glob("bench_*.py")}
        for name in REGISTRY:
            assert f"bench_{name}" in benches, f"no benchmark for {name}"

    def test_module_map_covers_every_serving_module(self):
        """DESIGN.md's module map must name every repro.serving module — a
        new subsystem file that never makes it into the map is exactly the
        staleness this pass fixed."""
        design = (REPO / "DESIGN.md").read_text()
        for path in sorted((REPO / "src/repro/serving").glob("*.py")):
            if path.name == "__init__.py":
                continue
            assert path.name in design, (
                f"DESIGN.md module map does not mention {path.name}")

    def test_readme_points_to_design_and_experiments(self):
        readme = (REPO / "README.md").read_text()
        assert "DESIGN.md" in readme and "EXPERIMENTS.md" in readme

    @pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
    def test_docs_point_to_the_stopwatch_benchmark(self, doc):
        """The measuring-performance section must name `perf/`,
        `BENCHMARK.json` and every workload the benchmark declares."""
        text = (REPO / doc).read_text()
        assert "perf/" in text and "BENCHMARK.json" in text
        contract = json.loads((REPO / "BENCHMARK.json").read_text())
        for workload in contract["workloads"]:
            assert f"`{workload['name']}`" in text, (
                f"{doc} does not mention workload {workload['name']}")

    def test_design_names_the_inference_dtype(self):
        """The precision policy lives in one constant; DESIGN.md must name it
        and the dtype it holds — which the exit predictors are served in."""
        import numpy as np

        from repro.core.predictor import ExitPredictor
        from repro.nn.attention import INFERENCE_DTYPE

        design = (REPO / "DESIGN.md").read_text()
        assert "`INFERENCE_DTYPE = np.float32`" in design
        assert "served in `INFERENCE_DTYPE`" in design
        assert INFERENCE_DTYPE.__name__ == "float32"
        predictor = ExitPredictor(6, hidden_dim=4)
        assert all(w.dtype == b.dtype == INFERENCE_DTYPE for w, b in predictor.served)
        assert predictor.probability_batch(np.zeros((2, 6))).dtype == INFERENCE_DTYPE

    def test_experiments_md_covers_all_artifacts(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for anchor in ("Fig. 1(a)", "Fig. 5(a)", "Fig. 7", "Fig. 8", "Fig. 10",
                       "Fig. 11", "Fig. 14", "Fig. 15", "Fig. 16", "Fig. 17",
                       "Fig. 18", "Fig. 19", "Table 1", "Table 4",
                       "Sec. 7.3.1", "Sec. 7.4"):
            assert anchor in text, f"EXPERIMENTS.md missing {anchor}"


def _cli_subparsers():
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("CLI has no subcommands")


def _option_strings(parser):
    return {opt for action in parser._actions
            for opt in action.option_strings if opt.startswith("--")}


class TestLedgerEventTable:
    def test_every_event_kind_documented_in_table(self):
        """DESIGN.md's ledger-event reference must cover every Event kind."""
        design = (REPO / "DESIGN.md").read_text()
        table_rows = [line for line in design.splitlines()
                      if line.startswith("|") and "`" in line]
        for kind in Event.ALL:
            assert any(f"`{kind}`" in row for row in table_rows), (
                f"ledger event {kind!r} missing from DESIGN.md's "
                "ledger-event reference table")

    def test_table_names_only_real_events(self):
        """First-column backticked snake_case names must be Event kinds."""
        design = (REPO / "DESIGN.md").read_text()
        section = design.split("## Ledger-event reference", 1)[1]
        section = section.split("\n## ", 1)[0]
        for line in section.splitlines():
            match = re.match(r"\|\s*`([a-z_]+)`\s*\|", line)
            if match:
                assert match.group(1) in Event.ALL, (
                    f"table documents unknown event {match.group(1)!r}")


class TestCliFlagDocs:
    DOC_FILES = ("DESIGN.md", "README.md")

    def documented_flags(self):
        """Flags mentioned in repro CLI contexts across the docs."""
        flags = set()
        for name in self.DOC_FILES:
            text = (REPO / name).read_text()
            # Lines invoking the CLI, plus DESIGN.md's CLI-reference section.
            lines = [l for l in text.splitlines() if "-m repro" in l or "repro serve" in l]
            if "## CLI reference" in text:
                section = text.split("## CLI reference", 1)[1].split("\n## ", 1)[0]
                section = section.split("\n### ", 1)[0]
                lines.extend(section.splitlines())
            for line in lines:
                flags.update(re.findall(r"--[a-z][a-z0-9-]*", line))
        return flags

    def test_documented_flags_exist_in_cli(self):
        known = set()
        for sub in _cli_subparsers().values():
            known |= _option_strings(sub)
        missing = self.documented_flags() - known
        assert not missing, f"docs mention CLI flags that do not exist: {sorted(missing)}"

    def test_every_serve_flag_is_documented(self):
        serve_flags = _option_strings(_cli_subparsers()["serve"]) - {"--help"}
        undocumented = serve_flags - self.documented_flags()
        assert not undocumented, (
            f"serve flags missing from DESIGN.md/README.md: {sorted(undocumented)}")

    def test_control_flags_exist_and_are_documented(self):
        """The adaptive-control flags must exist on the serve command AND
        appear in the docs — both directions, so a rename of either side
        fails loudly."""
        control_flags = {"--control", "--control-seed"}
        serve_flags = _option_strings(_cli_subparsers()["serve"])
        assert control_flags <= serve_flags, (
            f"serve lost control flags: {sorted(control_flags - serve_flags)}")
        documented = self.documented_flags()
        assert control_flags <= documented, (
            f"control flags undocumented: {sorted(control_flags - documented)}")

    def test_fault_flags_exist_and_are_documented(self):
        """The fault-injection flags must exist on the serve command AND
        appear in the docs — both directions, so a rename of either side
        fails loudly."""
        fault_flags = {"--faults", "--fault-seed", "--no-failover"}
        serve_flags = _option_strings(_cli_subparsers()["serve"])
        assert fault_flags <= serve_flags, (
            f"serve lost fault flags: {sorted(fault_flags - serve_flags)}")
        documented = self.documented_flags()
        assert fault_flags <= documented, (
            f"fault flags undocumented: {sorted(fault_flags - documented)}")

    def test_train_exits_flags_exist_and_are_documented(self):
        """The train-exits flags must exist on the CLI AND appear in the
        docs — both directions, so a rename of either side fails loudly."""
        expected = {"--steps", "--curriculum", "--max-layer-dropout",
                    "--early-exit-scale", "--prompts", "--max-new-tokens",
                    "--contrast"}
        train_flags = _option_strings(_cli_subparsers()["train-exits"])
        assert expected <= train_flags, (
            f"train-exits lost flags: {sorted(expected - train_flags)}")
        documented = self.documented_flags()
        undocumented = (train_flags - {"--help"}) - documented
        assert not undocumented, (
            f"train-exits flags missing from DESIGN.md/README.md: "
            f"{sorted(undocumented)}")

    def test_serve_help_explains_policy_precedence(self):
        """`repro serve --help` must carry the epilog spelling out how the
        full knob set — --sched, --route, --control, --faults and
        --prefix-share — interacts."""
        epilog = _cli_subparsers()["serve"].epilog or ""
        for flag in ("--sched", "--route", "--control", "--faults",
                     "--prefix-share"):
            assert flag in epilog, (
                f"serve epilog no longer explains {flag}")

    def test_session_flags_exist_and_are_documented(self):
        """The multi-turn chat / prefix-sharing flags must exist on the
        serve command AND appear in the docs — both directions, so a rename
        of either side fails loudly."""
        session_flags = {"--sessions", "--tenants", "--turns", "--prefix-share"}
        serve_flags = _option_strings(_cli_subparsers()["serve"])
        assert session_flags <= serve_flags, (
            f"serve lost session flags: {sorted(session_flags - serve_flags)}")
        documented = self.documented_flags()
        assert session_flags <= documented, (
            f"session flags undocumented: {sorted(session_flags - documented)}")

    def test_fleet_flags_exist_and_are_documented(self):
        """The data-parallel fleet flags must exist on the serve command AND
        appear in the docs — both directions, spelled out so a rename of
        either side fails loudly."""
        fleet_flags = {"--replicas", "--route", "--sched", "--clients",
                       "--think-time"}
        serve_flags = _option_strings(_cli_subparsers()["serve"])
        assert fleet_flags <= serve_flags, (
            f"serve lost fleet flags: {sorted(fleet_flags - serve_flags)}")
        documented = self.documented_flags()
        assert fleet_flags <= documented, (
            f"fleet flags undocumented: {sorted(fleet_flags - documented)}")


class TestOptionCountRatchet:
    def test_serving_option_counts_only_go_down(self):
        """The knob ratchet beside CI's src/ line ratchet: every constructor
        keyword and serve flag multiplies the configurations tests must
        cover, so the counts may fall but not rise — delete a knob before
        you add one, then lower the ceiling."""
        n_params = lambda cls: len(inspect.signature(cls.__init__).parameters)
        serve_flags = _option_strings(_cli_subparsers()["serve"]) - {"--help"}
        assert n_params(AsyncServingEngine) <= 20  # self, engine, spec + 17
        assert n_params(ServingRouter) <= 6  # self, replicas, route + 3
        assert len(serve_flags) <= 38


class TestPolicyDocs:
    """DESIGN.md's routing/scheduling policy tables must name exactly the
    registered policies, and every registered policy must be a valid CLI
    choice."""

    def design_table_names(self, anchor):
        design = (REPO / "DESIGN.md").read_text()
        section = design.split(anchor, 1)[1]
        names = set()
        for line in section.splitlines():
            match = re.match(r"\|\s*`([a-z_]+)`\s*\|", line)
            if match:
                names.add(match.group(1))
            elif line.startswith("## "):
                break
        return names

    def test_scheduling_policies_documented(self):
        documented = self.design_table_names("**Scheduling policies.**")
        assert set(SCHEDULING_POLICIES) <= documented, (
            f"DESIGN.md scheduling table missing "
            f"{sorted(set(SCHEDULING_POLICIES) - documented)}")

    def test_routing_policies_documented(self):
        documented = self.design_table_names("**Routing policies**")
        assert set(ROUTING_POLICIES) <= documented, (
            f"DESIGN.md routing table missing "
            f"{sorted(set(ROUTING_POLICIES) - documented)}")

    def test_control_policies_documented(self):
        documented = self.design_table_names("**Control policies.**")
        assert set(CONTROL_POLICIES) <= documented, (
            f"DESIGN.md control table missing "
            f"{sorted(set(CONTROL_POLICIES) - documented)}")

    def test_cli_choices_match_registries(self):
        serve = _cli_subparsers()["serve"]
        choices = {action.dest: set(action.choices)
                   for action in serve._actions if action.choices}
        assert choices["route"] == set(ROUTING_POLICIES)
        assert choices["sched"] == set(SCHEDULING_POLICIES)
        assert choices["control"] == set(CONTROL_POLICIES)


class TestPublicDocstrings:
    PACKAGES = ("src/repro/serving", "src/repro/distributed",
                "src/repro/hardware/cluster.py", "src/repro/hardware/latency.py")

    @staticmethod
    def _missing_in(path):
        tree = ast.parse(path.read_text())
        missing = []
        if ast.get_docstring(tree) is None:
            missing.append(f"{path.name}: module")

        def check_body(body, scope):
            for node in body:
                if isinstance(node, ast.ClassDef):
                    if node.name.startswith("_"):
                        continue
                    if ast.get_docstring(node) is None:
                        missing.append(f"{path.name}: class {node.name}")
                    check_body(node.body, f"{node.name}.")
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    public = not node.name.startswith("_") or node.name in (
                        "__init__", "__post_init__")
                    if public and ast.get_docstring(node) is None:
                        missing.append(f"{path.name}: def {scope}{node.name}")

        check_body(tree.body, "")
        return missing

    @pytest.mark.parametrize("package", PACKAGES)
    def test_public_api_has_docstrings(self, package):
        """Module, public classes and public functions/methods (including
        __init__/__post_init__) of the serving and distributed packages and
        the cluster topology + roofline modules must carry docstrings — the
        same contract the CI pydocstyle job enforces."""
        target = REPO / package
        missing = []
        for path in [target] if target.is_file() else sorted(target.glob("*.py")):
            missing.extend(self._missing_in(path))
        assert not missing, "missing docstrings:\n  " + "\n  ".join(missing)


class TestExamplesExist:
    def test_at_least_three_examples(self):
        examples = list((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3
        names = {p.name for p in examples}
        assert "quickstart.py" in names

    def test_examples_import_public_api_only(self):
        for path in (REPO / "examples").glob("*.py"):
            text = path.read_text()
            assert "import repro" in text or "from repro" in text
