"""Tests for the simlint static analyzer (rules, phases, suppressions, CLI)."""

import json
import os
import textwrap

import pytest

from repro.devtools.simlint import RULES, lint_paths, lint_project, main
from repro.devtools.simlint.analyzer import iter_python_files, lint_source
from repro.devtools.simlint.cache import ResultCache
from repro.devtools.simlint.rules import RELAXED_DISABLED

_HERE = os.path.dirname(__file__)
_FIXTURE = os.path.join(_HERE, "fixtures", "planted_violations.py")
_EXPERIMENT_FIXTURE = os.path.join(
    _HERE, "fixtures", "repro", "experiments", "planted_stack.py"
)
_WHOLEPROG = os.path.join(_HERE, "fixtures", "wholeprog")
_CONTROLPLANE = os.path.join(_HERE, "fixtures", "controlplane")
_CYCLE = os.path.join(_HERE, "fixtures", "importcycle")
_SPAWNROOT = os.path.join(_HERE, "fixtures", "spawnroot")
_SRC = os.path.join(_HERE, os.pardir, os.pardir, "src")

# The cross-module rules need a project tree (fixtures/wholeprog etc.);
# SL007 only applies under repro/experiments/.  The single-file planted
# fixture covers every remaining local rule.
_CROSS_MODULE_RULES = {"SL011", "SL012", "SL013", "SL014", "SL015"}
_GENERAL_RULES = sorted(set(RULES) - {"SL007"} - _CROSS_MODULE_RULES)


def _lint_snippet(snippet, path="example/module.py"):
    findings, _ = lint_source(textwrap.dedent(snippet), path)
    return findings


def _strict(paths):
    """Fixture paths live under tests/, so force the strict profile."""
    return lint_project(paths, profile="strict")


class TestPlantedFixture:
    def test_every_rule_fires_exactly_once(self):
        report = _strict([_FIXTURE])
        assert not report.errors
        assert report.suppressed == 0
        assert [f.rule for f in report.findings] == _GENERAL_RULES

    def test_findings_carry_location_and_message(self):
        report = _strict([_FIXTURE])
        by_rule = {f.rule: f for f in report.findings}
        assert by_rule["SL001"].line == 14
        assert "time.time" in by_rule["SL001"].message
        assert by_rule["SL006"].path == _FIXTURE
        assert "vmm_generation" in by_rule["SL006"].message


class TestRuleEdges:
    def test_seeded_generator_construction_is_allowed(self):
        assert not _lint_snippet(
            """
            import random

            def make(seed):
                return random.Random(seed)
            """
        )

    def test_unseeded_generator_construction_is_flagged(self):
        (finding,) = _lint_snippet(
            """
            import random

            def make():
                return random.Random()
            """
        )
        assert finding.rule == "SL002"

    def test_sorted_set_iteration_is_allowed(self):
        assert not _lint_snippet(
            """
            def hosts(pool):
                for host in sorted({"a", "b"}):
                    yield host
            """
        )

    def test_set_facts_are_scoped_to_the_assigning_function(self):
        # `names` is a set in one function and a list in another; only the
        # set-assigning function's iteration is flagged.
        findings = _lint_snippet(
            """
            def uses_set():
                names = {"a", "b"}
                return [n for n in names]

            def uses_list():
                names = ["a", "b"]
                return [n for n in names]
            """
        )
        assert [f.rule for f in findings] == ["SL003"]

    def test_monotonic_clock_allowed_in_driver_modules(self):
        snippet = """
            import time

            def elapsed(t0):
                return time.perf_counter() - t0
            """
        assert not _lint_snippet(snippet, path="src/repro/experiments/cli.py")
        (finding,) = _lint_snippet(snippet, path="src/repro/core/host.py")
        assert finding.rule == "SL001"

    def test_heap_owner_modules_may_push(self):
        snippet = """
            import heapq

            def push(self, entry):
                heapq.heappush(self._heap, entry)
            """
        assert not _lint_snippet(snippet, path="src/repro/simkernel/kernel.py")
        (finding,) = _lint_snippet(snippet, path="src/repro/guest/vm.py")
        assert finding.rule == "SL004"

    def test_unknown_trace_kind_is_flagged(self):
        (finding,) = _lint_snippet(
            """
            def emit(sim):
                sim.trace.record("no.such.kind", host="h0")
            """
        )
        assert finding.rule == "SL006"
        assert "no.such.kind" in finding.message


class TestScenarioBypassRule:
    """SL007: experiments must build stacks through the scenario layer."""

    def test_planted_fixture_flags_both_entrypoints(self):
        findings, errors, suppressed = lint_paths([_EXPERIMENT_FIXTURE])
        assert not errors
        assert [f.rule for f in findings] == ["SL007", "SL007"]
        assert "RootHammer.started" in findings[0].message
        assert "Cluster" in findings[1].message
        assert suppressed == 1  # the waived_testbed line-skip

    def test_same_code_outside_experiments_is_clean(self):
        snippet = """
            from repro.core import RootHammer

            def build():
                return RootHammer.started(vms=[])
            """
        assert not _lint_snippet(snippet, path="src/repro/scenario/builder.py")
        (finding,) = _lint_snippet(
            snippet, path="src/repro/experiments/fig0_new.py"
        )
        assert finding.rule == "SL007"

    def test_direct_host_construction_is_flagged(self):
        (finding,) = _lint_snippet(
            """
            from repro.core.host import Host

            def build(sim):
                return Host(sim)
            """,
            path="src/repro/experiments/fig0_new.py",
        )
        assert finding.rule == "SL007"

    def test_scenario_builder_path_is_clean(self):
        assert not _lint_snippet(
            """
            from repro.scenario.builder import ScenarioBuilder
            from repro.scenario.spec import ScenarioSpec

            def build(spec: ScenarioSpec):
                return ScenarioBuilder(spec).build()
            """,
            path="src/repro/experiments/fig0_new.py",
        )


class TestObservabilityNamingRule:
    """SL008: closed span taxonomy, declared metric kinds, no hand rolls."""

    def test_registered_span_name_is_clean(self):
        assert not _lint_snippet(
            """
            def boot(sim, host):
                with sim.spans.span("reboot", actor=host, detail="warm"):
                    pass
            """
        )

    def test_unregistered_span_name_is_flagged(self):
        (finding,) = _lint_snippet(
            """
            def boot(sim, host):
                with sim.spans.span("reboot.sneaky", actor=host):
                    pass
            """
        )
        assert finding.rule == "SL008"
        assert "reboot.sneaky" in finding.message

    def test_dynamic_span_name_is_not_checked(self):
        assert not _lint_snippet(
            """
            def boot(sim, name, host):
                with sim.spans.span(name, actor=host):
                    pass
            """
        )

    def test_non_span_receiver_is_ignored(self):
        # re.Match.span() and friends must not trip the rule.
        assert not _lint_snippet(
            """
            def extent(match):
                return match.span("somegroup")
            """
        )

    def test_registered_metric_with_matching_kind_is_clean(self):
        assert not _lint_snippet(
            """
            def wire(sim):
                return sim.metrics.counter("nic.tx_bytes", nic="eth0")
            """
        )

    def test_unregistered_metric_name_is_flagged(self):
        (finding,) = _lint_snippet(
            """
            def wire(sim):
                return sim.metrics.counter("nic.rx_bytes", nic="eth0")
            """
        )
        assert finding.rule == "SL008"
        assert "nic.rx_bytes" in finding.message

    def test_metric_kind_mismatch_is_flagged(self):
        (finding,) = _lint_snippet(
            """
            def wire(sim):
                return sim.metrics.gauge("disk.busy_seconds", disk="sda")
            """
        )
        assert finding.rule == "SL008"
        assert "registered as a counter" in finding.message

    def test_hand_written_span_record_is_flagged(self):
        (finding,) = _lint_snippet(
            """
            def fake_span(sim):
                sim.trace.record(
                    "span.begin", span=1, parent=0, name="reboot",
                    actor="h0", detail="",
                )
            """
        )
        assert finding.rule == "SL008"
        assert "sim.spans.span" in finding.message

    def test_span_records_allowed_in_the_tracker_module(self):
        assert not _lint_snippet(
            """
            def _end(self, span):
                self._sim.trace.record("span.end", span=span.id)
            """,
            path="src/repro/simkernel/spans.py",
        )


class TestPrivacyRuleAliases:
    """SL009/SL010 are code aliases over the one privacy rule (SL014):
    receiver-name resolution keeps the historical codes firing with no
    hand-maintained attribute lists."""

    def test_private_attr_via_backend_property_is_flagged(self):
        (finding,) = _lint_snippet(
            """
            def queue_depth(sim):
                return len(sim.backend._heap)
            """
        )
        assert finding.rule == "SL009"
        assert "_heap" in finding.message

    def test_private_attr_via_local_backend_name_is_flagged(self):
        (finding,) = _lint_snippet(
            """
            def drain_stats(sim):
                backend = sim.backend
                return backend._idx
            """
        )
        assert finding.rule == "SL009"

    def test_fleet_receiver_reports_sl010(self):
        (finding,) = _lint_snippet(
            """
            def poke(fleet):
                return fleet._clients
            """
        )
        assert finding.rule == "SL010"

    def test_public_backend_interface_is_clean(self):
        assert not _lint_snippet(
            """
            def queue_depth(sim):
                return sim.backend.pending() + sim.backend.storage_size()
            """
        )

    def test_simkernel_modules_are_exempt(self):
        assert not _lint_snippet(
            """
            def _run_reference(self):
                return self._backend._heap
            """,
            path="src/repro/simkernel/kernel.py",
        )

    def test_unrelated_private_attrs_are_clean(self):
        # self._run() as a method, or private attrs on non-backend
        # receivers, must not trip the rule.
        assert not _lint_snippet(
            """
            def start(self, sim):
                self._process = sim.spawn(self._run(), name=self.name)
            """
        )

    def test_sl004_covers_run_and_far_structures(self):
        (finding,) = _lint_snippet(
            """
            def sneak(sim, entry):
                sim.backend._run.append(entry)  # simlint: skip=SL009
            """
        )
        assert finding.rule == "SL004"

    def test_typed_receiver_reports_historical_code(self, tmp_path):
        # The symbol-table half resolves an annotated receiver to its
        # class; a simkernel owner still reports SL009, not SL014.  Needs
        # a real two-module tree so the owner class gets indexed.
        pkg = tmp_path / "repro"
        for sub in ("simkernel", "analysis"):
            (pkg / sub).mkdir(parents=True)
            (pkg / sub / "__init__.py").write_text('"""Fixture."""\n')
        (pkg / "__init__.py").write_text('"""Fixture."""\n')
        (pkg / "simkernel" / "backends.py").write_text(
            textwrap.dedent(
                """
                class ReferenceBackend:
                    def __init__(self):
                        self._heap = []
                """
            )
        )
        (pkg / "analysis" / "probe.py").write_text(
            textwrap.dedent(
                """
                from repro.simkernel.backends import ReferenceBackend

                def peek(b: ReferenceBackend):
                    return b._heap
                """
            )
        )
        report = lint_project([str(tmp_path)], profile="strict")
        privacy = [f for f in report.findings if "_heap" in f.message]
        assert [f.rule for f in privacy] == ["SL009"]


class TestWholeProgramRules:
    """SL011-SL015 over the planted wholeprog fixture tree."""

    @pytest.fixture(scope="class")
    def report(self):
        return _strict([_WHOLEPROG])

    def test_each_cross_module_rule_fires_exactly_once(self, report):
        assert not report.errors
        counts = {}
        for finding in report.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        assert counts == {rule: 1 for rule in sorted(_CROSS_MODULE_RULES)}

    def test_layering_violation_names_both_layers(self, report):
        (finding,) = [f for f in report.findings if f.rule == "SL011"]
        assert finding.path.endswith("planner.py")
        assert "'cluster'" in finding.message
        assert "'application'" in finding.message

    def test_policy_layer_is_policed(self):
        report = _strict([_CONTROLPLANE])
        assert not report.errors
        (finding,) = report.findings
        assert finding.rule == "SL011"
        assert finding.path.endswith("planner.py")
        assert "'policy'" in finding.message
        assert "'host'" in finding.message

    def test_frozen_mutation_names_the_spec_class(self, report):
        (finding,) = [f for f in report.findings if f.rule == "SL012"]
        assert finding.path.endswith("mutate.py")
        assert "repro.cluster.planner.PlanSpec" in finding.message
        assert "dataclasses.replace" in finding.message

    def test_reachability_finding_carries_full_call_chain(self, report):
        (finding,) = [f for f in report.findings if f.rule == "SL013"]
        assert finding.path.endswith("planner.py")
        assert (
            "call chain: repro.cluster.planner.rebalance -> "
            "repro.cluster.planner._jitter -> time.time" in finding.message
        )

    def test_suppressing_the_local_rule_does_not_mask_reachability(
        self, report
    ):
        # planner.py suppresses SL001 at the sink line; SL013 still fires
        # there and the SL001 suppression is counted, not stale.
        assert report.suppressed == 1
        assert not any(
            f.rule == "SL015" and "SL001" in f.message for f in report.findings
        )

    def test_cross_package_private_access_is_flagged(self, report):
        (finding,) = [f for f in report.findings if f.rule == "SL014"]
        assert finding.path.endswith("tables.py")
        assert "_ledger" in finding.message
        assert "repro.cluster" in finding.message

    def test_stale_suppression_is_flagged_at_the_directive(self, report):
        (finding,) = [f for f in report.findings if f.rule == "SL015"]
        assert finding.path.endswith("planner.py")
        assert "skip=SL003" in finding.message

    def test_import_cycle_is_an_error(self):
        report = _strict([_CYCLE])
        (finding,) = report.findings
        assert finding.rule == "SL011"
        assert (
            "module-level import cycle: repro.cluster.alpha <-> "
            "repro.cluster.beta" in finding.message
        )

    def test_simulator_run_entry_point_chain_snapshot(self):
        report = _strict([_SPAWNROOT])
        (finding,) = report.findings
        assert finding.rule == "SL013"
        assert finding.message == (
            "time.monotonic() is reachable from the simulation (wall "
            "clock); call chain: repro.simkernel.kernel.Simulator.run -> "
            "repro.simkernel.kernel.Simulator._tick -> time.monotonic"
        )


class TestFrozenSpecRuleEdges:
    def test_setattr_escape_is_flagged(self):
        findings = _lint_snippet(
            """
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class Spec:
                width: int = 1

            def widen(spec: Spec):
                object.__setattr__(spec, "width", 2)
            """
        )
        assert [f.rule for f in findings] == ["SL012"]
        assert "object.__setattr__" in findings[0].message

    def test_post_init_self_assignment_is_the_sanctioned_escape(self):
        assert not _lint_snippet(
            """
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class Spec:
                width: int = 1

                def __post_init__(self):
                    object.__setattr__(self, "width", max(self.width, 1))
            """
        )

    def test_pytest_raises_guard_is_not_a_mutation(self):
        assert not _lint_snippet(
            """
            import dataclasses

            @dataclasses.dataclass(frozen=True)
            class Spec:
                width: int = 1

            def probe(spec: Spec, pytest):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    spec.width = 2
            """
        )

    def test_unfrozen_class_mutation_is_clean(self):
        assert not _lint_snippet(
            """
            import dataclasses

            @dataclasses.dataclass
            class Mutable:
                width: int = 1

            def widen(m: Mutable):
                m.width = 2
            """
        )


class TestProfiles:
    def test_tests_paths_get_the_relaxed_profile(self):
        source = "def f(x):\n    assert x\n"
        findings, _ = lint_source(source, "tests/foo/test_x.py")
        assert findings == []
        findings, _ = lint_source(source, "src/repro/core/x.py")
        assert [f.rule for f in findings] == ["SL005"]

    def test_relaxed_profile_still_enforces_frozen_specs(self):
        findings, _ = lint_source(
            textwrap.dedent(
                """
                import dataclasses

                @dataclasses.dataclass(frozen=True)
                class Spec:
                    width: int = 1

                def widen(spec: Spec):
                    spec.width = 2
                """
            ),
            "tests/foo/test_x.py",
        )
        assert [f.rule for f in findings] == ["SL012"]

    def test_relaxed_disabled_set_keeps_structural_rules(self):
        for rule in ("SL004", "SL007", "SL011", "SL012", "SL015"):
            assert rule not in RELAXED_DISABLED

    def test_fixture_trees_are_excluded_from_directory_walks(self):
        files = list(iter_python_files([_HERE]))
        assert files, "the walk must still find this test module"
        assert not any(os.sep + "fixtures" + os.sep in f for f in files)


class TestSuppressions:
    def test_line_skip_suppresses_and_counts(self):
        findings, suppressed = lint_source(
            "def f(x):\n    assert x  # simlint: skip\n",
            "example/module.py",
        )
        assert not findings
        assert suppressed == 1

    def test_line_skip_with_rule_list_is_selective(self):
        source = (
            "import time\n"
            "def f(x):\n"
            "    assert time.time()  # simlint: skip=SL005\n"
        )
        findings, suppressed = lint_source(source, "example/module.py")
        assert [f.rule for f in findings] == ["SL001"]
        assert suppressed == 1

    def test_file_skip_suppresses_everything(self):
        source = (
            "# simlint: skip-file\n"
            "def f(x):\n"
            "    assert x\n"
        )
        findings, suppressed = lint_source(source, "example/module.py")
        assert not findings
        assert suppressed == 1

    def test_directive_in_string_literal_does_not_suppress(self):
        source = (
            'NOTE = "simlint: skip"\n'
            "def f(x):\n"
            "    assert x\n"
        )
        findings, _ = lint_source(source, "example/module.py")
        assert [f.rule for f in findings] == ["SL005"]

    def test_stale_directive_is_sl015(self):
        findings, suppressed = lint_source(
            "def f(x):\n    return x  # simlint: skip=SL001\n",
            "example/module.py",
        )
        assert [f.rule for f in findings] == ["SL015"]
        assert suppressed == 0

    def test_sl015_cannot_be_suppressed(self):
        # A blanket skip on a clean line would otherwise mask its own
        # staleness report.
        findings, _ = lint_source(
            "def f(x):\n    return x  # simlint: skip\n",
            "example/module.py",
        )
        assert [f.rule for f in findings] == ["SL015"]


class TestIncrementalCache:
    def _run(self, cache_path, paths):
        cache = ResultCache.load(cache_path)
        report = lint_project(paths, profile="strict", cache=cache)
        cache.store(paths)
        return report, cache

    def test_warm_run_reports_identical_findings(self, tmp_path):
        cache_path = str(tmp_path / "cache.json")
        cold = lint_project([_WHOLEPROG], profile="strict")
        first, cache1 = self._run(cache_path, [_WHOLEPROG])
        second, cache2 = self._run(cache_path, [_WHOLEPROG])
        assert first.findings == cold.findings
        assert second.findings == cold.findings
        assert second.suppressed == cold.suppressed
        assert cache1.hits == 0 and cache1.misses == first.stats["files"]
        assert cache2.misses == 0 and cache2.hits == second.stats["files"]

    def test_editing_a_file_invalidates_only_that_entry(self, tmp_path):
        import shutil

        tree = tmp_path / "wholeprog"
        shutil.copytree(_WHOLEPROG, tree)
        cache_path = str(tmp_path / "cache.json")
        first, _ = self._run(cache_path, [str(tree)])
        target = tree / "repro" / "experiments" / "layout.py"
        target.write_text(target.read_text() + "\nEXTRA = 1\n")
        second, cache = self._run(cache_path, [str(tree)])
        assert cache.misses == 1
        assert cache.hits == first.stats["files"] - 1
        assert [f.rule for f in second.findings] == [
            f.rule for f in first.findings
        ]

    def test_profile_is_cache_key_material(self, tmp_path):
        cache_path = str(tmp_path / "cache.json")
        self._run(cache_path, [_WHOLEPROG])
        cache = ResultCache.load(cache_path)
        relaxed = lint_project([_WHOLEPROG], profile="relaxed", cache=cache)
        assert cache.hits == 0  # strict entries must not satisfy relaxed
        assert relaxed.stats["files"] == cache.misses


class TestSarifOutput:
    def test_sarif_2_1_0_shape(self, capsys):
        assert main(["--format=sarif", "--profile=strict", _WHOLEPROG]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "simlint"
        assert {r["id"] for r in driver["rules"]} == set(RULES)
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
        assert len(run["results"]) == 5
        for result in run["results"]:
            assert result["ruleId"] in RULES
            assert result["level"] == "error"
            assert result["message"]["text"]
            (location,) = result["locations"]
            physical = location["physicalLocation"]
            assert physical["artifactLocation"]["uri"]
            assert physical["region"]["startLine"] >= 1
            assert physical["region"]["startColumn"] >= 1
        (invocation,) = run["invocations"]
        assert invocation["executionSuccessful"] is True

    def test_sarif_output_to_file(self, tmp_path, capsys):
        out = tmp_path / "lint.sarif"
        assert (
            main(
                [
                    "--format=sarif",
                    "--profile=strict",
                    f"--output={out}",
                    _CYCLE,
                ]
            )
            == 1
        )
        log = json.loads(out.read_text())
        assert log["runs"][0]["results"][0]["ruleId"] == "SL011"


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def f():\n    return 1\n")
        assert main([str(clean)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one_with_text_report(self, capsys):
        assert main(["--profile=strict", _FIXTURE]) == 1
        out = capsys.readouterr().out
        assert "SL001" in out and "9 finding(s)" in out

    def test_json_format_is_machine_readable(self, capsys):
        assert main(["--format=json", "--profile=strict", _FIXTURE]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {f["rule"] for f in payload["findings"]} == set(_GENERAL_RULES)
        assert payload["errors"] == []
        assert payload["stats"]["files"] == 1

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        assert main([str(broken)]) == 2
        captured = capsys.readouterr()
        assert "syntax error" in captured.err
        assert "1 file error(s)" in captured.out

    def test_rule_filter(self, capsys):
        assert main(["--rules=SL005", "--profile=strict", _FIXTURE]) == 1
        out = capsys.readouterr().out
        assert "SL005" in out and "SL001" not in out

    def test_stats_report(self, capsys):
        assert main(["--stats", "--profile=strict", _WHOLEPROG]) == 1
        out = capsys.readouterr().out
        assert "simlint stats" in out
        assert "suppression comments" in out
        assert "1 stale" in out

    def test_changed_mode_round_trip(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        args = [
            "--changed",
            f"--cache-path={cache}",
            "--profile=strict",
            _WHOLEPROG,
        ]
        assert main(args) == 1
        cold_out = capsys.readouterr().out
        assert cache.is_file()
        assert main(args) == 1
        warm_out = capsys.readouterr().out
        assert warm_out == cold_out


class TestSourceTreeIsClean:
    def test_src_lints_clean_with_no_suppressions(self):
        """The acceptance bar: all rules active, zero waivers in src/."""
        findings, errors, suppressed = lint_paths([_SRC])
        assert not errors
        assert findings == []
        assert suppressed == 0

    def test_tests_and_benchmarks_lint_clean_under_relaxed_profile(self):
        root = os.path.join(_HERE, os.pardir, os.pardir)
        report = lint_project(
            [os.path.join(root, "tests"), os.path.join(root, "benchmarks")]
        )
        assert not report.errors
        assert report.findings == []
