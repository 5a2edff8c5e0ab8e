"""Docs stay in lock-step with the code.

The drift these tests prevent is the kind this repo actually
accumulates: a new CLI subcommand that never makes it into the README
synopsis, or a new package missing from DESIGN.md's inventory.  CI runs
this module on every push (see .github/workflows/ci.yml).
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from repro.cli import build_parser

REPO = Path(__file__).resolve().parent.parent


def _cli_subcommands() -> list[str]:
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            return sorted(action.choices)
    raise AssertionError("spider-repro parser has no subparsers")


def _repro_packages() -> list[str]:
    src = REPO / "src" / "repro"
    return sorted(p.name for p in src.iterdir()
                  if p.is_dir() and (p / "__init__.py").exists())


def test_every_subcommand_in_readme_synopsis():
    readme = (REPO / "README.md").read_text()
    missing = [cmd for cmd in _cli_subcommands()
               if f"spider-repro {cmd}" not in readme]
    assert not missing, (
        f"README.md synopsis is missing subcommand(s) {missing}; "
        f"add a `spider-repro <cmd>` line to the CLI block")


def test_every_subcommand_in_cli_docstring():
    import repro.cli

    docstring = repro.cli.__doc__ or ""
    missing = [cmd for cmd in _cli_subcommands()
               if f"spider-repro {cmd}" not in docstring]
    assert not missing, (
        f"repro/cli.py module docstring is missing subcommand(s) {missing}")


def test_every_package_in_design_inventory():
    design = (REPO / "DESIGN.md").read_text()
    missing = [pkg for pkg in _repro_packages() if f"{pkg}/" not in design]
    assert not missing, (
        f"DESIGN.md §3 package inventory is missing package(s) {missing}")


def test_every_package_in_readme_tree():
    readme = (REPO / "README.md").read_text()
    missing = [pkg for pkg in _repro_packages() if f"{pkg}/" not in readme]
    assert not missing, (
        f"README.md \"What's inside\" tree is missing package(s) {missing}")


def test_every_runtime_dependency_is_imported():
    """pyproject.toml declares only what src/repro imports.  A regex
    reads it because Python 3.10, which CI also runs, has no tomllib."""
    pyproject = (REPO / "pyproject.toml").read_text()
    declared = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S)
    assert declared, "pyproject.toml has no [project] dependencies list"
    names = re.findall(r'"([A-Za-z0-9_.-]+)', declared.group(1))
    source = "\n".join(p.read_text()
                       for p in (REPO / "src" / "repro").rglob("*.py"))
    unused = [name for name in names if not re.search(
        rf"^\s*(?:import|from) {re.escape(name)}\b", source, re.M)]
    assert names and not unused, (
        f"pyproject.toml declares dependencies no module imports: {unused}")


def test_sched_subsystem_documented_everywhere():
    """The multi-tenant scheduler is documented end to end: every
    sched/ module appears in DESIGN.md's inventory, and EXPERIMENTS.md
    carries the paired QoS-on/off ablation row that motivates it."""
    design = (REPO / "DESIGN.md").read_text()
    modules = sorted(p.name for p in (REPO / "src/repro/sched").glob("*.py")
                     if p.name != "__init__.py")
    missing = [m for m in modules if f"sched/{m}" not in design]
    assert not missing, (
        f"DESIGN.md §3 inventory is missing sched module(s) {missing}")

    experiments = (REPO / "EXPERIMENTS.md").read_text()
    assert "spider-repro sched" in experiments, (
        "EXPERIMENTS.md must describe the multi-tenant QoS ablation "
        "driven by `spider-repro sched`")
    assert "| A14 |" in experiments, (
        "EXPERIMENTS.md ablation table lost the A14 multi-tenant row")


def test_resilience_subsystem_documented_everywhere():
    """The closed-loop remediation engine is documented end to end: every
    resilience/ module appears in DESIGN.md's inventory, and
    EXPERIMENTS.md carries the manual-vs-automated MTTR ablation row."""
    design = (REPO / "DESIGN.md").read_text()
    modules = sorted(
        p.name for p in (REPO / "src/repro/resilience").glob("*.py")
        if p.name != "__init__.py")
    missing = [m for m in modules if f"resilience/{m}" not in design]
    assert not missing, (
        f"DESIGN.md §3 inventory is missing resilience module(s) {missing}")

    experiments = (REPO / "EXPERIMENTS.md").read_text()
    assert "spider-repro resilience" in experiments, (
        "EXPERIMENTS.md must describe the manual-vs-automated MTTR "
        "ablation driven by `spider-repro resilience`")
    assert "| A15 |" in experiments, (
        "EXPERIMENTS.md ablation table lost the A15 remediation row")


def test_overlay_subsystem_documented_everywhere():
    """The in-band monitoring overlay is documented end to end: every
    obs/overlay/ module appears in DESIGN.md's inventory, and
    EXPERIMENTS.md carries the observed-detection ablation row."""
    design = (REPO / "DESIGN.md").read_text()
    modules = sorted(
        p.name for p in (REPO / "src/repro/obs/overlay").glob("*.py")
        if p.name != "__init__.py")
    missing = [m for m in modules if f"obs/overlay/{m}" not in design]
    assert not missing, (
        f"DESIGN.md §3 inventory is missing overlay module(s) {missing}")

    experiments = (REPO / "EXPERIMENTS.md").read_text()
    assert "spider-repro monitor" in experiments, (
        "EXPERIMENTS.md must describe the observed-detection ablation "
        "driven by `spider-repro monitor`")
    assert "| A16 |" in experiments, (
        "EXPERIMENTS.md ablation table lost the A16 overlay row")

    readme = (REPO / "README.md").read_text()
    assert "spider-repro monitor" in readme, (
        "README.md CLI synopsis lost the monitor subcommand")
    assert "obs/overlay/" in readme, (
        "README.md package tree lost the obs/overlay entry")


def test_metatier_subsystem_documented_everywhere():
    """The small-file metadata tier is documented end to end: every
    metatier/ module appears in DESIGN.md's inventory, EXPERIMENTS.md
    carries the A18 paired-study ablation row, and README documents the
    subcommand and package."""
    design = (REPO / "DESIGN.md").read_text()
    modules = sorted(
        p.name for p in (REPO / "src/repro/metatier").glob("*.py")
        if p.name != "__init__.py")
    missing = [m for m in modules if f"metatier/{m}" not in design]
    assert not missing, (
        f"DESIGN.md §3 inventory is missing metatier module(s) {missing}")

    experiments = (REPO / "EXPERIMENTS.md").read_text()
    assert "spider-repro meta" in experiments, (
        "EXPERIMENTS.md must describe the small-file tier paired study "
        "driven by `spider-repro meta`")
    assert "| A18 |" in experiments, (
        "EXPERIMENTS.md ablation table lost the A18 metadata-tier row")

    readme = (REPO / "README.md").read_text()
    assert "spider-repro meta" in readme, (
        "README.md CLI synopsis lost the meta subcommand")
    assert "metatier/" in readme, (
        "README.md package tree lost the metatier entry")


def test_routing_subsystem_documented_everywhere():
    """Congestion-aware routing is documented end to end: every
    network/ module appears in DESIGN.md's inventory, EXPERIMENTS.md
    carries the A19 storm-study ablation row, and README documents the
    subcommand and the routing section."""
    design = (REPO / "DESIGN.md").read_text()
    modules = sorted(
        p.name for p in (REPO / "src/repro/network").glob("*.py")
        if p.name != "__init__.py")
    missing = [m for m in modules if f"network/{m}" not in design]
    assert not missing, (
        f"DESIGN.md §3 inventory is missing network module(s) {missing}")

    experiments = (REPO / "EXPERIMENTS.md").read_text()
    assert "spider-repro storm" in experiments, (
        "EXPERIMENTS.md must describe the hot-spot storm study "
        "driven by `spider-repro storm`")
    assert "| A19 |" in experiments, (
        "EXPERIMENTS.md ablation table lost the A19 storm row")

    readme = (REPO / "README.md").read_text()
    assert "spider-repro storm" in readme, (
        "README.md CLI synopsis lost the storm subcommand")
    assert "flowlet" in readme, (
        "README.md lost the congestion-aware routing section")


def test_incremental_solver_documented_everywhere():
    """The incremental flow solver's performance contract is documented
    end to end: docs/PERFORMANCE.md names every resolve-path counter,
    README links the doc, DESIGN.md
    carries the §9 correctness argument, and EXPERIMENTS.md carries the
    before/after throughput ablation row."""
    from repro.core.flow import RESOLVE_COUNTERS

    performance = (REPO / "docs" / "PERFORMANCE.md").read_text()
    missing = [c for c in RESOLVE_COUNTERS if c not in performance]
    assert not missing, (
        f"docs/PERFORMANCE.md is missing resolve counter(s) {missing}; "
        f"keep the cost-model table in step with RESOLVE_COUNTERS")

    readme = (REPO / "README.md").read_text()
    assert "docs/PERFORMANCE.md" in readme, (
        "README.md lost the link to docs/PERFORMANCE.md")

    design = (REPO / "DESIGN.md").read_text()
    assert "## 9. Incremental flow solving" in design, (
        "DESIGN.md lost the §9 incremental-solving correctness argument")

    experiments = (REPO / "EXPERIMENTS.md").read_text()
    assert "| A17 |" in experiments, (
        "EXPERIMENTS.md ablation table lost the A17 incremental-solver row")


def test_performance_table_matches_bench_records():
    """docs/PERFORMANCE.md §4's table has a row for every checked-in
    BENCH_*.json record, every row names a benchmarks/ test file that
    exists, and every record's gated limit appears in its row."""
    import json
    import re

    performance = (REPO / "docs" / "PERFORMANCE.md").read_text()
    section = performance.split("\n## 4.")[1].split("\n## 5.")[0]
    rows = dict(re.findall(r"^\| `(BENCH_\w+\.json)` \|(.*)$", section,
                           re.M))
    for name, row in rows.items():
        scripts = re.findall(r"`(test_\w+\.py)`", row)
        assert scripts and all((REPO / "benchmarks" / script).exists()
                               for script in scripts), (
            f"docs/PERFORMANCE.md §4 row {name} must name an existing "
            f"benchmarks/test_*.py file")

    records = sorted(REPO.glob("BENCH_*.json"))
    assert records, "no BENCH_*.json regression records at repo root"
    for record in records:
        assert record.name in rows, (
            f"docs/PERFORMANCE.md §4 table has no row for {record.name}")
        limit = json.loads(record.read_text()).get("limit_fraction")
        if limit is not None:
            assert f"{limit:.0%}" in rows[record.name], (
                f"docs/PERFORMANCE.md §4 row {record.name} must state its "
                f"{limit:.0%} limit_fraction")


def test_deep_lint_documented_everywhere():
    """Deep mode is documented end to end: README and DESIGN.md describe
    the --deep pass, and the 60 s wall-clock budget is the same number in
    the test suite, the CI job, and docs/PERFORMANCE.md."""
    import re

    deep_tests = (REPO / "tests" / "test_lint_deep.py").read_text()
    match = re.search(r"^DEEP_BUDGET_SECONDS = (\d+(?:\.\d+)?)$",
                      deep_tests, re.M)
    assert match, "tests/test_lint_deep.py lost DEEP_BUDGET_SECONDS"
    budget = int(float(match.group(1)))

    readme = (REPO / "README.md").read_text()
    assert "spider-repro lint --deep" in readme, (
        "README.md CLI synopsis lost the `lint --deep` line")

    design = (REPO / "DESIGN.md").read_text()
    assert "--deep" in design, (
        "DESIGN.md §8 lost the deep-mode description")

    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "lint-deep:" in ci, "ci.yml lost the blocking lint-deep job"
    assert f"timeout {budget} " in ci, (
        f"ci.yml lint-deep job must enforce the documented {budget} s "
        f"budget with `timeout {budget}`")

    performance = (REPO / "docs" / "PERFORMANCE.md").read_text()
    assert f"**{budget} seconds**" in performance, (
        f"docs/PERFORMANCE.md §6 must document the {budget} s deep-lint "
        f"budget; keep it in step with DEEP_BUDGET_SECONDS and ci.yml")


def _registered_lint_rules() -> set[str]:
    import repro.lint

    return {rule.rule_id for rule in repro.lint.all_rules()}


def test_every_lint_rule_in_docs():
    # Forward direction: registering a rule obliges documenting it.
    rules = _registered_lint_rules()
    for doc in ("DESIGN.md", "README.md"):
        text = (REPO / doc).read_text()
        missing = sorted(r for r in rules if f"`{r}`" not in text)
        assert not missing, (
            f"{doc} does not mention lint rule(s) {missing}; "
            f"extend the spider-lint section")


def test_design_rule_table_matches_registry():
    # Reverse direction: the DESIGN.md §8 table may not document rules
    # that no longer exist (nor miss ones that do).
    import re

    design = (REPO / "DESIGN.md").read_text()
    documented = set(re.findall(r"^\| `([a-z][a-z-]*)` \|", design, re.M))
    rules = _registered_lint_rules()
    assert documented == rules, (
        "DESIGN.md §8 rule table is out of step with the registry: "
        f"stale={sorted(documented - rules)}, "
        f"undocumented={sorted(rules - documented)}")
