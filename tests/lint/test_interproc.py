"""Interprocedural rules R6-R9 (the whole-program pass).

Fixtures are inline sources positioned inside the ``repro`` package via
``package_rel`` — ``lint_source`` runs them through a one-module
project, so local call edges are visible to the dataflow engine.  The
R8 regression uses the checked-in ``.pysnippet`` pre-fix sources
materialised into a temporary package tree (two modules, cross-module
analysis).
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).parent / "fixtures"

PARALLEL = ("repro", "experiments", "parallel.py")
CORE = ("repro", "core", "metrics.py")


# ----------------------------------------------------------------------
# R6 — determinism taint
# ----------------------------------------------------------------------
R6_TAINT = """\
import time


def _jitter():
    return time.time()


def _helper():
    return _jitter() + 1.0


def _execute_job(job):
    return _helper()
"""


class TestR6:
    def test_transitive_impurity_reported_with_call_chain(self):
        findings = lint_source(R6_TAINT, path="parallel.py",
                               package_rel=PARALLEL)
        r6 = [f for f in findings if f.rule == "R6"]
        assert len(r6) == 1
        assert r6[0].line == 5
        assert "reachable from sweep/cache-key root via" in r6[0].message
        assert ("repro.experiments.parallel._execute_job"
                " -> repro.experiments.parallel._helper"
                " -> repro.experiments.parallel._jitter") in r6[0].message

    def test_r6_subsumes_r1_at_the_same_site(self):
        findings = lint_source(R6_TAINT, path="parallel.py",
                               package_rel=PARALLEL)
        # the per-file determinism rule would flag line 5 too; the
        # runner drops it in favour of the richer R6 finding.
        assert {f.rule for f in findings} == {"R6"}

    def test_unreachable_impurity_stays_a_plain_r1(self):
        source = R6_TAINT.replace("return _helper()", "return 0")
        findings = lint_source(source, path="parallel.py",
                               package_rel=PARALLEL)
        assert {f.rule for f in findings} == {"R1"}

    def test_environment_read_and_set_iteration_are_sources(self):
        source = """\
import os


def _settings():
    return os.environ.get("FLEXFETCH_MODE")


def _order(items):
    return [x for x in {i for i in items}]


def _execute_job(job):
    return _settings(), _order(job)
"""
        findings = lint_source(source, path="parallel.py",
                               package_rel=PARALLEL,
                               select=frozenset({"R6"}))
        messages = sorted(f.message for f in findings)
        assert len(findings) == 2
        assert any("environment read os.environ.get()" in m
                   for m in messages)
        assert any("unordered set" in m for m in messages)


# ----------------------------------------------------------------------
# R7 — parallel safety
# ----------------------------------------------------------------------
class TestR7:
    def test_worker_reachable_module_state_write(self):
        source = """\
_RESULTS: dict = {}


def _execute_job(job):
    _RESULTS[job] = 1
    return _RESULTS
"""
        findings = lint_source(source, path="parallel.py",
                               package_rel=PARALLEL,
                               select=frozenset({"R7"}))
        assert len(findings) == 1
        assert "stores into module-level container '_RESULTS'" \
            in findings[0].message

    def test_parent_side_write_is_clean(self):
        source = """\
_CACHE: dict = {}


def record(key, value):
    _CACHE[key] = value


def _execute_job(job):
    return job
"""
        assert lint_source(source, path="parallel.py",
                           package_rel=PARALLEL,
                           select=frozenset({"R7"})) == []

    def test_lambda_into_sweepjob_boundary(self):
        source = """\
from dataclasses import dataclass


@dataclass
class SweepJob:
    index: int
    policy_factory: object


def build():
    return SweepJob(0, lambda: 3)
"""
        findings = lint_source(source, path="parallel.py",
                               package_rel=PARALLEL,
                               select=frozenset({"R7"}))
        assert len(findings) == 1
        assert "non-picklable value (a lambda)" in findings[0].message
        assert "SweepJob fork boundary" in findings[0].message

    def test_closure_and_open_handle_into_sweepjob(self):
        source = """\
from dataclasses import dataclass


@dataclass
class SweepJob:
    payload: object


def build(path):
    def factory():
        return 3
    return SweepJob(payload=factory), SweepJob(payload=open(path))
"""
        findings = lint_source(source, path="parallel.py",
                               package_rel=PARALLEL,
                               select=frozenset({"R7"}))
        kinds = sorted(f.message.split("(")[1].split(")")[0]
                       for f in findings)
        assert kinds == ["an open file handle",
                         "nested function 'factory' "]

    def test_only_policy_factories_crosses_run_sweep_boundary(self):
        source = """\
class ParallelSweepExecutor:
    def run_sweep(self, programs_factory, policy_factories,
                  wnic_specs, config):
        return None


def sweep(executor: ParallelSweepExecutor, specs, config):
    return executor.run_sweep(lambda: [], {"flexfetch": lambda: None},
                              specs, config)
"""
        findings = lint_source(source, path="parallel.py",
                               package_rel=PARALLEL,
                               select=frozenset({"R7"}))
        # programs_factory (positional 0) runs in the parent and may be
        # a lambda; the dict-valued policy_factories (positional 1) is
        # pickled into workers, so only its lambda is flagged.
        assert len(findings) == 1
        assert findings[0].line == 8
        assert "ParallelSweepExecutor.run_sweep fork boundary" \
            in findings[0].message

    def test_mutable_payloads_staged_into_worker_registry(self):
        source = (FIXTURES / "r7_stage_bad.pysnippet").read_text(
            encoding="utf-8")
        findings = lint_source(source, path="parallel.py",
                               package_rel=PARALLEL,
                               select=frozenset({"R7"}))
        kinds = sorted(f.message.split("(")[1].split(")")[0]
                       for f in findings)
        assert kinds == ["a dict literal", "a list comprehension",
                         "bytearray", "dict"]
        assert all("worker payload registry" in f.message
                   for f in findings)

    def test_immutable_staged_payloads_are_clean(self):
        source = (FIXTURES / "r7_stage_good.pysnippet").read_text(
            encoding="utf-8")
        assert lint_source(source, path="parallel.py",
                           package_rel=PARALLEL,
                           select=frozenset({"R7"})) == []

    def test_current_tree_stages_only_immutable_payloads(self):
        src = REPO_ROOT / "src" / "repro"
        flagged = [f for f in lint_paths([src],
                                         select=frozenset({"R7"}))
                   if "payload registry" in f.message]
        assert flagged == []


# ----------------------------------------------------------------------
# R8 — cache-key soundness (the stale-cache regression)
# ----------------------------------------------------------------------
def _materialise_r8_tree(tmp_path: Path) -> Path:
    pkg = tmp_path / "repro"
    (pkg / "experiments").mkdir(parents=True)
    (pkg / "core").mkdir()
    (pkg / "experiments" / "cache.py").write_text(
        (FIXTURES / "r8_stale_cache.pysnippet").read_text(
            encoding="utf-8"), encoding="utf-8")
    (pkg / "core" / "session.py").write_text(
        (FIXTURES / "r8_stale_session.pysnippet").read_text(
            encoding="utf-8"), encoding="utf-8")
    return pkg


class TestR8:
    def test_prefix_run_key_flags_faults_and_spindown(self, tmp_path):
        pkg = _materialise_r8_tree(tmp_path)
        findings = lint_paths([pkg], select=frozenset({"R8"}))
        assert len(findings) == 2
        assert all(f.rule == "R8" for f in findings)
        assert all(f.path.endswith("cache.py") for f in findings)
        messages = " | ".join(f.message for f in findings)
        assert "'faults'" in messages
        assert "'spindown_policy'" in messages
        assert "stale" in messages

    def test_result_neutral_parameters_are_not_required(self, tmp_path):
        pkg = _materialise_r8_tree(tmp_path)
        messages = " | ".join(
            f.message for f in lint_paths([pkg],
                                          select=frozenset({"R8"})))
        assert "'sinks'" not in messages

    def test_current_tree_is_r8_clean(self):
        src = REPO_ROOT / "src" / "repro"
        assert lint_paths([src], select=frozenset({"R8"})) == []


# ----------------------------------------------------------------------
# R9 — interprocedural unit flow
# ----------------------------------------------------------------------
R9_SOURCE = """\
from repro.units import Joules, Seconds


def total_energy(idle: Joules, active: Joules) -> Joules:
    return idle + active


def plain() -> float:
    return 1.0


def use(delay: Seconds, idle: Joules, active: Joules):
    t: Seconds = total_energy(idle, active)
    u: Seconds = plain()
    return delay + total_energy(idle, active)
"""


class TestR9:
    def _findings(self):
        return lint_source(R9_SOURCE, path="metrics.py",
                           package_rel=CORE,
                           select=frozenset({"R9"}))

    def test_mismatched_return_into_typed_slot(self):
        by_line = {f.line: f for f in self._findings()}
        assert "total_energy() returns energy" in by_line[13].message
        assert "time-typed slot (Seconds)" in by_line[13].message

    def test_unitless_return_into_typed_slot(self):
        by_line = {f.line: f for f in self._findings()}
        assert "unit-less return of" in by_line[14].message
        assert "repro.units.Seconds" in by_line[14].message

    def test_cross_call_dimension_mix(self):
        by_line = {f.line: f for f in self._findings()}
        assert ("incompatible dimensions across a call boundary"
                in by_line[15].message)
        assert "time vs energy" in by_line[15].message

    def test_lexically_local_mix_is_left_to_r2(self):
        source = """\
from repro.units import Joules, Seconds


def mix(delay: Seconds, energy: Joules):
    return delay + energy
"""
        findings = lint_source(source, path="metrics.py",
                               package_rel=CORE)
        assert {f.rule for f in findings} == {"R2"}

    def test_return_annotation_vs_callee_dimension(self):
        source = """\
from repro.units import Joules, Seconds


def energy() -> Joules:
    return 1.0


def wait_time() -> Seconds:
    return energy()
"""
        findings = lint_source(source, path="metrics.py",
                               package_rel=CORE,
                               select=frozenset({"R9"}))
        assert len(findings) == 1
        assert findings[0].line == 9
        assert "energy-valued result" in findings[0].message
        assert "-> Seconds" in findings[0].message


# ----------------------------------------------------------------------
# global ordering
# ----------------------------------------------------------------------
class TestOrdering:
    def test_findings_are_globally_ordered_and_stable(self, tmp_path):
        pkg = tmp_path / "repro"
        (pkg / "experiments").mkdir(parents=True)
        (pkg / "experiments" / "b.py").write_text(
            R6_TAINT, encoding="utf-8")
        (pkg / "experiments" / "a.py").write_text(
            "import time\n\n\ndef f(x=[]):\n"
            "    return time.time(), x\n", encoding="utf-8")
        first = lint_paths([pkg])
        second = lint_paths([pkg])
        assert first == second
        keys = [(f.path, f.line, f.col, f.rule, f.message)
                for f in first]
        assert keys == sorted(keys)
        assert len(first) >= 3  # a.py: R1+R4; b.py: R6
