"""Per-rule fixture tests for every hydra-lint code, plus the repo meta-test.

Every registered rule code gets at least one flagging and one non-flagging
fixture, driven off the hard-coded ``EXPECTED_CODES`` list: deleting a rule
implementation makes the ``RULES`` lookup raise and the fixture test fail, so
no rule can silently become vacuous.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest

from repro.lint.framework import (
    Finding,
    all_rules,
    build_context,
    registered_codes,
)
from repro.lint.rules.imports import LAYERING
from repro.lint.runner import lint_file, run_lint

#: The released rule catalogue.  Hard-coded on purpose: a deleted or
#: renamed rule must fail here, not silently shrink the registry.
EXPECTED_CODES = [
    "HYD101",
    "HYD102",
    "HYD103",
    "HYD201",
    "HYD202",
    "HYD301",
    "HYD302",
    "HYD402",
    "HYD501",
    "HYD502",
]

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Every registered rule class by code.
RULES = {rule.code: rule for rule in all_rules()}


def check(code: str, source: str, rel_path: str = "src/repro/fixture.py") -> list[Finding]:
    """Run one rule over a dedented source snippet and return its findings."""
    rule = RULES[code]()
    ctx = build_context(
        Path(rel_path), textwrap.dedent(source), rel_path, known_codes=registered_codes()
    )
    return sorted(rule.check(ctx))


class TestRegistry:
    def test_registry_matches_released_catalogue(self):
        codes = [code for code in registered_codes() if not code.startswith("HYD0")]
        assert codes == EXPECTED_CODES

    def test_every_rule_has_code_name_summary(self):
        for code in EXPECTED_CODES:
            rule_class = RULES[code]
            assert rule_class.code == code
            assert rule_class.name
            assert rule_class.summary
            assert rule_class.paths


class TestHYD101UnseededRng:
    def test_flags_unseeded_default_rng(self):
        findings = check(
            "HYD101",
            """
            import numpy as np
            rng = np.random.default_rng()
            """,
        )
        assert [f.code for f in findings] == ["HYD101"]

    def test_flags_legacy_global_numpy_call(self):
        findings = check(
            "HYD101",
            """
            import numpy as np
            x = np.random.rand(3)
            """,
        )
        assert [f.code for f in findings] == ["HYD101"]

    def test_flags_stdlib_global_random(self):
        findings = check(
            "HYD101",
            """
            import random
            x = random.random()
            """,
        )
        assert [f.code for f in findings] == ["HYD101"]

    def test_flags_member_import_of_global_random(self):
        findings = check(
            "HYD101",
            """
            from random import shuffle
            shuffle([1, 2])
            """,
        )
        assert [f.code for f in findings] == ["HYD101"]

    def test_seeded_generators_pass(self):
        findings = check(
            "HYD101",
            """
            import random
            import numpy as np
            from numpy.random import default_rng

            rng = np.random.default_rng(42)
            other = default_rng(7)
            legacy = np.random.RandomState(13)
            stdlib = random.Random(99)
            """,
        )
        assert findings == []


class TestHYD102WallClock:
    def test_flags_time_time(self):
        findings = check(
            "HYD102",
            """
            import time
            stamp = time.time()
            """,
            rel_path="src/repro/serialization.py",
        )
        assert [f.code for f in findings] == ["HYD102"]

    def test_flags_from_imported_datetime_now(self):
        findings = check(
            "HYD102",
            """
            from datetime import datetime
            stamp = datetime.now()
            """,
            rel_path="src/repro/core/summary.py",
        )
        assert [f.code for f in findings] == ["HYD102"]

    def test_non_clock_calls_pass(self):
        findings = check(
            "HYD102",
            """
            import math
            value = math.floor(1.2)
            """,
            rel_path="src/repro/serialization.py",
        )
        assert findings == []

    def test_scope_is_fingerprint_modules(self):
        rule = RULES["HYD102"]
        assert "src/repro/serialization.py" in rule.paths
        assert "src/repro/sinks/manifest.py" in rule.paths

    def test_export_driver_clock_reads_are_out_of_scope(self, tmp_path):
        """The export driver's rows/s timing is not a checksum input; manifests are."""
        path = tmp_path / "fixture.py"
        path.write_text("import time\nstarted = time.perf_counter()\n")
        assert lint_file(path, "src/repro/sinks/export.py") == []
        findings = lint_file(path, "src/repro/sinks/manifest.py")
        assert [f.code for f in findings] == ["HYD102"]


class TestHYD103SetIteration:
    def test_flags_for_over_set_literal(self):
        findings = check(
            "HYD103",
            """
            for name in {"b", "a"}:
                print(name)
            """,
            rel_path="src/repro/serialization.py",
        )
        assert [f.code for f in findings] == ["HYD103"]

    def test_flags_list_of_set_call(self):
        findings = check(
            "HYD103",
            "names = list(set([3, 1, 2]))\n",
            rel_path="src/repro/sinks/base.py",
        )
        assert [f.code for f in findings] == ["HYD103"]

    def test_flags_comprehension_over_set(self):
        findings = check(
            "HYD103",
            "out = [n for n in {1, 2}]\n",
            rel_path="src/repro/serialization.py",
        )
        assert [f.code for f in findings] == ["HYD103"]

    def test_sorted_set_passes(self):
        findings = check(
            "HYD103",
            """
            for name in sorted({"b", "a"}):
                print(name)
            names = sorted(set([3, 1, 2]))
            for item in [1, 2]:
                print(item)
            """,
            rel_path="src/repro/serialization.py",
        )
        assert findings == []


class TestHYD201PoolCallable:
    def test_flags_lambda_into_process(self):
        findings = check(
            "HYD201",
            """
            import multiprocessing as mp
            p = mp.Process(target=lambda: 1)
            """,
        )
        assert [f.code for f in findings] == ["HYD201"]

    def test_flags_nested_function_into_submit(self):
        findings = check(
            "HYD201",
            """
            def launch(executor):
                def job():
                    return 1
                return executor.submit(job)
            """,
        )
        assert [f.code for f in findings] == ["HYD201"]

    def test_module_level_target_passes(self):
        findings = check(
            "HYD201",
            """
            import multiprocessing as mp

            def job():
                return 1

            p = mp.Process(target=job)
            """,
        )
        assert findings == []


class TestHYD202WorkerGlobalMutation:
    def test_flags_global_statement_in_worker(self):
        findings = check(
            "HYD202",
            """
            RESULTS = []

            def lane_worker():
                global RESULTS
                RESULTS = []
            """,
        )
        assert "HYD202" in [f.code for f in findings]

    def test_flags_mutator_call_on_module_state(self):
        findings = check(
            "HYD202",
            """
            RESULTS = []

            def lane_worker(item):
                RESULTS.append(item)
            """,
        )
        assert [f.code for f in findings] == ["HYD202"]

    def test_flags_subscript_store_into_module_dict(self):
        findings = check(
            "HYD202",
            """
            CACHE = {}

            def worker_main(key, value):
                CACHE[key] = value
            """,
        )
        assert [f.code for f in findings] == ["HYD202"]

    def test_queue_results_and_locals_pass(self):
        findings = check(
            "HYD202",
            """
            RESULTS = []

            def lane_worker(queue, item):
                local = []
                local.append(item)
                queue.put(local)

            def not_a_pool_entry(item):
                RESULTS.append(item)
            """,
        )
        assert findings == []


class TestHYD301FloatEquality:
    def test_flags_equality_against_float_literal(self):
        findings = check(
            "HYD301",
            "def f(x):\n    return x == 1.5\n",
            rel_path="src/repro/core/regions.py",
        )
        assert [f.code for f in findings] == ["HYD301"]

    def test_flags_inequality_against_float_cast(self):
        findings = check(
            "HYD301",
            "def f(x):\n    return x != float('inf')\n",
            rel_path="src/repro/core/grid.py",
        )
        assert [f.code for f in findings] == ["HYD301"]

    def test_flags_math_inf_comparison(self):
        findings = check(
            "HYD301",
            "import math\n\ndef f(x):\n    return x == math.inf\n",
            rel_path="src/repro/sql/predicates.py",
        )
        assert [f.code for f in findings] == ["HYD301"]

    def test_isinf_ordering_and_int_equality_pass(self):
        findings = check(
            "HYD301",
            """
            import math

            def f(x, n):
                return math.isinf(x) or x <= 1.5 or n == 1
            """,
            rel_path="src/repro/core/regions.py",
        )
        assert findings == []


class TestHYD302BareFloatSum:
    def test_flags_builtin_sum(self):
        findings = check(
            "HYD302",
            "def total(values):\n    return sum(values)\n",
            rel_path="src/repro/executor/engine.py",
        )
        assert [f.code for f in findings] == ["HYD302"]

    def test_fsum_and_method_sum_pass(self):
        findings = check(
            "HYD302",
            """
            import math

            def total(values, array):
                return math.fsum(values) + array.sum()
            """,
            rel_path="src/repro/executor/engine.py",
        )
        assert findings == []


class TestHYD402LayerBoundary:
    def test_flags_executor_import_outside_seam(self):
        findings = check(
            "HYD402",
            "from repro.parallel import pool\n",
            rel_path="src/repro/executor/fixture.py",
        )
        assert [f.code for f in findings] == ["HYD402"]

    def test_flags_relative_core_import(self):
        findings = check(
            "HYD402",
            "from ..parallel.sharding import ShardPlan\n",
            rel_path="src/repro/core/fixture.py",
        )
        assert [f.code for f in findings] == ["HYD402"]

    def test_documented_seams_are_exempt(self):
        source = "from repro.parallel import iter_parallel_blocks\n"
        assert check("HYD402", source, rel_path="src/repro/executor/datagen.py") == []
        # The core has no seam left: the pipeline passes a plain worker count.
        findings = check("HYD402", source, rel_path="src/repro/core/pipeline.py")
        assert [f.code for f in findings] == ["HYD402"]

    def test_unrelated_layers_pass(self):
        findings = check(
            "HYD402",
            "from repro.parallel import ShardPlan\n",
            rel_path="src/repro/sinks/fixture.py",
        )
        assert findings == []

    def test_layering_is_the_released_edge_table(self):
        """Every forbidden edge with its seams; a new boundary extends this list."""
        below_server = ["repro.core", "repro.executor", "repro.parallel", "repro.sinks"]
        below_fuzz = ["repro.core", "repro.executor", "repro.server", "repro.workload"]
        expected = [
            ("repro.executor", "repro.parallel", ("src/repro/executor/datagen.py",)),
            ("repro.core", "repro.parallel", ()),
            ("repro.plans", "repro.core", ()),
            *[(layer, "repro.server", ()) for layer in [*below_server, "repro.telemetry"]],
            *[(layer, "repro.fuzz", ()) for layer in below_fuzz],
            ("repro.server", "asyncio", ()),
        ]
        actual = [(e.from_package, e.to_package, e.allowed_files) for e in LAYERING]
        assert actual == expected

    @pytest.mark.parametrize(
        "source",
        [
            "from ..core.summary import RelationSummary\n",
            "from repro.core import errors\n",
            "if TYPE_CHECKING:\n    from ..core.summary import RelationSummary\n",
        ],
    )
    def test_plans_may_not_import_the_core(self, source):
        """Plan shape sits below the core: not even a typing-only import crosses."""
        findings = check("HYD402", source, rel_path="src/repro/plans/fixture.py")
        assert [f.code for f in findings] == ["HYD402"]
        assert check("HYD402", source, rel_path="src/repro/executor/fixture.py") == []

    @pytest.mark.parametrize(
        "source", ["import asyncio\n", "from asyncio import Queue\n", "import asyncio.events\n"]
    )
    def test_server_may_not_import_an_event_loop(self, source):
        """A stdlib target works as a layering row: the server stays blocking."""
        findings = check("HYD402", source, rel_path="src/repro/server/fixture.py")
        assert [f.code for f in findings] == ["HYD402"]
        assert check("HYD402", source, rel_path="src/repro/telemetry/fixture.py") == []


class TestHYD501BareExcept:
    def test_flags_bare_except(self):
        findings = check(
            "HYD501",
            """
            try:
                pass
            except:
                pass
            """,
        )
        assert [f.code for f in findings] == ["HYD501"]

    def test_typed_except_passes(self):
        findings = check(
            "HYD501",
            """
            try:
                pass
            except ValueError:
                pass
            """,
        )
        assert findings == []


class TestHYD502SilentBroadExcept:
    def test_flags_silent_except_exception(self):
        findings = check(
            "HYD502",
            """
            try:
                pass
            except Exception:
                pass
            """,
        )
        assert [f.code for f in findings] == ["HYD502"]

    def test_flags_broad_type_inside_tuple(self):
        findings = check(
            "HYD502",
            """
            try:
                pass
            except (ValueError, Exception):
                continue_marker = None
            except BaseException:
                ...
            """,
        )
        # Only the BaseException handler is silent; the tuple handler binds
        # a name, which counts as handling.
        assert [f.code for f in findings] == ["HYD502"]

    def test_handled_broad_and_silent_narrow_pass(self):
        findings = check(
            "HYD502",
            """
            import logging

            try:
                pass
            except Exception as exc:
                logging.error("failed: %s", exc)
            try:
                pass
            except ValueError:
                pass
            """,
        )
        assert findings == []


class TestSuppressionsEndToEnd:
    def test_justified_trailing_suppression_is_honoured(self, tmp_path):
        path = tmp_path / "fixture.py"
        path.write_text(
            "import random\n"
            "x = random.random()  # hydralint: disable=HYD101 -- fixture exercises it\n"
        )
        findings = lint_file(path, "fixture.py")
        assert findings == []

    def test_unjustified_suppression_reports_and_still_flags(self, tmp_path):
        path = tmp_path / "fixture.py"
        path.write_text(
            "import random\nx = random.random()  # hydralint: disable=HYD101\n"
        )
        findings = lint_file(path, "fixture.py")
        assert sorted(f.code for f in findings) == ["HYD001", "HYD101"]

    def test_standalone_justified_block_suppresses_next_statement(self, tmp_path):
        path = tmp_path / "fixture.py"
        path.write_text(
            "try:\n"
            "    pass\n"
            "# hydralint: disable=HYD502 -- fixture: failure detected elsewhere\n"
            "# by the parent's liveness polling.\n"
            "except Exception:\n"
            "    pass\n"
        )
        findings = lint_file(path, "fixture.py")
        assert findings == []


class TestRepositoryIsClean:
    """The meta-test: the repository must satisfy its own invariant checker."""

    def test_src_and_benchmarks_are_hydralint_clean(self):
        report = run_lint([REPO_ROOT / "src", REPO_ROOT / "benchmarks"], root=REPO_ROOT)
        assert report.findings == [], report.render_text()
        assert report.files_scanned > 80

    def test_pool_suppression_still_present_and_justified(self):
        """Regression: the one sanctioned HYD502 site keeps its justification."""
        source = (REPO_ROOT / "src/repro/parallel/pool.py").read_text()
        assert "hydralint: disable=HYD502 --" in source


class TestRegionsIsinfRegression:
    """Pin the behaviour of the HYD301 fix in regions._condition_is_empty."""

    def test_unbounded_discrete_interval_is_not_empty(self):
        import math

        from repro.core.regions import _condition_is_empty
        from repro.sql.predicates import Interval, IntervalSet

        unbounded = IntervalSet([Interval(-math.inf, math.inf)])
        half = IntervalSet([Interval(0.0, math.inf)])
        assert not _condition_is_empty(unbounded, discrete=True)
        assert not _condition_is_empty(half, discrete=True)

    def test_integer_free_discrete_interval_is_empty(self):
        from repro.core.regions import _condition_is_empty
        from repro.sql.predicates import Interval, IntervalSet

        # [0.2, 0.8) holds no integer: empty for a discrete column, not for
        # a continuous one.
        gap = IntervalSet([Interval(0.2, 0.8)])
        assert _condition_is_empty(gap, discrete=True)
        assert not _condition_is_empty(gap, discrete=False)
