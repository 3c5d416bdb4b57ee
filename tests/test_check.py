"""The `repro check` gate: linter rules, combiner contracts, race detector.

Three layers, each with a failing fixture:

* **Linter** — one nondeterministic/racy program per rule REP101–REP106
  is flagged at the right line, `# repro: noqa[RULE]` suppresses (and is
  counted), and the control-flow cases that used to false-positive
  (mutate-then-return branches, single-statement read+store) stay
  clean.  The whole in-tree `src/` must lint clean — that is the CI
  gate's contract.
* **Contracts** — a broken non-commutative combiner is caught with a
  counterexample; the in-tree combiners pass with the documented
  informational notes (sum: non-idempotent, float-ulp-close).
* **Race detector** — a seeded sharded run in check mode stays
  bit-identical to the dense engine at 1/2/4 workers with zero races; a
  program whose ``arc_payload`` writes worker-dependent values to
  shared state raises :class:`ShardedWriteRaceError` at 2 workers, and
  non-conflicting writes warn.  Packed wire frames are structurally
  validated (:class:`WireFormatError`).
"""

import json
import struct
import textwrap
import warnings

import numpy as np
import pytest

from repro.bsp._wire import PackedWire, WireFormatError
from repro.bsp.dense import DenseBSPEngine
from repro.bsp.parallel import ShardedBSPEngine, ShardedWriteRaceError
from repro.bsp_algorithms.connected_components import DenseConnectedComponents
from repro.check import (
    RULES,
    audit_instance,
    audit_paths,
    lint_paths,
    lint_source,
)
from repro.check.cli import REPORT_FORMAT_VERSION
from repro.check.cli import main as check_main
from repro.graph import rmat

WORKER_COUNTS = (1, 2, 4)

#: Common header for linter fixtures (bases resolve by name tail).
HEADER = """\
import os
import random
import time
import numpy as np
from repro.bsp.dense import DenseVertexProgram
from repro.bsp.vertex import VertexProgram
"""


def lint(body):
    return lint_source(HEADER + textwrap.dedent(body), path="fixture.py")


def rule_ids(result):
    return [d.rule for d in result.diagnostics]


# -- linter rules -----------------------------------------------------------


class TestLinterRules:
    def test_rep101_unseeded_random(self):
        result = lint("""
            class P(VertexProgram):
                def compute(self, ctx, messages):
                    ctx.value = random.random()
        """)
        assert rule_ids(result) == ["REP101"]
        assert result.diagnostics[0].severity == "error"

    def test_rep101_numpy_global_rng(self):
        result = lint("""
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    ctx.values[:] = np.random.rand(ctx.values.size)
        """)
        assert rule_ids(result) == ["REP101"]

    def test_rep101_unseeded_default_rng_vs_seeded(self):
        flagged = lint("""
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    rng = np.random.default_rng()
        """)
        assert rule_ids(flagged) == ["REP101"]
        clean = lint("""
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    rng = np.random.default_rng(ctx.superstep)
        """)
        assert rule_ids(clean) == []

    def test_rep102_wall_clock(self):
        result = lint("""
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    ctx.values[0] = time.time()
        """)
        assert rule_ids(result) == ["REP102"]

    def test_rep103_global_declaration(self):
        result = lint("""
            STEP = 0
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    global STEP
                    STEP += 1
        """)
        assert "REP103" in rule_ids(result)

    def test_rep103_class_state_store(self):
        result = lint("""
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    type(self).last_superstep = ctx.superstep
        """)
        assert rule_ids(result) == ["REP103"]

    def test_rep103_arc_payload_writes_shared_values(self):
        result = lint("""
            class P(DenseVertexProgram):
                def arc_payload(self, graph, values, selection):
                    values[0] = 1.0
                    return values[selection]
        """)
        assert rule_ids(result) == ["REP103"]

    def test_rep103_arc_payload_self_mutation(self):
        result = lint("""
            class P(DenseVertexProgram):
                def arc_payload(self, graph, values, selection):
                    self.calls += 1
                    return values[selection]
        """)
        assert rule_ids(result) == ["REP103"]

    def test_rep104_read_after_mutation(self):
        result = lint("""
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    ctx.values[:] = 0.0
                    total = ctx.messages.sum()
        """)
        assert rule_ids(result) == ["REP104"]

    def test_rep104_alias_tracking(self):
        result = lint("""
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    labels = ctx.values
                    labels[0] = 1.0
                    total = ctx.messages.sum()
        """)
        assert rule_ids(result) == ["REP104"]

    def test_rep104_mutating_branch_that_returns_is_clean(self):
        # The connected_components.py:90 shape: mutation inside a branch
        # that returns cannot precede the fall-through read.
        result = lint("""
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    if ctx.superstep == 0:
                        ctx.values[:] = 0.0
                        return None
                    best = ctx.messages
                    ctx.values[:] = best
        """)
        assert rule_ids(result) == []

    def test_rep104_single_statement_read_and_store_is_clean(self):
        # The pagerank.py shape: the RHS (reading ctx.messages)
        # evaluates before the store to ctx.values.
        result = lint("""
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    ctx.values[:] = 0.15 + 0.85 * ctx.messages
        """)
        assert rule_ids(result) == []

    def test_rep104_mutating_branch_that_falls_through_is_flagged(self):
        result = lint("""
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    if ctx.superstep == 0:
                        ctx.values[:] = 0.0
                    total = ctx.messages.sum()
        """)
        assert rule_ids(result) == ["REP104"]

    def test_rep105_set_iteration(self):
        result = lint("""
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    for v in {1, 2, 3}:
                        ctx.values[v] = 0.0
        """)
        assert rule_ids(result) == ["REP105"]
        assert result.diagnostics[0].severity == "warning"
        assert result.error_count == 0

    def test_rep106_order_sensitive_accumulation(self):
        result = lint("""
            class P(DenseVertexProgram):
                def arc_payload(self, graph, values, selection):
                    return np.cumsum(values[selection])
        """)
        assert rule_ids(result) == ["REP106"]

    def test_rep106_selection_misuse(self):
        # Treating the opaque selection as an index array breaks under
        # the dense (boolean-mask) representation.
        result = lint("""
            class P(DenseVertexProgram):
                def arc_payload(self, graph, values, selection):
                    return values[selection + 0]
        """)
        assert rule_ids(result) == ["REP106"]

    def test_rep106_fancy_index_and_count_are_clean(self):
        result = lint("""
            from repro.bsp.frontier import selected_arc_count
            class P(DenseVertexProgram):
                def arc_payload(self, graph, values, selection):
                    n = selected_arc_count(selection)
                    return values[graph.arc_sources()[selection]]
        """)
        assert rule_ids(result) == []

    def test_non_program_classes_are_not_linted(self):
        result = lint("""
            class Helper:
                def compute(self, ctx):
                    return random.random()
        """)
        assert rule_ids(result) == []
        assert result.programs_checked == 0

    def test_transitive_subclass_is_linted(self):
        result = lint("""
            class Base(DenseVertexProgram):
                pass
            class Child(Base):
                def compute(self, ctx):
                    ctx.values[0] = time.time()
        """)
        assert rule_ids(result) == ["REP102"]

    def test_syntax_error_counts_as_error(self):
        result = lint_source("def broken(:\n", path="broken.py")
        assert result.errors
        assert result.error_count == 1


class TestSuppression:
    def test_noqa_specific_rule(self):
        result = lint("""
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    ctx.values[0] = time.time()  # repro: noqa[REP102]
        """)
        assert rule_ids(result) == []
        assert result.suppressed == 1

    def test_noqa_bare_suppresses_all(self):
        result = lint("""
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    ctx.values[0] = time.time() + random.random()  # repro: noqa
        """)
        assert rule_ids(result) == []
        assert result.suppressed == 2

    def test_noqa_other_rule_does_not_suppress(self):
        result = lint("""
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    ctx.values[0] = time.time()  # repro: noqa[REP101]
        """)
        assert rule_ids(result) == ["REP102"]
        assert result.suppressed == 0


class TestInTreeClean:
    def test_src_lints_clean(self):
        result = lint_paths(["src"])
        assert result.error_count == 0, [
            d.format() for d in result.diagnostics
        ]
        assert result.programs_checked > 0

    def test_rule_catalog_is_wired(self):
        assert set(RULES) == {
            "REP101", "REP102", "REP103", "REP104", "REP105", "REP106",
        }


# -- combiner contracts -----------------------------------------------------


class TestCombinerContracts:
    def test_broken_non_commutative_combiner_caught(self, tmp_path):
        bad = tmp_path / "bad_combiner.py"
        bad.write_text(textwrap.dedent("""\
            from repro.bsp.combiners import Combiner

            class SubtractCombiner(Combiner):
                def combine(self, a, b):
                    return a - b
        """))
        contracts = audit_paths([tmp_path])
        assert [c.name for c in contracts] == ["SubtractCombiner"]
        contract = contracts[0]
        assert not contract.ok
        assert not contract.commutative
        assert "commutativity" in contract.counterexamples

    def test_non_associative_combiner_caught(self):
        contract = audit_instance(lambda a, b: a + b + 1 if a < b else a + b)
        assert not contract.ok

    def test_in_tree_combiners_pass(self):
        contracts = audit_paths(["src/repro/bsp/combiners.py"])
        by_name = {c.name: c for c in contracts}
        assert set(by_name) == {"MinCombiner", "MaxCombiner", "SumCombiner"}
        assert all(c.ok for c in contracts)
        # Informational verdicts the report surfaces:
        assert by_name["MinCombiner"].idempotent
        assert by_name["MinCombiner"].float_exact
        assert not by_name["SumCombiner"].idempotent
        assert not by_name["SumCombiner"].float_exact

    def test_abstract_base_is_skipped_not_failed(self):
        contracts = audit_paths(["src/repro/bsp/combiners.py"])
        assert all(c.name != "Combiner" or c.skipped for c in contracts)


# -- CLI --------------------------------------------------------------------


class TestCLI:
    def test_clean_path_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text(HEADER + textwrap.dedent("""\
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    ctx.values[:] = ctx.messages
        """))
        assert check_main([str(clean)]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_findings_exit_one(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(HEADER + textwrap.dedent("""\
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    ctx.values[0] = time.time()
        """))
        assert check_main([str(dirty)]) == 1
        assert "REP102" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert check_main([str(tmp_path / "nope")]) == 2

    def test_failed_contract_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(textwrap.dedent("""\
            from repro.bsp.combiners import Combiner

            class SubtractCombiner(Combiner):
                def combine(self, a, b):
                    return a - b
        """))
        assert check_main([str(bad), "--contracts"]) == 1
        assert "CONTRACT [error]" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert check_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULES:
            assert rule_id in out

    def test_json_format_schema(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text(HEADER + textwrap.dedent("""\
            class P(DenseVertexProgram):
                def compute(self, ctx):
                    ctx.values[0] = time.time()  # repro: noqa[REP102]
                    ctx.values[1] = time.perf_counter()
        """))
        assert check_main([str(dirty), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["format_version"] == REPORT_FORMAT_VERSION
        assert payload["tool"] == "repro check"
        assert payload["ok"] is False
        [diag] = payload["diagnostics"]
        assert diag["rule"] == "REP102"
        assert diag["severity"] == "error"
        assert diag["path"].endswith("dirty.py")
        assert payload["summary"]["errors"] == 1
        assert payload["summary"]["suppressed"] == 1
        assert payload["contracts"] is None

    def test_json_clean_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert check_main([str(clean), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_repro_cli_routes_check(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert repro_main(["check", str(clean)]) == 0


# -- wire-frame validation --------------------------------------------------


class _Loopback:
    """Minimal Connection stand-in: send_bytes/recv_bytes over a list."""

    def __init__(self):
        self.frames = []

    def send_bytes(self, frame):
        self.frames.append(bytes(frame))

    def recv_bytes(self):
        return self.frames.pop(0)


class TestWireValidation:
    def decode(self, buf):
        conn = _Loopback()
        conn.frames.append(buf)
        return PackedWire().recv(conn)

    def test_roundtrip_still_works(self):
        wire = PackedWire()
        conn = _Loopback()
        senders = np.array([3, 5, 8], dtype=np.int64)
        wire.send(conn, ("scatter", 7, senders, "sparse"))
        msg, _ = wire.recv(conn)
        assert msg[0] == "scatter" and msg[1] == 7
        np.testing.assert_array_equal(msg[2], senders)

    def test_empty_frame(self):
        with pytest.raises(WireFormatError, match="empty"):
            self.decode(b"")

    def test_unknown_command_code(self):
        with pytest.raises(WireFormatError, match="unknown wire code"):
            self.decode(bytes([0x55]))

    def test_truncated_scatter_header(self):
        with pytest.raises(WireFormatError, match="truncated scatter"):
            self.decode(bytes([0x02]) + b"\x00\x00")

    def test_scatter_length_mismatch(self):
        # Declares 4 senders, carries 1.
        frame = (
            bytes([0x02])
            + struct.pack("<qBq", 1, 0, 4)
            + np.array([9], dtype=np.int64).tobytes()
        )
        with pytest.raises(WireFormatError, match="declares 4 sender"):
            self.decode(frame)

    def test_scatter_bad_mode_code(self):
        frame = bytes([0x02]) + struct.pack("<qBq", 1, 9, 0)
        with pytest.raises(WireFormatError, match="frontier-mode"):
            self.decode(frame)

    def test_ok_reply_length_mismatch(self):
        frame = bytes([0x00, 3]) + struct.pack("<q", 1)
        with pytest.raises(WireFormatError, match="declares 3 int"):
            self.decode(frame)

    def test_close_with_trailing_bytes(self):
        with pytest.raises(WireFormatError, match="trailing"):
            self.decode(bytes([0x04, 0xFF]))

    def test_run_frame_bad_pickle(self):
        with pytest.raises(WireFormatError, match="unpickle"):
            self.decode(bytes([0x01]) + b"not-a-pickle")


# -- sharded write-race detector --------------------------------------------


class _ConflictingCC(DenseConnectedComponents):
    """arc_payload writes a worker-dependent value to shared state."""

    def arc_payload(self, graph, values, selection):
        payload = super().arc_payload(graph, values, selection)
        values[0] = float(np.asarray(selection).sum())
        return payload


class _BenignWriteCC(DenseConnectedComponents):
    """arc_payload writes, but every worker writes the same value."""

    def arc_payload(self, graph, values, selection):
        payload = super().arc_payload(graph, values, selection)
        values[0] = -1.0
        return payload


@pytest.fixture(scope="module")
def medium_graph():
    return rmat(scale=8, edge_factor=8, seed=7)


class TestWriteRaceDetector:
    def test_check_mode_bit_identical_with_zero_races(self, medium_graph):
        ref = DenseBSPEngine(medium_graph).run(DenseConnectedComponents())
        for workers in WORKER_COUNTS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # any race warning fails
                with ShardedBSPEngine(
                    medium_graph, num_workers=workers, check=True
                ) as engine:
                    res = engine.run(DenseConnectedComponents())
            np.testing.assert_array_equal(res.values, ref.values)
            assert res.messages_per_superstep == ref.messages_per_superstep
            assert res.num_supersteps == ref.num_supersteps

    def test_conflicting_writes_raise_at_two_workers(self, medium_graph):
        with ShardedBSPEngine(
            medium_graph, num_workers=2, check=True
        ) as engine:
            with pytest.raises(
                ShardedWriteRaceError, match="differing values"
            ) as excinfo:
                engine.run(_ConflictingCC())
        exc = excinfo.value
        assert exc.superstep >= 0
        (vertex, by_worker), *_ = exc.conflicts
        assert vertex == 0
        assert len(by_worker) == 2
        assert len(set(by_worker.values())) > 1

    def test_benign_writes_warn(self, medium_graph):
        with ShardedBSPEngine(
            medium_graph, num_workers=2, check=True
        ) as engine:
            with pytest.warns(RuntimeWarning, match="must be read-only"):
                engine.run(_BenignWriteCC())

    def test_check_mode_matches_reference_engine(self, medium_graph):
        from repro.bsp import BSPEngine
        from repro.bsp_algorithms import BSPConnectedComponents
        from tests.test_dense_engine import assert_results_equal

        ref = BSPEngine(medium_graph).run(BSPConnectedComponents())
        for workers in WORKER_COUNTS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # zero races reported
                with ShardedBSPEngine(
                    medium_graph, num_workers=workers, check=True
                ) as engine:
                    assert engine.check is True
                    res = engine.run(DenseConnectedComponents())
            assert_results_equal(ref, res)

    def test_check_off_by_default(self, medium_graph):
        with ShardedBSPEngine(medium_graph, num_workers=1) as engine:
            assert engine.check is False

    def test_racy_program_untouched_without_check(self, medium_graph):
        # Sanity: the detector, not the engine, is what catches it.
        with ShardedBSPEngine(
            medium_graph, num_workers=2, check=False
        ) as engine:
            engine.run(_BenignWriteCC())  # no raise, no warning
