"""Design-space autotuner tests: space, CI dominance, driver, retention.

Covers the search subsystem end to end -- the declarative space and its
constraints, the replacement component role it searches over, the CI-aware
dominance and rung-prune edge cases (overlapping intervals, zero-variance
cells, n=1 windows, tie-break determinism), a full tiny successive-halving
search with kill-style resume (zero repeated jobs), and the queue's
retention prune.
"""

from __future__ import annotations

import json

import pytest

from repro.config.cache_configs import scaled_capacity
from repro.dramcache.components import REPLACEMENT_POLICIES
from repro.dramcache.spec import ComponentSpec, DesignSpec
from repro.engine.kernels import select_kernel
from repro.queue import SweepService
from repro.search.driver import (
    PAPER_BASELINES,
    TuneConfig,
    TuneSearch,
    TuneState,
    deserialize_spec,
    load_search,
    serialize_spec,
)
from repro.search.frontier import (
    DesignPoint,
    ci_dominates,
    interval_from_record,
    pareto_frontier,
    prune_by_interval,
    sram_overhead_bytes,
)
from repro.search.space import SearchSpace, candidate_name, default_space
from repro.sim.registry import DESIGNS, DesignBuildContext
from repro.stats.confidence import (
    ConfidenceInterval,
    mean_confidence_interval,
)
from repro.utils.units import parse_size


@pytest.fixture
def queue_root(tmp_path, monkeypatch):
    """A private trace-store root per test: traces, checkpoints, queue.

    Searches register their ``tune-*`` candidates in the process-wide
    design registry; the test's registry is a copy, dropped afterwards.
    """
    monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
    monkeypatch.setattr(DESIGNS, "_entries", dict(DESIGNS._entries))
    return tmp_path


def build_context(capacity="1GB", scale=4096, num_cores=4):
    paper = parse_size(capacity)
    return DesignBuildContext(
        paper_capacity_bytes=paper,
        scaled_capacity_bytes=scaled_capacity(paper, scale),
        scale=scale,
        num_cores=num_cores,
    )


def tiny_tune_config(**overrides) -> TuneConfig:
    defaults = dict(
        num_candidates=6, rungs=2, scale=4096, num_accesses=6_000,
        window_accesses=500, warmup_accesses=500, checkpoint_accesses=2_000,
        min_windows=2, base_windows=2, base_relative_error=0.5,
    )
    defaults.update(overrides)
    return TuneConfig(**defaults)


# --------------------------------------------------------------------- #
# The search space
# --------------------------------------------------------------------- #
class TestSearchSpace:
    def test_default_space_size_and_determinism(self):
        space = default_space()
        combos = space.combos()
        assert len(combos) == 66
        assert len(combos) >= 36  # the acceptance floor
        assert combos == default_space().combos()

    def test_every_combo_satisfies_every_constraint(self):
        space = default_space()
        for combo in space.combos():
            for check in space.constraints:
                assert check(combo), (check.__name__, combo)

    def test_constraints_cut_the_raw_cross_product(self):
        space = default_space()
        raw = (len(space.tags) * len(space.hit_predictors)
               * len(space.fetches) * len(space.writebacks)
               * len(space.replacements))
        assert len(space.combos()) < raw

    def test_candidate_names_unique_and_stable(self):
        specs = default_space().candidates()
        names = [spec.name for spec in specs]
        assert len(set(names)) == len(names)
        assert names == [spec.name for spec in default_space().candidates()]
        assert all(name.startswith("tune-") for name in names)

    def test_every_candidate_validates_as_a_spec(self):
        for spec in default_space().candidates():
            assert "repl:" in spec.token()

    def test_config_round_trip(self):
        space = default_space()
        clone = SearchSpace.from_config(
            json.loads(json.dumps(space.to_config())))
        assert clone.combos() == space.combos()
        assert [c.__name__ for c in clone.constraints] == [
            c.__name__ for c in space.constraints]

    def test_empty_role_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            SearchSpace(tags=(), hit_predictors=(ComponentSpec("none"),),
                        fetches=(ComponentSpec("demand"),),
                        writebacks=(ComponentSpec("dirty"),),
                        replacements=(ComponentSpec("lru"),))

    def test_candidate_name_hashes_the_recipe(self):
        combo = {
            "tags": ComponentSpec("dram-page"),
            "hit_predictor": ComponentSpec("none"),
            "fetch": ComponentSpec("demand"),
            "writeback": ComponentSpec("dirty"),
            "replacement": ComponentSpec("lru"),
        }
        name = candidate_name(combo)
        changed = dict(combo, replacement=ComponentSpec("rrip"))
        assert candidate_name(changed) != name


# --------------------------------------------------------------------- #
# The replacement role the space searches over
# --------------------------------------------------------------------- #
class TestReplacementRole:
    @pytest.mark.parametrize("kind", ["random", "rrip"])
    def test_non_lru_replacement_builds_and_runs(self, kind):
        spec = DesignSpec(
            name=f"t-{kind}",
            tags=ComponentSpec("dram-page"),
            fetch=ComponentSpec("demand"),
            replacement=ComponentSpec(kind),
        )
        design = spec.build(build_context())
        from repro.workloads.generator import SyntheticWorkload
        from repro.workloads.profile import WorkloadProfile

        profile = WorkloadProfile(
            name="tune-tiny", working_set="2MB", num_code_regions=32,
            footprint_density=0.5, footprint_noise=0.05,
            singleton_fraction=0.1, temporal_reuse=0.2,
            region_zipf_alpha=0.6, pc_locality_run=3,
            write_fraction=0.25, l2_mpki=20.0,
        )
        for access in SyntheticWorkload(profile, num_cores=2,
                                        seed=3).generate(2000):
            design.access(access)
        assert design.cache_stats.hits + design.cache_stats.misses == 2000
        assert design.replacement.kind == kind

    def test_non_lru_design_takes_the_scalar_path(self):
        lru = DesignSpec(name="t-lru", tags=ComponentSpec("dram-page"),
                         fetch=ComponentSpec("demand"))
        rrip = DesignSpec(name="t-rrip2", tags=ComponentSpec("dram-page"),
                          fetch=ComponentSpec("demand"),
                          replacement=ComponentSpec("rrip"))
        context = build_context()
        assert select_kernel(lru.build(context)) is not None
        assert select_kernel(rrip.build(context)) is None

    def test_non_lru_design_takes_a_kernel(self):
        context = build_context()
        for tags, kind in (("dram-page", "lru"), ("dram-page", "random"),
                           ("sram-page", "random"), ("sram-page", "rrip")):
            spec = DesignSpec(name=f"t-{tags}-{kind}-kernel",
                              tags=ComponentSpec(tags),
                              fetch=ComponentSpec("demand"),
                              replacement=ComponentSpec(kind))
            assert select_kernel(spec.build(context)) is not None, kind

    def test_subclassed_replacement_takes_the_scalar_path(self):
        from repro.dramcache.components import RripReplacement
        from repro.engine import fallback_reason

        class TunedRrip(RripReplacement):
            MAX_RRPV = 7

        spec = DesignSpec(name="t-rrip2", tags=ComponentSpec("dram-page"),
                          fetch=ComponentSpec("demand"),
                          replacement=ComponentSpec("rrip"))
        design = spec.build(build_context())
        design.replacement = TunedRrip()
        design.tags.apply_replacement(design.replacement)
        assert select_kernel(design) is None
        assert fallback_reason(design) == "TunedRrip"

    def test_parameterless_replacement_rejects_stray_params(self):
        context = build_context()
        for kind in ("lru", "rrip"):
            factory = REPLACEMENT_POLICIES.resolve(kind)
            with pytest.raises(ValueError, match="takes no parameters"):
                factory(context, None, bogus=1)

    def test_random_replacement_accepts_seed_only(self):
        factory = REPLACEMENT_POLICIES.resolve("random")
        component = factory(build_context(), None, seed=5)
        assert component.seed == 5
        with pytest.raises(TypeError):
            factory(build_context(), None, bogus=1)

    def test_replacement_without_victim_choice_rejected(self):
        spec = DesignSpec(name="t-bad", tags=ComponentSpec("direct-mapped"),
                          replacement=ComponentSpec("rrip"))
        with pytest.raises(ValueError, match="no per-set replacement"):
            spec.build(build_context())


# --------------------------------------------------------------------- #
# CI-aware dominance edge cases
# --------------------------------------------------------------------- #
def point(name, miss, miss_hw=0.0, speedup=1.0, speedup_hw=0.0, sram=0,
          reference=False) -> DesignPoint:
    return DesignPoint(
        name=name,
        miss_ratio=ConfidenceInterval(mean=miss, half_width=miss_hw),
        speedup=ConfidenceInterval(mean=speedup, half_width=speedup_hw),
        sram_overhead_bytes=sram,
        reference=reference,
    )


class TestCiDominance:
    def test_clear_dominance(self):
        better = point("a", miss=0.1, speedup=2.0, sram=0)
        worse = point("b", miss=0.5, speedup=1.1, sram=1024)
        assert ci_dominates(better, worse)
        assert not ci_dominates(worse, better)

    def test_overlapping_intervals_block_dominance(self):
        # Means differ but the CIs overlap on miss ratio: no verdict.
        a = point("a", miss=0.10, miss_hw=0.08, speedup=2.0)
        b = point("b", miss=0.20, miss_hw=0.08, speedup=1.0)
        assert not ci_dominates(a, b)
        assert not ci_dominates(b, a)

    def test_zero_variance_cells_compare_exactly(self):
        # Zero half-widths (deterministic cells) degenerate to means.
        a = point("a", miss=0.100, speedup=1.5)
        b = point("b", miss=0.101, speedup=1.5)
        assert ci_dominates(a, b)
        assert not ci_dominates(b, a)

    def test_equal_points_do_not_dominate_each_other(self):
        a = point("a", miss=0.1, speedup=1.5, sram=64)
        b = point("b", miss=0.1, speedup=1.5, sram=64)
        assert not ci_dominates(a, b)
        assert not ci_dominates(b, a)

    def test_single_window_interval_is_zero_width(self):
        # n=1 windows: mean_confidence_interval yields half_width 0, so a
        # lone-window measurement behaves as exact -- and never blocks on
        # its own (vacuous) uncertainty.
        interval = mean_confidence_interval([0.25])
        assert interval.half_width == 0.0
        a = point("a", miss=interval.mean, miss_hw=interval.half_width,
                  speedup=2.0)
        b = point("b", miss=0.5, speedup=1.0)
        assert ci_dominates(a, b)

    def test_interval_from_record_defaults_to_exact(self):
        record = {"miss_ratio": 0.25, "speedup_vs_no_cache": 1.5,
                  "extra": {}}
        assert interval_from_record(record, "miss_ratio").half_width == 0.0
        assert interval_from_record(record, "speedup").mean == 1.5
        with pytest.raises(ValueError, match="unknown sampled metric"):
            interval_from_record(record, "ipc")

    def test_pareto_frontier_excludes_references_and_is_deterministic(self):
        ideal = point("ideal", miss=0.0, speedup=3.0, reference=True)
        good = point("good", miss=0.1, speedup=2.0, sram=100)
        cheap = point("cheap", miss=0.3, speedup=1.5, sram=0)
        bad = point("bad", miss=0.5, speedup=1.0, sram=100)
        frontier = pareto_frontier([bad, ideal, cheap, good])
        names = [p.name for p in frontier]
        assert names == ["good", "cheap"]  # miss-mean order, no references
        assert pareto_frontier([good, cheap, bad, ideal]) == frontier

    def test_pareto_tie_break_is_name_ordered(self):
        twin_a = point("twin-a", miss=0.2, speedup=1.5)
        twin_b = point("twin-b", miss=0.2, speedup=1.5)
        names = [p.name for p in pareto_frontier([twin_b, twin_a])]
        assert names == ["twin-a", "twin-b"]


class TestPruneByInterval:
    def entries(self, cells):
        return [(name, ConfidenceInterval(mean=mean, half_width=hw))
                for name, mean, hw in cells]

    def test_clear_separation_prunes(self):
        survivors, pruned = prune_by_interval(self.entries([
            ("a", 0.1, 0.01), ("b", 0.2, 0.01), ("c", 0.9, 0.01),
        ]), keep=2)
        assert survivors == ["a", "b"]
        assert pruned == ["c"]

    def test_overlap_with_cutoff_survives(self):
        # c's lower bound dips under b's upper bound: noise could still
        # promote it, so it is carried to the next rung.
        survivors, pruned = prune_by_interval(self.entries([
            ("a", 0.1, 0.01), ("b", 0.2, 0.05), ("c", 0.28, 0.05),
        ]), keep=2)
        assert "c" in survivors
        assert pruned == []

    def test_zero_variance_ties_break_on_name(self):
        survivors, _ = prune_by_interval(self.entries([
            ("z", 0.2, 0.0), ("a", 0.2, 0.0), ("m", 0.2, 0.0),
        ]), keep=1)
        # Equal means: ranking is name-ordered, and equal zero-width
        # intervals all sit exactly at the cutoff (lower == cutoff), so
        # none can be pruned on noise-free equality.
        assert survivors == ["a", "m", "z"]

    def test_keep_at_least_everything_when_small(self):
        survivors, pruned = prune_by_interval(
            self.entries([("a", 0.1, 0.0)]), keep=3)
        assert survivors == ["a"] and pruned == []

    def test_keep_must_be_positive(self):
        with pytest.raises(ValueError, match="at least one design"):
            prune_by_interval([], keep=0)

    def test_determinism_under_input_order(self):
        cells = [("d", 0.4, 0.02), ("b", 0.1, 0.02), ("c", 0.3, 0.02),
                 ("a", 0.1, 0.02)]
        forward = prune_by_interval(self.entries(cells), keep=2)
        backward = prune_by_interval(self.entries(cells[::-1]), keep=2)
        assert forward == backward


# --------------------------------------------------------------------- #
# The SRAM overhead cost model
# --------------------------------------------------------------------- #
class TestSramOverhead:
    def spec(self, **kwargs) -> DesignSpec:
        defaults = dict(name="t", tags=ComponentSpec("dram-page"))
        defaults.update(kwargs)
        return DesignSpec(**defaults)

    def test_in_dram_tags_cost_nothing(self):
        assert sram_overhead_bytes(self.spec(), parse_size("1GB")) == 0

    def test_sram_structures_cost(self):
        cap = parse_size("1GB")
        assert sram_overhead_bytes(
            self.spec(tags=ComponentSpec("sram-page")), cap) > 0
        assert sram_overhead_bytes(
            self.spec(tags=ComponentSpec("missmap")), cap) > 0
        assert sram_overhead_bytes(
            self.spec(hit_predictor=ComponentSpec("way")), cap) > 0
        assert sram_overhead_bytes(
            self.spec(hit_predictor=ComponentSpec("map-i")), cap) > 0
        assert sram_overhead_bytes(
            self.spec(fetch=ComponentSpec("footprint")), cap) > 0

    def test_deterministic(self):
        spec = self.spec(tags=ComponentSpec("sram-page"),
                         fetch=ComponentSpec("footprint"))
        cap = parse_size("1GB")
        assert (sram_overhead_bytes(spec, cap)
                == sram_overhead_bytes(spec, cap))


# --------------------------------------------------------------------- #
# Driver: state round-trip and the tiny end-to-end search
# --------------------------------------------------------------------- #
class TestDriverState:
    def test_spec_serialization_round_trip(self):
        spec = default_space().candidates()[0]
        clone = deserialize_spec(
            json.loads(json.dumps(serialize_spec(spec))))
        assert clone == spec
        assert clone.token() == spec.token()

    def test_tune_config_validation(self):
        with pytest.raises(ValueError, match="at least one rung"):
            TuneConfig(rungs=0)
        with pytest.raises(ValueError, match="eta"):
            TuneConfig(eta=1)
        with pytest.raises(ValueError, match="base_windows"):
            TuneConfig(min_windows=5, base_windows=2)

    def test_candidate_draw_is_seeded_and_deterministic(self, queue_root):
        search_a = TuneSearch(tiny_tune_config())
        search_b = TuneSearch(tiny_tune_config())
        assert ([s.name for s in search_a.select_candidates()]
                == [s.name for s in search_b.select_candidates()])
        other = TuneSearch(tiny_tune_config(seed=99))
        assert ([s.name for s in other.select_candidates()]
                != [s.name for s in search_a.select_candidates()])

    def test_plan_persists_and_reloads(self, queue_root):
        search = TuneSearch(tiny_tune_config())
        state = search.plan()
        again = search.plan()
        assert again.token == state.token
        assert again.candidates == state.candidates
        loaded = TuneState.load(search.state_path(state.token))
        assert loaded.config == search.config


class TestTuneSearchEndToEnd:
    def test_search_completes_resumes_and_verifies(self, queue_root):
        search = TuneSearch(tiny_tune_config())
        state = search.run(workers=1)

        # Completed in rungs, shrinking (or at worst holding) per rung.
        assert state.status == "complete"
        assert len(state.rungs) == search.config.rungs
        for record in state.rungs:
            assert record["status"] == "done"
            assert set(record["survivors"]) <= set(record["designs"])
        assert state.winners

        # The frontier artifact is well-formed JSON with both kinds.
        artifact = state.frontier
        json.loads(json.dumps(artifact))  # JSON-serializable throughout
        names = {d["name"] for d in artifact["designs"]}
        assert set(PAPER_BASELINES) <= names
        kinds = {d["kind"] for d in artifact["designs"]}
        assert kinds == {"candidate", "baseline"}
        for design in artifact["designs"]:
            assert set(design["components"]) == {
                "tags", "hit_predictor", "fetch", "writeback", "replacement"}
        # References anchor the axes but never join the frontier.
        for design in artifact["designs"]:
            if design["reference"]:
                assert not design["on_frontier"]
        assert set(artifact["winners"]) <= set(artifact["frontier"])

        # At least one discovered hybrid CI-dominates a paper baseline.
        dominated = set()
        for design in artifact["designs"]:
            if design["kind"] == "candidate":
                dominated.update(design["dominates_baselines"])
        assert dominated & set(PAPER_BASELINES)

        # The winner re-runs bit-identically from its registered name.
        report = search.verify_winner(state)
        assert report["identical"]

        # Kill-style resume: wipe the in-memory bookkeeping back to
        # "planned" (as if the driver died before recording any rung) and
        # re-run -- every sweep resubmits idempotently and, being fully
        # archived, executes zero jobs; no job row gains an attempt.
        service = search.service
        with service.store() as store:
            attempts_before = {
                (row["token"], job.seq): job.attempts
                for row in store.sweeps()
                for job in store.jobs(row["token"])
            }
        state.rungs = []
        state.status = "planned"
        state.winners = []
        state.save(search.state_path(state.token))

        resumed_search, resumed_state = load_search(state.token)
        resumed_state = resumed_search.run(resumed_state, workers=1)
        assert resumed_state.status == "complete"
        assert resumed_state.winners == state.winners or state.winners == []
        with service.store() as store:
            attempts_after = {
                (row["token"], job.seq): job.attempts
                for row in store.sweeps()
                for job in store.jobs(row["token"])
            }
        assert attempts_after == attempts_before  # zero repeated jobs

    def test_run_emits_tune_telemetry(self, queue_root, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        search = TuneSearch(tiny_tune_config(num_candidates=2, rungs=1,
                                             include_baselines=False))
        state = search.run(workers=1)
        assert state.status == "complete"
        from repro.obs.core import ledger_path
        from repro.obs.ledger import RunLedger

        with RunLedger(ledger_path(), readonly=True) as ledger:
            events = [row for row in ledger.events_for(sweep=state.token)
                      if row["kind"] == "tune.rung"]
        assert len(events) == 1


# --------------------------------------------------------------------- #
# Queue retention prune
# --------------------------------------------------------------------- #
class TestPruneRetention:
    def run_sweep_through_service(self, designs=("unison",)):
        from repro.sim.experiment import ExperimentConfig
        from repro.sim.spec import SweepSpec

        spec = SweepSpec(designs=designs, workloads=("Web Search",),
                         capacities=("512MB",),
                         config=ExperimentConfig(scale=4096,
                                                 num_accesses=2000))
        service = SweepService()
        service.run(spec, workers=1)
        return service, spec

    def test_unarchived_sweeps_are_never_pruned(self, queue_root):
        service, spec = self.run_sweep_through_service()
        from repro.queue.service import plan_sweep

        token = plan_sweep(spec).token
        # Forge an incomplete archive by registering a second, unfinished
        # sweep directly in the job store.
        with service.store() as store:
            store.submit("deadbeef", "unfinished", None, [], max_attempts=3)
        summary = service.prune_retention(keep_days=0.0)
        assert token in summary["pruned"]
        assert summary["skipped_unarchived"] == 1
        with service.store() as store:
            assert store.sweep_row(token) is None
            assert store.sweep_row("deadbeef") is not None
        with service.archive() as archive:
            assert archive.get(token) is not None  # archive untouched

    def test_keep_days_protects_young_sweeps(self, queue_root):
        service, spec = self.run_sweep_through_service()
        summary = service.prune_retention(keep_days=7.0)
        assert summary["pruned"] == []
        assert summary["kept_young"] == 1

    def test_keep_archived_protects_most_recent(self, queue_root):
        service, _ = self.run_sweep_through_service()
        service2, _ = self.run_sweep_through_service(designs=("alloy",))
        summary = service2.prune_retention(keep_days=0.0, keep_archived=1)
        assert len(summary["pruned"]) == 1
        assert summary["kept_recent"] == 1

    def test_negative_knobs_rejected(self, queue_root):
        service = SweepService()
        with pytest.raises(ValueError, match="keep_days"):
            service.prune_retention(keep_days=-1)
        with pytest.raises(ValueError, match="keep_archived"):
            service.prune_retention(keep_archived=-1)


# --------------------------------------------------------------------- #
# The designs listing surfaces (CLI + serve)
# --------------------------------------------------------------------- #
class TestDesignSurfaces:
    def test_designs_cli_components_lists_replacement(self, capsys):
        from repro.cli import designs_main

        assert designs_main(["--components"]) == 0
        out = capsys.readouterr().out
        assert "replacement policy:" in out
        assert "rrip" in out
        assert "repl=" in out  # per-design breakdown includes the role

    def test_api_designs_route(self, queue_root):
        from repro.serve.api import handle_request
        from repro.serve.readmodel import ReadModel

        response = handle_request(ReadModel(), "/api/designs", {})
        assert response.status == 200
        data = json.loads(response.body)
        by_name = {d["name"]: d for d in data["designs"]}
        assert "unison" in by_name
        for design in data["designs"]:
            assert "model" not in design
            assert design["components"] is not None, design["name"]
            assert "replacement" in design["components"]
        assert (by_name["unison"]["components"]["replacement"]["kind"]
                == "lru")
