"""Tests for the synthetic census-like dataset registry."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.baselines.exact import exact_entropies, exact_mutual_informations
from repro.data.filters import PAPER_MAX_SUPPORT
from repro.exceptions import ParameterError
from repro.synth.datasets import (
    DATASETS,
    build_plan,
    dataset_summary,
    generate,
    load_dataset,
)


class TestRegistry:
    def test_four_paper_datasets(self):
        assert set(DATASETS) == {"cdc", "hus", "pus", "enem"}

    def test_column_counts_match_paper(self):
        assert DATASETS["cdc"].num_columns == 100
        assert DATASETS["hus"].num_columns == 107
        assert DATASETS["pus"].num_columns == 179
        assert DATASETS["enem"].num_columns == 117

    def test_paper_shapes_recorded(self):
        assert DATASETS["pus"].paper_rows == 31_290_943
        assert DATASETS["enem"].paper_columns == 117

    def test_supports_respect_paper_cutoff(self):
        for plan in DATASETS.values():
            for column in plan.columns:
                assert column.support_size <= PAPER_MAX_SUPPORT

    def test_mi_targets_are_group_bases(self):
        plan = DATASETS["cdc"]
        assert len(plan.mi_targets) == 2
        assert all(t.startswith("mi_base_") for t in plan.mi_targets)

    def test_pus_has_three_mi_groups(self):
        assert len(DATASETS["pus"].mi_targets) == 3

    def test_column_names_unique(self):
        for plan in DATASETS.values():
            names = [c.name for c in plan.columns]
            assert len(names) == len(set(names))


class TestLazyRegistry:
    """Plans are built on first lookup, never at import."""

    EAGER = {
        "cdc": ("cdc", "cdc-behavioral-risk (synthetic analogue)", 300_000, 100,
                3_753_802, 100, 1101, 2),
        "hus": ("hus", "census-american-housing (synthetic analogue)", 400_000,
                107, 14_768_919, 107, 1102, 2),
        "pus": ("pus", "census-american-population (synthetic analogue)",
                500_000, 179, 31_290_943, 179, 1103, 3),
        "enem": ("enem", "enem (synthetic analogue)", 500_000, 117,
                 33_714_152, 117, 1104, 2),
    }

    @pytest.mark.parametrize("key", sorted(EAGER))
    def test_plan_equals_the_eager_build(self, key):
        *args, seed, mi_groups = self.EAGER[key]
        assert DATASETS[key] == build_plan(*args, seed=seed, mi_groups=mi_groups)
        assert DATASETS[key] is DATASETS[key]  # built once

    def test_registry_is_read_only(self):
        with pytest.raises(TypeError):
            DATASETS["extra"] = DATASETS["cdc"]  # type: ignore[index]
        assert "extra" not in DATASETS
        with pytest.raises(KeyError):
            DATASETS["extra"]

    def test_import_and_key_listing_build_no_plan(self, tmp_path):
        # Bytecode goes to a scratch prefix, and the first run fills it,
        # so the measured run times the module body, not its compilation.
        env = dict(os.environ, PYTHONPYCACHEPREFIX=str(tmp_path))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        code = (
            "import repro\n"
            "from repro.synth.datasets import DATASETS\n"
            "sorted(DATASETS); 'cdc' in DATASETS; len(DATASETS)\n"
            "assert not DATASETS._plans, DATASETS._plans\n"
        )
        command = [sys.executable, "-X", "importtime", "-c", code]
        subprocess.run(command, env=env, check=True, capture_output=True)
        stderr = subprocess.run(
            command, env=env, check=True, capture_output=True, text=True
        ).stderr
        (line,) = [
            line for line in stderr.splitlines()
            if line.split("|")[-1].strip() == "repro.synth.datasets"
        ]
        self_us = int(line.split("|")[0].split(":")[1])
        assert self_us < 10_000


class TestBuildPlan:
    def test_too_few_columns_rejected(self):
        with pytest.raises(ParameterError, match="cannot hold"):
            build_plan("tiny", "t", 1000, 10, 0, 0, seed=1, mi_groups=2)

    def test_filler_fills_exact_budget(self):
        plan = build_plan("x", "t", 1000, 150, 0, 0, seed=2, mi_groups=2)
        assert plan.num_columns == 150


class TestGeneration:
    @pytest.fixture(scope="class")
    def small_cdc(self):
        return load_dataset("cdc", scale=0.02, cached=False)

    def test_shape(self, small_cdc):
        assert small_cdc.store.num_rows == 6000
        assert small_cdc.store.num_attributes == 100

    def test_twins_have_top_entropies(self, small_cdc):
        scores = exact_entropies(small_cdc.store)
        ranking = sorted(scores, key=lambda a: -scores[a])
        assert all(name.startswith("top_twin_") for name in ranking[:11])

    def test_anchor_entropies_near_plan(self, small_cdc):
        scores = exact_entropies(small_cdc.store)
        for column in small_cdc.plan.columns:
            if column.kind == "anchor":
                assert scores[column.name] == pytest.approx(
                    column.target_entropy, abs=0.15
                )

    def test_mi_members_ranked_as_planned(self, small_cdc):
        target = small_cdc.mi_targets[0]
        scores = exact_mutual_informations(small_cdc.store, target)
        members = sorted(
            (c for c in small_cdc.plan.columns
             if c.kind == "mi_member" and c.base == target),
            key=lambda c: -c.target_mi,
        )
        # Realised MI ordering of the ranked members must match the plan.
        ranked = [m.name for m in members if m.target_mi >= 1.0]
        realised = sorted(ranked, key=lambda name: -scores[name])
        assert realised == ranked

    def test_generation_is_deterministic(self):
        a = load_dataset("cdc", scale=0.005, cached=False)
        b = load_dataset("cdc", scale=0.005, cached=False)
        assert (a.store.column("top_twin_a_00") == b.store.column("top_twin_a_00")).all()

    def test_cache_returns_same_object(self):
        a = load_dataset("cdc", scale=0.004)
        b = load_dataset("cdc", scale=0.004)
        assert a is b

    def test_scale_floor(self):
        dataset = load_dataset("cdc", scale=1e-9, cached=False)
        assert dataset.store.num_rows == 1000

    def test_invalid_scale(self):
        with pytest.raises(ParameterError):
            generate(DATASETS["cdc"], scale=0.0)

    def test_unknown_key(self):
        with pytest.raises(ParameterError, match="unknown dataset"):
            load_dataset("nope")


class TestSummary:
    def test_all_datasets_listed(self):
        rows = dataset_summary()
        assert [r["dataset"] for r in rows] == ["cdc", "enem", "hus", "pus"]

    def test_scale_applied(self):
        rows = dataset_summary(["cdc"], scale=0.1)
        assert rows[0]["rows"] == 30_000

    def test_paper_columns_present(self):
        rows = dataset_summary(["pus"])
        assert rows[0]["paper_columns"] == 179
