"""The declarative scenario subsystem: specs, registry, catalogue.

The parametrized smoke test runs *every* registered scenario at tiny scale
through the generic CLI entrypoint — adding a scenario to the catalogue
automatically puts it under test.
"""

import json

import pytest

from repro.cli import main
from repro.scenarios import (
    ScenarioSpec,
    all_scenarios,
    families,
    get_scenario,
    register,
    scenario_names,
    unregister,
)
from repro.scenarios.topologies import (
    fat_tree_dataset,
    hetero_uplink_dataset,
    random_bottleneck_dataset,
)

#: Tiny-scale CLI overrides per scenario, so the whole smoke sweep stays fast.
SMOKE_ARGS = {
    "2x2": ["--iterations", "2", "--fragments", "80"],
    "B": ["--iterations", "1", "--fragments", "80", "--per-site", "3"],
    "B-T": ["--iterations", "1", "--fragments", "80", "--per-site", "2"],
    "G-T": ["--iterations", "2", "--fragments", "80", "--per-site", "2"],
    "B-G-T": ["--iterations", "1", "--fragments", "80", "--per-site", "2"],
    "B-G-T-L": ["--iterations", "1", "--fragments", "80", "--per-site", "2"],
    "NESTED": ["--iterations", "1", "--fragments", "80",
               "--set", "alpha=2", "--set", "beta=2", "--set", "gamma=3"],
    "fig4": ["--iterations", "2", "--fragments", "80", "--per-site", "4"],
    "fig5": ["--iterations", "3", "--fragments", "80", "--per-site", "3"],
    "fig13": ["--iterations", "2", "--fragments", "80", "--per-site", "2"],
    "broadcast-efficiency": ["--fragments", "80", "--set", "node_counts=4,8"],
    "baseline-cost": ["--iterations", "1", "--fragments", "80",
                      "--set", "node_counts=4,6"],
    "netpipe": ["--set", "repeats=2"],
    "FATTREE-4x4": ["--iterations", "1", "--fragments", "80",
                    "--set", "racks=3", "--set", "hosts_per_rack=2"],
    "FATTREE-NB": ["--iterations", "1", "--fragments", "80",
                   "--set", "racks=3", "--set", "hosts_per_rack=2"],
    "RANDBOT-1": ["--iterations", "1", "--fragments", "80",
                  "--set", "clusters=3", "--set", "hosts_per_cluster=2",
                  "--set", "num_bottlenecks=1"],
    "RANDBOT-2": ["--iterations", "1", "--fragments", "80",
                  "--set", "clusters=3", "--set", "hosts_per_cluster=2",
                  "--set", "num_bottlenecks=1"],
    "HETERO-UPLINK": ["--iterations", "1", "--fragments", "80",
                      "--per-site", "2"],
    "RIVAL-BROADCAST": ["--iterations", "2", "--fragments", "80",
                        "--per-site", "2"],
    "CROSS-TRAFFIC": ["--iterations", "2", "--fragments", "80",
                      "--per-site", "2"],
    "CHURN": ["--iterations", "2", "--fragments", "80", "--per-site", "2"],
    "MIXED-TENANCY": ["--iterations", "2", "--fragments", "80",
                      "--per-site", "2"],
    "FAULT-INJECTION": ["--iterations", "2", "--fragments", "80",
                        "--per-site", "2"],
    "LINK-BLACKOUT": ["--iterations", "3", "--fragments", "80",
                      "--per-site", "2"],
    "MIGRATING-BOTTLENECK": ["--iterations", "3", "--fragments", "80",
                             "--per-site", "2"],
}


class TestRegistry:
    def test_paper_and_figure_scenarios_registered(self):
        names = set(scenario_names())
        assert {"2x2", "B", "B-T", "G-T", "B-G-T", "B-G-T-L"} <= names
        assert {"fig4", "fig5", "fig13", "broadcast-efficiency",
                "baseline-cost", "netpipe"} <= names

    def test_figure_scenarios_are_their_runners(self):
        from repro.experiments import runners

        for name, runner in (
            ("fig4", runners.run_fig4),
            ("fig5", runners.run_fig5),
            ("fig13", runners.run_fig13),
            ("broadcast-efficiency", runners.run_broadcast_efficiency),
            ("baseline-cost", runners.run_baseline_cost),
            ("netpipe", runners.run_netpipe_reference),
        ):
            assert get_scenario(name).runner is runner, name

    def test_at_least_three_non_paper_families(self):
        beyond = set(families()) - {"paper", "figure"}
        assert {"fat-tree", "random-bottleneck", "hetero-uplink"} <= beyond

    def test_every_scenario_has_smoke_args(self):
        assert set(scenario_names()) == set(SMOKE_ARGS)

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("G-T")
        with pytest.raises(ValueError, match="already registered"):
            register(spec)

    def test_register_unregister_roundtrip(self):
        spec = ScenarioSpec(
            name="TEST-TMP",
            family="test",
            dataset_factory=lambda: None,
        )
        register(spec)
        try:
            assert get_scenario("TEST-TMP") is spec
        finally:
            unregister("TEST-TMP")
        assert "TEST-TMP" not in scenario_names()

    def test_unknown_scenario_error_lists_available(self):
        with pytest.raises(KeyError, match="G-T"):
            get_scenario("NOPE")

    def test_all_scenarios_family_filter(self):
        paper = all_scenarios(family="paper")
        assert paper
        assert all(spec.family == "paper" for spec in paper)


class TestSpecValidation:
    def test_needs_exactly_one_body(self):
        with pytest.raises(ValueError):
            ScenarioSpec(name="bad", family="test")
        with pytest.raises(ValueError):
            ScenarioSpec(
                name="bad",
                family="test",
                dataset_factory=lambda: None,
                runner=lambda **kw: {},
            )

    def test_runner_scenario_has_no_dataset(self):
        spec = get_scenario("netpipe")
        assert spec.kind == "runner"
        with pytest.raises(ValueError, match="no dataset"):
            spec.build_dataset()


@pytest.mark.parametrize("name", sorted(SMOKE_ARGS))
def test_scenario_smoke_via_cli(name, tmp_path, capsys):
    """Every registered scenario runs end-to-end through the generic CLI."""
    path = tmp_path / f"{name}.json"
    code = main(["run", name, "--json", str(path)] + SMOKE_ARGS[name])
    out = capsys.readouterr()
    assert code == 0, out.err
    assert out.out.strip()
    payload = json.loads(path.read_text())
    assert payload["scenario"] == name
    assert payload["executor"] == "serial"


def test_summary_stepping_is_the_mode_that_ran(monkeypatch):
    """The summary and every broadcast carry the stepping mode that ran:
    the default is ``"event"`` and no environment variable changes it."""
    monkeypatch.setenv("REPRO_STEPPING", "fixed")
    spec = get_scenario("B")
    for stepping, expected in ((None, "event"), ("fixed", "fixed")):
        summary = spec.run(
            iterations=1, num_fragments=40, per_site=2, stepping=stepping
        )
        results = summary["result"].record.results
        assert summary["stepping"] == expected
        assert results and all(r.stepping == expected for r in results)


@pytest.mark.parametrize(
    "name, overrides, recorded",
    [
        ("netpipe", {"repeats": 1}, set()),
        ("broadcast-efficiency", {"num_fragments": 80, "node_counts": (4,)},
         {"seed_used"}),
        ("G-T", {"iterations": 1, "num_fragments": 80, "per_site": 2},
         {"iterations_run", "seed_used"}),
    ],
    ids=["netpipe", "broadcast-efficiency", "G-T"],
)
def test_summary_records_only_the_knobs_its_body_took(name, overrides, recorded):
    """``iterations_run``/``seed_used`` name what the body ran with: NetPIPE
    has no campaign and no randomness, broadcast-efficiency no iterations."""
    spec = get_scenario(name)
    summary = spec.run(**overrides)
    assert {"iterations_run", "seed_used"} & set(summary) == recorded
    if "seed_used" in recorded:
        assert summary["seed_used"] == spec.defaults()["seed"]
    if "iterations_run" in recorded:
        assert summary["iterations_run"] == overrides["iterations"]


class TestDefaultsAreSignatures:
    """A scenario's run settings have one source, its functions' signatures:
    a CLI run of a figure scenario is a call of its runner."""

    def test_cli_figure_run_is_its_runner_call(self, tmp_path, capsys):
        from repro.experiments.runners import run_fig4

        path = tmp_path / "fig4.json"
        assert main(["run", "fig4", "--per-site", "4", "--iterations", "2",
                     "--fragments", "80", "--json", str(path)]) == 0
        record = json.loads(path.read_text())
        direct = run_fig4(per_site=4, iterations=2, num_fragments=80)
        for key in ("local_total", "remote_total"):
            assert record[key] == direct[key], key

    def test_list_advertises_only_the_knobs_a_body_takes(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        assert main(["list", "--json", str(path)]) == 0
        entries = {e["name"]: e for e in json.loads(path.read_text())["scenarios"]}
        campaign = ("iterations", "num_fragments", "seed")
        assert not set(campaign) & set(entries["netpipe"])
        assert [entries["fig13"][k] for k in campaign] == [12, 500, 5]
        assert [entries["LINK-BLACKOUT"][k] for k in campaign] == [6, 240, 2012]
        assert "iterations" not in entries["broadcast-efficiency"]

    def test_defaults_read_the_signatures(self):
        from repro.experiments.runners import run_dataset_clustering

        # Fig. 5 is the paper's 36 runs of one edge, on the CLI too.
        fig5 = get_scenario("fig5").defaults()
        assert (fig5["iterations"], fig5["num_fragments"], fig5["seed"]) == (
            36, 400, 11
        )
        # A campaign scenario: its factory's tunables plus the study's knobs.
        spec = get_scenario("G-T")
        assert spec.body is run_dataset_clustering
        gt = spec.defaults()
        assert (gt["per_site"], gt["iterations"], gt["seed"]) == (8, 8, 2012)


class TestGeneratedFamilies:
    def test_fat_tree_oversubscribed_ground_truth_is_per_rack(self):
        ds = fat_tree_dataset(racks=3, hosts_per_rack=2, oversubscription=4.0)
        assert ds.expectation.expected_clusters == 3
        assert ds.ground_truth.num_clusters == 3
        assert len(ds.hosts) == 6

    def test_fat_tree_non_blocking_is_one_cluster(self):
        ds = fat_tree_dataset(racks=3, hosts_per_rack=2, oversubscription=1.0)
        assert ds.expectation.expected_clusters == 1
        assert ds.ground_truth.num_clusters == 1

    def test_fat_tree_validates_shape(self):
        with pytest.raises(ValueError):
            fat_tree_dataset(racks=1)
        with pytest.raises(ValueError):
            fat_tree_dataset(oversubscription=0)

    def test_random_bottleneck_layout_is_seeded(self):
        a = random_bottleneck_dataset(layout_seed=1)
        b = random_bottleneck_dataset(layout_seed=1)
        c = random_bottleneck_dataset(layout_seed=2)
        assert a.expectation.description == b.expectation.description
        assert a.expectation.description != c.expectation.description

    def test_random_bottleneck_ground_truth_counts(self):
        ds = random_bottleneck_dataset(
            clusters=4, hosts_per_cluster=2, num_bottlenecks=2, layout_seed=7
        )
        # two singled-out clusters plus one merged well-connected group
        assert ds.ground_truth.num_clusters == 3
        assert len(ds.hosts) == 8

    def test_random_bottleneck_all_bottlenecked(self):
        ds = random_bottleneck_dataset(
            clusters=3, hosts_per_cluster=2, num_bottlenecks=3
        )
        assert ds.ground_truth.num_clusters == 3

    def test_hetero_uplink_validates(self):
        with pytest.raises(ValueError):
            hetero_uplink_dataset(sites=("grenoble",), uplink_scales=(1.0,))
        with pytest.raises(ValueError):
            hetero_uplink_dataset(uplink_scales=(1.0, 0.5, 0.0))
        with pytest.raises(ValueError):
            hetero_uplink_dataset(
                sites=("grenoble", "atlantis"), uplink_scales=(1.0, 1.0)
            )

    def test_hetero_uplink_sites_are_clusters(self):
        ds = hetero_uplink_dataset(per_site=2)
        assert ds.ground_truth.num_clusters == 3
        assert ds.expectation.expected_clusters == 3

    def test_generated_scenarios_recover_their_ground_truth(self):
        # Small but non-trivial scale: the method should find the planted
        # structure of each new family.
        for name, overrides in (
            ("FATTREE-4x4", {"racks": 3, "hosts_per_rack": 3}),
            ("RANDBOT-1", {"clusters": 3, "hosts_per_cluster": 3,
                           "num_bottlenecks": 1}),
            ("HETERO-UPLINK", {"per_site": 3}),
        ):
            summary = get_scenario(name).run(
                iterations=2, num_fragments=150, **overrides
            )
            assert summary["found_clusters"] == summary["expected_clusters"], name
            assert summary["measured_nmi"] == pytest.approx(1.0), name
