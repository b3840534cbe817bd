"""Tests for the ``python -m repro.bench`` CLI."""


from repro.bench.__main__ import main


class TestCli:
    def test_no_args_lists_experiments(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig11l" in out

    def test_unknown_experiment(self, capsys):
        assert main(["not-an-experiment"]) == 2

    def test_runs_one_experiment(self, capsys):
        code = main(
            ["ablation-partitioner", "--scale", "0.0005", "--queries", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Partitioner ablation" in out
        assert "random" in out

    def test_kernel_flag_accepted(self, capsys):
        from repro.core.kernels import default_kernel, set_default_kernel

        try:
            code = main(
                ["ablation-partitioner", "--scale", "0.0005", "--queries", "1",
                 "--kernel", "numpy"]
            )
            assert code == 0
            assert default_kernel() == "numpy"
        finally:
            set_default_kernel(None)  # --kernel sets the process-wide default
        assert "Partitioner ablation" in capsys.readouterr().out

    def test_csv_output(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code = main(
            [
                "ablation-partitioner",
                "--scale", "0.0005",
                "--queries", "1",
                "--csv", str(target),
            ]
        )
        assert code == 0
        text = target.read_text()
        assert "partitioner" in text

    def test_workload_experiment_listed(self, capsys):
        assert main([]) == 0
        assert "workload" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        import json

        target = tmp_path / "bench.json"
        code = main(
            [
                "workload",
                "--scale", "0.005",
                "--queries", "8",
                "--json", str(target),
            ]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert "workload" in payload
        rows = payload["workload"]["rows"]
        modes = {row["mode"] for row in rows}
        assert modes == {"one-by-one", "batch"}
        batch_row = next(row for row in rows if row["mode"] == "batch")
        for column in ("traffic_KB", "network_ms", "visits", "hit_rate", "speedup"):
            assert column in batch_row

    def test_partition_experiment_listed(self, capsys):
        assert main([]) == 0
        assert "partition" in capsys.readouterr().out

    def test_zero_queries_rejected(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            main(["partition", "--queries", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_multiple_experiments_into_one_json(self, tmp_path, capsys):
        import json

        target = tmp_path / "bench.json"
        code = main(
            [
                "workload", "partition",
                "--scale", "0.005",
                "--queries", "2",
                "--json", str(target),
            ]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert set(payload) == {"workload", "partition"}
        partition_row = payload["partition"]["rows"][0]
        for column in ("dataset", "partitioner", "algorithm", "Vf",
                       "in_out", "cut", "bound", "traffic_KB",
                       "network_ms", "visits", "answers"):
            assert column in partition_row
        partitioners = {row["partitioner"] for row in payload["partition"]["rows"]}
        assert {"hash", "refined", "multilevel"} <= partitioners

    def test_sessions_flag_reaches_mutation_sweep(self, tmp_path, capsys):
        import json

        target = tmp_path / "bench.json"
        code = main(
            [
                "mutation",
                "--scale", "0.001",
                "--queries", "6",
                "--sessions", "4",
                "--json", str(target),
            ]
        )
        assert code == 0
        rows = json.loads(target.read_text())["mutation"]["rows"]
        sweep = [row for row in rows if str(row["scenario"]).startswith("sessions-")]
        assert {row["sessions"] for row in sweep} == {1, 2, 4}
        for row in sweep:
            assert row["remap_visits_saved"] >= 0
            assert row["remap_rounds"] >= 0

    def test_sessions_flag_ignored_by_other_experiments(self, capsys):
        # ablation-partitioner takes no `sessions` parameter; the flag must
        # not crash it (it is filtered by signature inspection).
        code = main(
            [
                "ablation-partitioner",
                "--scale", "0.0005",
                "--queries", "1",
                "--sessions", "4",
            ]
        )
        assert code == 0

    def test_queries_flag_ignored_by_experiments_without_num_queries(
        self, monkeypatch, capsys
    ):
        # --queries follows the same signature rule as every other flag
        # (the shortcuts sweep, for one, fixes its own query set).
        from repro.bench import __main__ as bench_main
        from repro.bench.harness import ExperimentResult

        seen = {}

        def exp_fixed(seed: int = 0) -> ExperimentResult:
            """A sweep with a fixed query set."""
            seen["seed"] = seed
            return ExperimentResult("fixed", "Fixed sweep", ["seed"], [{"seed": seed}])

        monkeypatch.setattr(bench_main, "EXPERIMENTS", {"fixed": exp_fixed})
        assert main(["fixed", "--queries", "2", "--seed", "3"]) == 0
        assert seen == {"seed": 3}
        assert "Fixed sweep" in capsys.readouterr().out

    def test_baselines_experiment_runs(self, capsys):
        code = main(["baselines", "--scale", "0.0005", "--queries", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "disReachm" in out and "socket" in out
