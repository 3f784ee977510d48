"""Smoke tests for the ``repro-ttl`` command-line interface."""

import pytest

from repro.cli import main


class TestDatasets:
    def test_lists_catalogue(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "Austin" in out and "Sweden" in out

    def test_info(self, capsys):
        assert main(["info", "Austin", "--scale", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "stations" in out and "connections" in out


class TestGenerate:
    def test_writes_csv_bundle(self, tmp_path, capsys):
        assert (
            main(["generate", "Austin", str(tmp_path), "--scale", "0.4"]) == 0
        )
        assert (tmp_path / "stations.csv").exists()
        assert (tmp_path / "routes.csv").exists()
        assert (tmp_path / "stop_times.csv").exists()


class TestBuildAndQuery:
    def test_build_saves_index(self, tmp_path, capsys):
        index_path = tmp_path / "austin.ttl"
        assert (
            main(
                ["build", "Austin", str(index_path), "--scale", "0.4"]
            )
            == 0
        )
        assert index_path.exists()
        out = capsys.readouterr().out
        assert "labels" in out
        assert "building:" in out  # progress line

    def test_query_all_methods_agree(self, tmp_path, capsys):
        assert (
            main(
                [
                    "query", "Austin", "eap", "0", "10",
                    "--start", "08:00", "--scale", "0.4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 5  # Dijkstra, CSA, CHT, TTL, C-TTL
        arrs = {line.split("arr")[1].split()[0] for line in lines if "arr" in line}
        assert len(arrs) <= 1  # all methods agree (or all infeasible)

    def test_query_with_saved_index(self, tmp_path, capsys):
        index_path = tmp_path / "a.ttl"
        main(["build", "Austin", str(index_path), "--scale", "0.4"])
        capsys.readouterr()
        assert (
            main(
                [
                    "query", "Austin", "sdp", "0", "10",
                    "--start", "07:00", "--end", "12:00",
                    "--index", str(index_path), "--scale", "0.4",
                ]
            )
            == 0
        )

    def test_query_missing_time_flag(self, capsys):
        assert (
            main(["query", "Austin", "eap", "0", "1", "--scale", "0.4"]) == 2
        )

    def test_query_stats_prints_metrics(self, capsys):
        assert (
            main(
                [
                    "query", "Austin", "eap", "0", "10",
                    "--start", "08:00", "--scale", "0.4", "--stats",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "per-planner query metrics:" in out
        assert "queries=1" in out
        assert "labels_scanned=" in out
        # Both labelling planners report their counters.
        stats_lines = [l for l in out.splitlines() if "queries=" in l]
        names = {line.split()[0] for line in stats_lines}
        assert {"TTL", "C-TTL"} <= names


class TestAnalyzeAndProfile:
    def test_analyze(self, capsys):
        assert main(["analyze", "Austin", "--scale", "0.4"]) == 0
        out = capsys.readouterr().out
        assert "reachability" in out
        assert "labels total" in out
        assert "hubs carry" in out

    def test_profile_happy_path(self, capsys):
        assert (
            main(
                [
                    "profile", "Austin", "0", "10",
                    "--start", "06:00", "--end", "22:00",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "depart" in out or "no feasible" in out


class TestBench:
    def test_table3(self, capsys):
        assert (
            main(
                [
                    "bench", "table3",
                    "--datasets", "Austin", "--scale", "0.4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Table 3" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["bench", "figure99"])


class TestErrorHandling:
    def test_unknown_dataset_clean_error(self, capsys):
        assert main(["info", "Atlantis"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_time_clean_error(self, capsys):
        assert (
            main(["query", "Austin", "eap", "0", "1",
                  "--start", "nonsense", "--scale", "0.4"])
            == 2
        )
        assert "error:" in capsys.readouterr().err

    def test_verify_missing_index_clean_error(self, capsys, tmp_path):
        missing = tmp_path / "nope.ttl"
        missing.write_bytes(b"JUNKJUNK")
        assert (
            main(["verify", "Austin", str(missing), "--scale", "0.4"]) == 2
        )
        assert "error:" in capsys.readouterr().err


class TestLive:
    def test_live_replay_reports_stats(self, capsys):
        assert (
            main(["live", "Austin", "--scale", "0.4", "--rate", "0.1",
                  "--queries", "30"])
            == 0
        )
        out = capsys.readouterr().out
        assert "fast path" in out and "fallbacks" in out
        assert "tainted" in out

    def test_live_feed_file(self, capsys, tmp_path):
        from repro.datasets import load_dataset
        from repro.live import (
            EventFeed,
            TimedEvent,
            TripCancellation,
        )

        graph = load_dataset("Austin", scale=0.4)
        trip_id = sorted(graph.trips)[0]
        feed = EventFeed([TimedEvent(0, TripCancellation(trip_id=trip_id))])
        path = tmp_path / "feed.json"
        path.write_text(feed.to_json())
        assert (
            main(["live", "Austin", "--scale", "0.4", "--feed", str(path),
                  "--queries", "12", "-v"])
            == 0
        )
        out = capsys.readouterr().out
        assert "1 applied" in out

    def test_live_bad_rate_clean_error(self, capsys):
        assert (
            main(["live", "Austin", "--scale", "0.4", "--rate", "7"]) == 2
        )
        assert "error:" in capsys.readouterr().err


class TestSeedFlag:
    def test_seed_changes_generated_data(self, tmp_path, capsys):
        first = tmp_path / "a"
        second = tmp_path / "b"
        third = tmp_path / "c"
        for target, seed in ((first, "5"), (second, "5"), (third, "6")):
            assert (
                main(
                    [
                        "generate", "Austin", str(target),
                        "--scale", "0.4", "--seed", seed,
                    ]
                )
                == 0
            )
        same = (first / "stop_times.csv").read_bytes()
        assert same == (second / "stop_times.csv").read_bytes()
        assert same != (third / "stop_times.csv").read_bytes()

    def test_info_accepts_seed(self, capsys):
        assert main(["info", "Austin", "--scale", "0.4", "--seed", "9"]) == 0
        assert "stations" in capsys.readouterr().out


def assert_index_files_equal(first, second):
    """Two saved indexes carry identical labels and ranks.

    The whole files are not compared byte for byte because the footer
    records build wall-clock stats, which legitimately differ.
    """
    from repro.core.serialize import load_index
    from repro.datasets import load_dataset

    graph = load_dataset("Austin", 0.4)
    a = load_index(first, graph)
    b = load_index(second, graph)
    assert a.ranks == b.ranks
    for direction in ("in_store", "out_store"):
        for column in ("node_starts", "group_starts", "hubs",
                       "deps", "arrs", "trips", "pivots"):
            assert list(getattr(getattr(a, direction), column)) == list(
                getattr(getattr(b, direction), column)
            ), f"{direction}.{column} differs"


class TestBuildFarmCli:
    def test_parallel_build_writes_identical_index(self, tmp_path, capsys):
        serial = tmp_path / "serial.ttl"
        parallel = tmp_path / "parallel.ttl"
        assert main(["build", "Austin", str(serial), "--scale", "0.4"]) == 0
        assert (
            main(
                [
                    "build", "Austin", str(parallel),
                    "--scale", "0.4", "--jobs", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "pipeline" in out and "jobs 2" in out
        assert_index_files_equal(serial, parallel)

    def test_kill_and_resume_round_trip(self, tmp_path, capsys):
        serial = tmp_path / "serial.ttl"
        resumed = tmp_path / "resumed.ttl"
        ckpt = tmp_path / "ck"
        assert main(["build", "Austin", str(serial), "--scale", "0.4"]) == 0
        assert (
            main(
                [
                    "build", "Austin", str(resumed), "--scale", "0.4",
                    "--jobs", "2", "--chunk-size", "4",
                    "--checkpoint-dir", str(ckpt),
                    "--fail-after-chunks", "1",
                ]
            )
            == 2
        )
        assert not resumed.exists()
        assert (
            main(
                [
                    "build", "Austin", str(resumed), "--scale", "0.4",
                    "--jobs", "2", "--chunk-size", "4",
                    "--checkpoint-dir", str(ckpt), "--resume",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "resumed" in out
        assert_index_files_equal(serial, resumed)


class TestServeIndexFlags:
    """``serve`` adopts ``--index``/``--mmap``/``--build-jobs`` in
    every branch, and a missing index file is a clean CLI error."""

    @staticmethod
    def _serve(args, timeout=60):
        """Start single-process ``repro-ttl serve ...`` and read its
        output up to the banner.  Returns ``(proc, port, output,
        kill, watchdog)``; ``port`` is ``None`` when the process ended
        first.  The watchdog kills a server that never prints one."""
        import os
        import re
        import subprocess
        import sys
        import threading

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", *args,
             "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        kill = proc.kill
        watchdog = threading.Timer(timeout, kill)
        watchdog.start()
        output = []
        port = None
        for line in proc.stdout:
            output.append(line)
            match = re.search(r"serving \S+ on http://[\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        return proc, port, output, kill, watchdog

    def test_live_serves_the_saved_index(self, tmp_path, capsys):
        import json
        import urllib.request

        # A random-order index has far more labels than the hub order
        # a rebuild would use, so /metrics shows which one is served.
        saved = tmp_path / "random.ttl"
        assert main(
            ["build", "Austin", str(saved), "--order", "random"]
        ) == 0
        from repro.core.serialize import load_index
        from repro.datasets import load_dataset

        labels = load_index(str(saved), load_dataset("Austin")).num_labels
        proc, port, output, kill, watchdog = self._serve(
            ["Austin", "--live", "--index", str(saved), "--mmap"]
        )
        try:
            assert port is not None, "".join(output)
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/v1/metrics", timeout=10
            ) as response:
                body = json.loads(response.read())
            assert body["data"]["index"]["num_labels"] == labels
        finally:
            kill()
            watchdog.cancel()
            proc.wait()

    @pytest.mark.parametrize(
        "extra", [["--live", "--mmap"], ["--mmap"], []],
        ids=["live-mmap", "mmap", "heap"],
    )
    def test_missing_index_is_a_clean_error(self, tmp_path, extra):
        missing = tmp_path / "missing.ttl"
        proc, port, output, kill, watchdog = self._serve(
            ["Austin", "--scale", "0.4", "--index", str(missing), *extra]
        )
        try:
            assert port is None, "served without its index"
            assert proc.wait() == 2
            text = "".join(output)
            assert text.startswith("error: ") and str(missing) in text
            assert "Traceback" not in text
        finally:
            kill()
            watchdog.cancel()
            proc.wait()

    def test_prefork_build_honours_build_jobs(self, monkeypatch, capsys):
        import repro.cli
        import repro.serving

        factories = []

        class Supervisor:
            coordinator_url = None

            def __init__(self, factory, **kwargs):
                factories.append(factory)

            def start(self):
                return 0

            def wait_ready(self):
                pass

        monkeypatch.setattr(repro.serving, "ServingSupervisor", Supervisor)
        monkeypatch.setattr(
            repro.cli, "_serve_until_sigterm", lambda sup, grace: 0
        )
        assert main(
            ["serve", "Austin", "--scale", "0.4", "--workers", "2",
             "--build-jobs", "2"]
        ) == 0
        (factory,) = factories
        build = factory().index.build_stats
        assert build.extra.get("jobs") == 2
