"""Command-line interface (repro.cli)."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.traces.model import OP_WRITE, Trace
from repro.traces.systor import save_systor


@pytest.fixture
def trace_file(tmp_path):
    rng = np.random.default_rng(3)
    n = 400
    t = Trace(
        "clitrace",
        np.sort(rng.uniform(0, 4000, n)),
        rng.integers(0, 2, n).astype(np.uint8),
        (rng.integers(0, 4000, n) * 4).astype(np.int64),
        rng.integers(1, 32, n).astype(np.int64),
    )
    p = tmp_path / "cli.csv"
    save_systor(t, p)
    return p


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheme", "bogus"])

    def test_figures_accepts_names(self):
        args = build_parser().parse_args(["figures", "fig13", "table2"])
        assert args.names == ["fig13", "table2"]


class TestCharacterize:
    def test_on_file(self, trace_file, capsys):
        assert main(["characterize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "across R" in out and "cli" in out

    def test_synthetic_default(self, capsys):
        assert main(["characterize", "--scale", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "lun1" in out and "lun6" in out


class TestRunAndCompare:
    def test_run_on_file(self, trace_file, capsys):
        rc = main([
            "run", "--scheme", "across", "--trace", str(trace_file),
            "--aged-used", "0", "--aged-valid", "0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "across on" in out
        assert "erases" in out

    def test_compare_on_file(self, trace_file, capsys):
        rc = main([
            "compare", "--trace", str(trace_file),
            "--aged-used", "0", "--aged-valid", "0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        for scheme in ("ftl", "mrsm", "across"):
            assert scheme in out

    def test_compare_says_where_aged_devices_came_from(self, trace_file, capsys):
        argv = [
            "compare", "--trace", str(trace_file),
            "--aged-used", "0.05", "--aged-valid", "0.02",
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "images: 3 built, 0 restored" in first.err
        assert "images:" not in first.out  # the table stays clean
        assert main(argv) == 0  # same process: the memory tier answers
        assert "images: 0 built, 3 restored" in capsys.readouterr().err

    def test_unknown_lun(self):
        with pytest.raises(SystemExit):
            main(["run", "--lun", "lun99", "--aged-used", "0",
                  "--aged-valid", "0"])

    def test_run_on_workload_spec(self, tmp_path, capsys):
        import json

        spec = {
            "name": "cli-workload",
            "requests": 300,
            "phases": [
                {"weight": 1, "op": "write", "pattern": "boundary",
                 "size_kb": [2, 4]},
                {"weight": 2, "op": "write", "pattern": "random"},
            ],
        }
        p = tmp_path / "w.json"
        p.write_text(json.dumps(spec))
        rc = main([
            "run", "--scheme", "across", "--workload", str(p),
            "--aged-used", "0", "--aged-valid", "0",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "across on cli-workload" in out


class TestLint:
    def test_lint_clean_file(self, trace_file, capsys):
        rc = main(["lint", str(trace_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "across-ratio" in out

    def test_lint_exit_code_on_error(self, tmp_path, capsys):
        import numpy as np

        from repro.traces.model import OP_WRITE, Trace
        from repro.traces.systor import save_systor

        t = Trace(
            "bad",
            np.array([0.0]),
            np.array([OP_WRITE], np.uint8),
            np.array([10**12], np.int64),  # far outside any device
            np.array([8], np.int64),
        )
        p = tmp_path / "bad.csv"
        save_systor(t, p)
        rc = main(["lint", str(p), "--check-range"])
        assert rc == 1
        assert "out-of-range" in capsys.readouterr().out


class TestFigures:
    def test_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figures", "fig99"])

    def test_summary_parser(self):
        args = build_parser().parse_args(["summary", "fig13", "--scale", "0.001"])
        assert args.names == ["fig13"]

    def test_report_parser(self):
        args = build_parser().parse_args(["report", "--out", "x.html"])
        assert args.out == "x.html"

    def test_figures_age_like_summary_and_the_benches(self, monkeypatch, capsys):
        """``repro figures`` draws from the device ``repro summary``,
        ``repro report`` and ``benchmarks/`` use: VDI-aged."""
        from types import SimpleNamespace

        from repro.experiments import figures

        seen = []

        def fig(ctx):
            seen.append(ctx)
            return SimpleNamespace(rendered="")

        monkeypatch.setattr(figures, "ALL_FIGURES", {"fig2": fig})
        assert main(["figures", "fig2", "--scale", "0.001"]) == 0
        (ctx,) = seen
        sim_cfg = ctx.sim_cfg
        assert sim_cfg.aging_style == "vdi"
        assert (sim_cfg.aged_used, sim_cfg.aged_valid) == (0.90, 0.398)

    @pytest.mark.slow
    def test_fig13_to_dir(self, tmp_path, capsys):
        rc = main([
            "figures", "fig13", "--scale", "0.001",
            "--out", str(tmp_path / "figs"),
            "--aged-used", "0", "--aged-valid", "0",
        ])
        assert rc == 0
        assert (tmp_path / "figs" / "fig13.txt").exists()


class TestTrace:
    def test_trace_parser_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.scheme == "across"
        assert args.out == "obs-out"
        assert args.sample_interval_ms == 10.0

    def test_trace_writes_artifacts(self, trace_file, tmp_path, capsys):
        out = tmp_path / "obs"
        rc = main([
            "trace", "--trace", str(trace_file), "--out", str(out),
            "--aged-used", "0", "--aged-valid", "0",
            "--sample-interval-ms", "5",
        ])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "trace.json" in stdout

        # valid Chrome-trace JSON with request slices and chip rows
        import json

        doc = json.loads((out / "trace.json").read_text())
        evs = doc["traceEvents"]
        assert any(e["ph"] == "X" and e["pid"] == 1 for e in evs)
        assert any(e["ph"] == "X" and e["pid"] == 2 for e in evs)

        # one span per request in the JSONL
        spans = (out / "spans.jsonl").read_text().splitlines()
        assert len(spans) == 400

        # Prometheus snapshot with the counter families
        prom = (out / "metrics.prom").read_text()
        assert "repro_flash_reads_total" in prom
        assert "repro_chip_utilization{chip=" in prom

        # per-chip utilisation series in the JSON snapshot
        snap = json.loads((out / "snapshot.json").read_text())
        series = snap["series"]["chip_utilization"]
        assert len(series["t_ms"]) >= 1
        n_chips = len(series["mean_per_chip"])
        assert n_chips >= 1
        assert all(len(row) == n_chips for row in series["per_chip"])
        assert all(0.0 <= u <= 1.0 for row in series["per_chip"] for u in row)

    def test_progress_flag_writes_stderr(self, trace_file, capsys):
        rc = main([
            "run", "--scheme", "ftl", "--trace", str(trace_file),
            "--aged-used", "0", "--aged-valid", "0", "--progress",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "req/s" in err and "100.0%" in err
