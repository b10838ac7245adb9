"""Experiment drivers: reporting helpers and the fast (analytic) runs."""

import importlib
import json
import os
import re
import sys
from pathlib import Path

import pytest

from repro.cli import EXPERIMENTS, _results_stem
from repro.experiments import fidelity_config, run_spec
from repro.experiments import table2, table3
from repro.experiments.report import format_table, save_results, scientific
from repro.core.factories import make_shadow, make_shadow_with_trcd
from repro.experiments.engine import archsim_scheme_specs, rfm_scheme_specs
from repro.dram.device import DramGeometry
from repro.dram.timing import DDR4_2666


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2.5], ["xy", 3.0]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5

    def test_scientific_notation(self):
        assert scientific(0.0) == "0"
        assert scientific(-1) == "0"
        assert scientific(1.0) == "1"
        assert scientific(2.3e-15) == "2E-15"
        assert scientific(0.4) == "4E-1"

    def test_save_results_roundtrip(self, tmp_path):
        path = save_results("unit", {"x": 1}, directory=str(tmp_path))
        with open(path) as handle:
            assert json.load(handle) == {"x": 1}
        assert os.path.basename(path) == "unit.json"

    def test_save_results_atomic_no_temp_left_behind(self, tmp_path):
        save_results("unit", {"x": 1}, directory=str(tmp_path))
        save_results("unit", {"x": 2}, directory=str(tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == ["unit.json"]
        with open(tmp_path / "unit.json") as handle:
            assert json.load(handle) == {"x": 2}

    def test_save_results_failed_write_cleans_up(self, tmp_path):
        bad = {}
        bad["self"] = bad   # circular: fails mid-dump despite default=str
        with pytest.raises(ValueError):
            save_results("broken", bad, directory=str(tmp_path))
        # Neither a partial target nor a stranded temp file remains.
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask", [0o022, 0o027])
    def test_save_results_mode_matches_plain_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            path = save_results("unit", {"x": 1}, directory=str(tmp_path))
            plain = tmp_path / "plain.json"
            with open(plain, "w") as handle:
                handle.write("{}")
        finally:
            os.umask(old)
        assert os.stat(path).st_mode == os.stat(plain).st_mode
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask

    def test_save_results_creates_nested_directory(self, tmp_path):
        target = tmp_path / "a" / "b"
        path = save_results("deep", {"ok": True}, directory=str(target))
        with open(path) as handle:
            assert json.load(handle) == {"ok": True}


class TestFidelity:
    def test_levels(self):
        smoke = fidelity_config("smoke")
        full = fidelity_config("full")
        assert smoke.threads < full.threads
        assert smoke.requests_per_thread < full.requests_per_thread
        with pytest.raises(ValueError):
            fidelity_config("ludicrous")

    def test_system_config_uses_paper_geometry(self):
        cfg = fidelity_config("smoke").sim_spec().to_system_config()
        paper = DramGeometry()
        assert cfg.geometry.total_banks == paper.total_banks == 128


class TestSchemeFactories:
    def test_rfm_set_complete(self):
        assert set(rfm_scheme_specs(4096)) == {"SHADOW", "PARFM",
                                               "Mithril-perf",
                                               "Mithril-area", "DRR"}

    def test_archsim_set_complete(self):
        assert set(archsim_scheme_specs(4096)) == \
            {"SHADOW", "BlockHammer", "RRS"}

    def test_shadow_trcd_override(self):
        geometry = DramGeometry()
        for target in (23, 25, 27):
            shadow = make_shadow_with_trcd(target, hcnt=4096)
            shadow.bind(geometry, DDR4_2666)
            assert shadow.timings.trcd_prime_cycles == target, target
        with pytest.raises(ValueError):
            make_shadow_with_trcd(19, hcnt=4096)

    def test_distinct_names_for_distinct_timing(self):
        a = make_shadow_with_trcd(23, hcnt=4096)
        b = make_shadow_with_trcd(27, hcnt=4096)
        assert a.name != b.name   # alone-run cache keys must differ

    def test_make_shadow_uses_secure_raaimt(self):
        assert make_shadow(2048).config.raaimt == 32


class TestAnalyticDrivers:
    def test_table2_structure(self):
        results = run_spec(table2.spec())
        assert len(results["cells"]) == 9
        cell = results["cells"]["64,4096"]
        assert cell["secure"]
        assert cell["probability"] == pytest.approx(1.9e-14, rel=1.0)

    def test_table3_structure(self):
        results = run_spec(table3.spec())
        assert set(results["rows"]) == {"tRCD'", "row-copy", "tRCD_RM",
                                        "tWR_RM", "tRD_RM"}
        assert results["shuffle_total_ns"]["DDR4-2666"] == \
            pytest.approx(178, abs=4)


class TestExtended:
    def test_one_row_per_matrix_scheme_plus_filter(self):
        from repro.experiments import extended
        from repro.experiments.matrix import matrix_schemes
        spec = extended.spec("smoke")
        rows = {point.group[1]: point.scheme for point in spec.points}
        assert len(rows) == len(matrix_schemes()) + 1
        assert (sorted(s.kind for s in rows.values())
                == sorted(matrix_schemes() + ["shadow-filtered"]))
        assert rows["SHADOW+filter"].kind == "shadow-filtered"
        assert dict(spec.meta) == {"hcnt": extended.DEFAULT_HCNT}

    def test_filtered_scheme_stays_out_of_hcnt_sweeps(self):
        from repro.cli import cli_scheme_names
        from repro.experiments.matrix import matrix_schemes
        from repro.experiments.redteam import redteam_schemes
        for names in (matrix_schemes(), redteam_schemes("full"),
                      cli_scheme_names()):
            assert "shadow" in names
            assert "shadow-filtered" not in names


RESULTS = Path(__file__).resolve().parent.parent / "results"

#: Experiment -> (table title prefix, the keys that get one row each).
_RENDERED = {
    "table2": ("Table II:", lambda r: sorted(
        {key.split(",")[0] for key in r["cells"]})),
    "table3": ("Table III:", lambda r: list(r["rows"])),
    "fig8": ("Figure 8:", lambda r: list(r["relative_performance"])),
    "fig9": ("Figure 9:", lambda r: list(r["series"])),
    "fig10": ("Figure 10:", lambda r: list(r["series"])),
    "fig11": ("Figure 11:", lambda r: list(r["series"])),
    "fig12": ("Figure 12:", lambda r: list(r["series"])),
    "ablations": ("Ablation: timing charges",
                  lambda r: list(r["protection"])),
    "extended": ("Extended comparison", lambda r: list(r["schemes"])),
    "scheme-matrix": ("Scheme matrix", lambda r: list(r["schemes"])),
}


def _driver(name):
    return importlib.import_module(
        f"repro.experiments.{EXPERIMENTS[name]}")


def _cells(line):
    return set(re.split(r"\s{2,}", line.strip()))


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_render_committed_results(name):
    """Each driver renders its committed smoke (or table) results."""
    module = _driver(name)
    stem = _results_stem(module.spec("smoke"))
    results = json.loads((RESULTS / f"{stem}.json").read_text())
    title, keys = _RENDERED[name]
    keys = set(keys(results))
    text = module.render(results, results["fidelity"])
    lines = text.splitlines()
    assert lines[0].startswith(title)
    rows = [line for line in lines if _cells(line) & keys]
    assert len(rows) == len(keys)
    assert set().union(*map(_cells, rows)) >= keys


class TestExperimentCommand:
    def test_analytic_drivers_reject_engine_flags(self):
        from repro.cli import main
        for flag in (["--jobs", "2"], ["--no-cache"], ["--keep-going"]):
            with pytest.raises(SystemExit):
                main(["experiment", "table2", *flag])

    @staticmethod
    def _stub_run_and_save(monkeypatch):
        import repro.cli
        seen = []

        def run_and_save(spec, args, render=None):
            seen.append((spec, args, render))
            return 0

        monkeypatch.setattr(repro.cli, "_run_and_save", run_and_save)
        return seen

    def test_engine_flags_reach_extended(self, monkeypatch):
        from repro.cli import main
        from repro.experiments import extended
        seen = self._stub_run_and_save(monkeypatch)
        assert main(["experiment", "extended", "smoke", "--jobs", "2",
                     "--no-cache"]) == 0
        [(spec, args, render)] = seen
        assert (spec.name, spec.fidelity) == ("extended", "smoke")
        assert render is extended.render
        assert (args.jobs, args.no_cache, args.retries, args.job_timeout,
                args.keep_going) == (2, True, 0, None, False)

    def test_leaves_sys_argv_alone(self, monkeypatch):
        from repro.cli import main
        self._stub_run_and_save(monkeypatch)
        argv = ["shadow-repro", "experiment", "fig12"]
        monkeypatch.setattr(sys, "argv", argv)
        assert main(["experiment", "fig12", "smoke", "--jobs", "2"]) == 0
        assert sys.argv is argv
        assert argv == ["shadow-repro", "experiment", "fig12"]

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_dump_spec_defaults_to_the_full_run(self, name, capsys):
        """The dumped spec is the one ``experiment <name>`` runs."""
        from repro.cli import main
        assert main(["experiment", name, "--dump-spec"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped["fidelity"] == "full"
        assert dumped == _driver(name).spec("full").to_dict()

    @pytest.mark.parametrize("name, saved", [
        ("scheme-matrix", "scheme_matrix_smoke"),
        ("table2", "table2"),
    ])
    def test_run_spec_saves_like_experiment(self, name, saved, tmp_path,
                                            monkeypatch, capsys):
        """``run --spec`` on a dumped spec saves under the same name."""
        from repro.cli import main
        from repro.experiments import driver, report
        monkeypatch.chdir(tmp_path)
        assert main(["experiment", name, "smoke", "--dump-spec"]) == 0
        (tmp_path / "spec.json").write_text(capsys.readouterr().out)
        names = []
        monkeypatch.setattr(driver, "run_spec",
                            lambda spec, engine=None: {})
        monkeypatch.setattr(report, "save_results",
                            lambda name, payload: names.append(name))
        assert main(["run", "--spec", "spec.json"]) == 0
        assert names == [saved]
