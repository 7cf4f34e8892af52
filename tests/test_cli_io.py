import json
import re
from pathlib import Path

import numpy as np
import pytest

from qpbench import verification
from qpbench.cli import main
from qpbench.config import ConfigError, RunConfig, system_hash
from qpbench.hartree_fock import band_structure
from qpbench.hydrogenic import BosonSpectrumParams, boson_energy
from qpbench.model_system import build_soft_coulomb_system
from qpbench.pipeline import STAGES, build_system, run_pipeline
from qpbench.quasiparticle import QuasiparticleLevel
from qpbench.reports import band_plot_svg, format_float, spectral_plot_svg, write_csv


CRYSTAL_CONFIG = {
    "system": {
        "points": 12,
        "spacing": 0.5,
        "electrons": 2,
        "boundary": "periodic",
        "kpoints": 8,
    },
    "oracle": {"orbital_cutoff": 6},
    "self_energy": {"kind": "constant", "scale": 1.5},
    "dyson": {"count": 300},
}


class TestConfig:
    def test_defaults_filled(self):
        config = RunConfig.from_dict({})
        assert config["system"]["points"] == 16
        assert config["scf"] == {"tol": 1e-10, "max_iter": 500}
        assert config["dyson"]["count"] == 2000

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="scf.'mixling'"):
            RunConfig.from_dict({"scf": {"mixling": 0.3}})

    def test_removed_mixing_key_rejected(self):
        # the SCF is DIIS only and the Dyson solve direct only; a leftover
        # setting of a removed option fails loudly
        for section, key, value in (("scf", "mixing", 0.5), ("dyson", "method", "direct")):
            with pytest.raises(ConfigError, match=f"{section}.'{key}'"):
                RunConfig.from_dict({section: {key: value}})

    def test_readme_example_config_is_valid(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        assert len(blocks) == 1
        config = RunConfig.from_dict(json.loads(blocks[0]))
        assert config["system"]["boundary"] == "periodic"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            RunConfig.from_dict({"systems": {}})

    def test_range_violations_rejected(self):
        with pytest.raises(ConfigError, match="system.softening"):
            RunConfig.from_dict({"system": {"softening": 0.0}})
        with pytest.raises(ConfigError, match="scf.tol"):
            RunConfig.from_dict({"scf": {"tol": 0.0}})

    def test_odd_electron_count_rejected(self):
        with pytest.raises(ConfigError, match="closed shell"):
            RunConfig.from_dict({"system": {"electrons": 3}})

    def test_oracle_bounds(self):
        with pytest.raises(ConfigError, match="at most 4"):
            RunConfig.from_dict({"system": {"electrons": 6}})
        with pytest.raises(ConfigError, match="orbital_cutoff"):
            RunConfig.from_dict({"oracle": {"orbital_cutoff": 99}})

    def test_hash_stable_under_key_order(self):
        a = RunConfig.from_dict({"system": {"points": 12, "spacing": 0.5}})
        b = RunConfig.from_dict({"system": {"spacing": 0.5, "points": 12}})
        assert a.hash() == b.hash()

    def test_system_hash_keys_snapshot(self):
        system = build_soft_coulomb_system((12, 0.5), 2.0, 1.0, 2, "box")
        assert system_hash(system.snapshot()) == system_hash(system.snapshot())

    def test_from_file_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            RunConfig.from_file(path)


class TestReports:
    def test_float_formatting_roundtrips(self):
        x = -0.72819598411624664
        assert float(format_float(x)) == x

    def test_csv_embeds_hash_and_version(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", {"a": [1.0]}, "deadbeef")
        text = path.read_text()
        assert "# config_hash=deadbeef" in text
        assert "# version=" in text

    def test_band_plot_element_counts(self):
        kgrid = np.linspace(-0.4, 0.4, 8)
        bands = np.vstack([np.cos(kgrid), 1 + np.cos(kgrid), 2 + np.cos(kgrid)])
        level = QuasiparticleLevel(
            band=0,
            reference_epsilon0=-0.5,
            shifted_reference=0.0,
            pair_energy=-0.25,
            plus_level=-0.25,
            minus_level=0.25,
            regime="heavy",
            offset_constant=0.0,
        )
        svg = band_plot_svg(kgrid, bands, [level], "hash")
        assert svg.count("<polyline") == 3
        assert svg.count("stroke-dasharray") == 2

    def test_single_band_vertex_count(self):
        kgrid = np.linspace(-0.4, 0.4, 8)
        svg = band_plot_svg(kgrid, np.cos(kgrid)[None, :], [], "hash")
        polyline = [ln for ln in svg.splitlines() if "<polyline" in ln][0]
        points = polyline.split('points="')[1].split('"')[0].split()
        assert len(points) == 8

    def test_reemission_is_byte_identical(self):
        kgrid = np.linspace(-0.4, 0.4, 8)
        bands = np.cos(kgrid)[None, :]
        assert band_plot_svg(kgrid, bands, [], "h") == band_plot_svg(
            kgrid, bands, [], "h"
        )

    def test_empty_band_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            band_plot_svg(np.zeros(0), np.zeros((0, 0)), [], "h")

    def test_csv_columns_match_per_cell_formatting(self, tmp_path):
        floats = [0.1, -0.0, np.float64(1 / 3), np.float32(0.1), np.nan, -np.inf, 1e300]
        ints = [0, -3, 10**17, np.int64(7), True, 2, 5]
        strings = ["a", "b", "c", "d", "e", "f", "g"]
        columns = {"x": floats, "n": ints, "s": strings}
        text = write_csv(tmp_path / "t.csv", columns, "h").read_text()
        rows = list(zip(floats, ints, strings))
        # the per-cell rule the batched columns replace
        expect = [
            ",".join(
                format_float(c) if isinstance(c, (float, np.floating)) else str(c)
                for c in row
            )
            for row in rows
        ]
        assert text.splitlines()[3:] == expect

    def test_csv_without_rows_has_only_the_header(self, tmp_path):
        text = write_csv(tmp_path / "t.csv", {"a": [], "b": []}, "h").read_text()
        assert text.splitlines()[2:] == ["a,b"]

    def test_polyline_points_match_per_point_formatting(self):
        rng = np.random.default_rng(3)
        omegas = np.sort(rng.normal(size=300))
        weights = rng.exponential(size=300)
        svg = spectral_plot_svg(omegas, weights, "h")
        points = svg.split('points="')[1].split('"')[0]
        xlo, xhi, yhi = float(omegas.min()), float(omegas.max()), float(weights.max()) * 1.05
        expect = " ".join(
            f"{format(56 + (x - xlo) / (xhi - xlo) * 528, '.8g')},"
            f"{format(364 + (y - 0.0) / yhi * -308, '.8g')}"
            for x, y in zip(omegas, weights)
        )
        assert points == expect


class TestPipeline:
    def test_minimal_one_electron_run(self, tmp_path):
        config = RunConfig.from_dict(
            {
                "system": {"points": 16, "electrons": 1},
                "oracle": {"enabled": False},
                "quasiparticle": {"enabled": False},
                "dyson": {"enabled": False},
                "spectrum": {"enabled": False},
            }
        )
        report = run_pipeline(config, tmp_path / "out")
        assert not report["degraded"]
        # a section with enabled: false disables its stage; bands has no switch
        assert {name: r["status"] for name, r in report["stages"].items()} == {
            name: "completed" if name == "bands" else "disabled" for name in STAGES
        }
        bands = report["stages"]["bands"]
        assert bands["status"] == "completed"
        assert bands["metrics"]["self_action_residual"] <= 1e-12
        assert (tmp_path / "out" / "bands.csv").exists()

    def test_full_run_matches_direct_module_calls(self, tmp_path):
        config = RunConfig.from_dict(CRYSTAL_CONFIG)
        report = run_pipeline(config, tmp_path / "out")
        assert not report["degraded"]
        for stage in ("oracle", "bands", "quasiparticle", "dyson", "spectrum"):
            assert report["stages"][stage]["status"] == "completed"

        # bands.csv against a direct band_structure invocation
        system = build_system(config)
        bands = band_structure(system)
        rows = [
            line.split(",")
            for line in (tmp_path / "out" / "bands.csv").read_text().splitlines()
            if not line.startswith("#") and not line.startswith("k,")
        ]
        from_csv = {
            (float(r[0]), int(r[1])): float(r[2]) for r in rows
        }
        for n in range(bands.n_bands):
            for i, k in enumerate(bands.kgrid):
                assert from_csv[(float(k), n)] == bands.bands[n, i]

        qp = json.loads((tmp_path / "out" / "quasiparticle.json").read_text())
        assert qp["regime"] == "heavy"
        assert qp["pair_energy"] == pytest.approx(-0.75, abs=1e-10)
        dyson = json.loads((tmp_path / "out" / "dyson.json").read_text())
        assert dyson["dyson_residual"] <= 1e-10
        oracle = json.loads((tmp_path / "out" / "oracle.json").read_text())
        for record in oracle["reduced_density_matrices"]:
            assert record["trace"] == pytest.approx(2.0, rel=1e-10)
            assert record["system_hash"] == oracle["system_hash"]

    def test_stage_tables_match_the_per_row_loops(self, tmp_path):
        # bands.csv and spectrum.csv against the per-row loops their columns replace
        config = RunConfig.from_dict(CRYSTAL_CONFIG)
        run_pipeline(config, tmp_path / "out")
        bands = band_structure(build_system(config))
        expect = [
            f"{format_float(k)},{n},{format_float(bands.bands[n, i])},{bands.occupations[n]}"
            for n in range(bands.n_bands)
            for i, k in enumerate(bands.kgrid)
        ]
        assert (tmp_path / "out" / "bands.csv").read_text().splitlines()[3:] == expect
        sp = config["spectrum"]
        expect = []
        for n in sp["n_values"]:
            for k in sp["k_values"]:
                e1 = boson_energy(BosonSpectrumParams(sp["mass"], sp["gamma"], n, k))
                cells = [sp["gamma"], sp["mass"], e1, 2.0 * e1]
                expect.append(",".join([str(n), str(k)] + [format_float(c) for c in cells]))
        assert (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[3:] == expect

    def test_stage_failure_degrades_but_keeps_outputs(self, tmp_path):
        raw = dict(CRYSTAL_CONFIG)
        raw["scf"] = {"max_iter": 1, "tol": 1e-15}
        config = RunConfig.from_dict(raw)
        report = run_pipeline(config, tmp_path / "out")
        assert report["degraded"]
        assert report["stages"]["bands"]["status"] == "completed"
        assert report["stages"]["quasiparticle"]["status"] == "failed"
        assert (tmp_path / "out" / "bands.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()

    def test_outputs_embed_config_hash(self, tmp_path):
        config = RunConfig.from_dict(CRYSTAL_CONFIG)
        run_pipeline(config, tmp_path / "out")
        chash = config.hash()
        for name in ("bands.csv", "spectral.csv", "spectrum.csv"):
            assert f"config_hash={chash}" in (tmp_path / "out" / name).read_text()
        for name in ("report.json", "oracle.json", "quasiparticle.json"):
            payload = json.loads((tmp_path / "out" / name).read_text())
            assert payload["config_hash"] == chash


class TestCli:
    def _write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_run_exits_zero(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, CRYSTAL_CONFIG)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["status"] == "ok"

    def test_unknown_key_rejected_before_computation(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, {"system": {"bogus": 1}})
        out_dir = tmp_path / "out"
        code = main(["run", "--config", cfg, "--out", str(out_dir)])
        assert code == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ConfigError"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "text,field",
        [
            ('{"self_energy": {"kind": "cosine", "scale": NaN}}', "self_energy.scale"),
            ('{"system": {"spacing": NaN}}', "system.spacing"),
            ('{"system": {"well_depth": Infinity}}', "system.well_depth"),
            ('{"dyson": {"eta": Infinity}}', "dyson.eta"),
            ('{"quasiparticle": {"offset_constant": -Infinity}}', "quasiparticle.offset_constant"),
        ],
    )
    def test_non_finite_number_rejected_before_computation(self, tmp_path, capsys, text, field):
        # json reads the NaN and Infinity literals as floats
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        with pytest.raises(ConfigError, match=f"{field}: expected a finite number"):
            RunConfig.from_file(cfg)
        out_dir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 2
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ConfigError" and field in error["message"]
        assert not out_dir.exists()

    def test_stage_subcommand_runs_dependencies_only(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, CRYSTAL_CONFIG)
        expected = {
            "oracle": {"oracle"},
            "bands": {"bands"},
            "quasiparticle": {"bands", "quasiparticle"},
            "dyson": {"bands", "dyson"},
            "spectrum": {"spectrum"},
        }
        for command, completed in expected.items():
            out_dir = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out_dir)]) == 0, command
            report = json.loads((out_dir / "report.json").read_text())
            status = {name: record["status"] for name, record in report["stages"].items()}
            assert status == {
                name: "completed" if name in completed else "disabled" for name in STAGES
            }, command
            names = {p.name for p in out_dir.iterdir()}
            assert ("bands.csv" in names) == ("bands" in completed), command
            assert ("spectrum.csv" in names) == ("spectrum" in completed), command

    def test_oracle_subcommand_exports_keyed_record(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, CRYSTAL_CONFIG)
        code = main(["oracle", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        oracle = json.loads((tmp_path / "out" / "oracle.json").read_text())
        system_record = json.loads((tmp_path / "out" / "system.json").read_text())
        assert oracle["energy"] < 0
        assert oracle["system_hash"]
        assert system_record["n_electrons"] == 2
        # two electrons in 6 orbitals: the Sz = 0 sector holds 6 * 6 determinants
        assert oracle["sz"] == 0.0
        assert oracle["determinants"] == 36

    def test_degraded_run_exits_nonzero_with_error_record(self, tmp_path, capsys):
        payload = dict(CRYSTAL_CONFIG)
        payload["scf"] = {"max_iter": 1, "tol": 1e-15}
        cfg = self._write_config(tmp_path, payload)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 3
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "StageFailure"

    def test_scf_overrides_apply(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, CRYSTAL_CONFIG)
        code = main(
            [
                "bands",
                "--config",
                cfg,
                "--out",
                str(tmp_path / "out"),
                "--k-count",
                "4",
            ]
        )
        assert code == 0
        lines = (tmp_path / "out" / "bands.csv").read_text().splitlines()
        kvals = {line.split(",")[0] for line in lines if line[0] not in "#k"}
        assert len(kvals) == 4

    def test_verify_prints_runtime_budget_outside_the_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(verification, "_CHECKS", (verification.check_energy_functional,))
        code = main(["verify", "--out", str(tmp_path)])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("PASS energy_functional_equivalence:")
        assert line.endswith("s of 30s budget]")
        report = (tmp_path / "verify_report.json").read_text()
        assert "budget" not in report
        assert "elapsed" not in report
