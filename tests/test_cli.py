import json

import pytest

from thztrack.cli import main


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestBeamPattern:
    def test_surface_csv(self, tmp_path):
        out = tmp_path / "pattern.csv"
        rc = main(
            [
                "beam-pattern",
                "--theta0", "0.6", "--alpha", "0.05",
                "--grid-step", "0.02",
                "--out", str(out),
            ]
        )
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["m", "f_m", "theta", "gain"]
        assert len(rows) == 129 * 101
        assert all(0.0 <= float(r["gain"]) <= 1.0 for r in rows[:500])

    def test_peaks_only(self, tmp_path):
        out = tmp_path / "peaks.csv"
        rc = main(
            ["beam-pattern", "--theta0", "0.6", "--alpha", "0.04",
             "--grid-step", "1e-3", "--peaks-only", "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 129

    def test_explicit_slopes(self, tmp_path):
        out = tmp_path / "explicit.csv"
        rc = main(
            ["beam-pattern", "--psi", "0.3", "--t", "0.3",
             "--grid-step", "0.05", "--out", str(out)]
        )
        assert rc == 0


class TestBounds:
    def test_bounds_table(self, tmp_path):
        out = tmp_path / "bounds.csv"
        rc = main(["bounds", "--theta-min", "0", "--theta-max", "1", "--points", "5", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header[0] == "theta0"
        assert len(rows) == 5
        # fixed radius column is constant 1/p
        assert all(float(r["fixed"]) == 0.0625 for r in rows)


class TestCodebookDump:
    def test_codebook_csv(self, tmp_path):
        out = tmp_path / "cb.csv"
        rc = main(["codebook", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["index", "psi_or_t", "value", "segment"]
        psi_rows = [r for r in rows if r["psi_or_t"] == "psi"]
        t_rows = [r for r in rows if r["psi_or_t"] == "t"]
        assert len(psi_rows) == 257
        assert {r["segment"] for r in t_rows} == {"outer-", "inner", "outer+"}

    def test_partial_system_flag_overlays_reference_setup(self, tmp_path):
        out = tmp_path / "cb32.csv"
        assert main(["codebook", "--m-half", "32", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        # 256 antennas still give 257 phase-slope codewords; t_max doubles to 2*f_c/(B*p)
        assert sum(r["psi_or_t"] == "psi" for r in rows) == 257
        assert float(rows[-1]["value"]) == pytest.approx(1.25)


class TestConfigChecks:
    @pytest.mark.parametrize("command", ["beam-pattern", "bounds", "codebook", "sweep-nmse"])
    @pytest.mark.parametrize(
        "text, match",
        [("m_half = 32\nf_d = 78125000.0\n", "f_d"), ("n_bss = 64\n", "unknown config keys")],
    )
    def test_bad_config_file_rejected(self, tmp_path, command, text, match):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        args = [command, "--config", str(cfgfile), "--out", str(tmp_path / "x.csv")]
        if command == "sweep-nmse":
            args += ["--seed", "1"]
        with pytest.raises(ValueError, match=match):
            main(args)


class TestTrack:
    def test_track_run_with_outputs(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        dump = tmp_path / "y.csv"
        rc = main(
            ["track", "--seed", "3", "--theta-r", "0.41", "--theta0", "0.4",
             "--alpha", "0.1", "--slots", "2", "--snr", "15",
             "--compensation", "--trace", str(trace), "--dump-y", str(dump)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "coarse estimate" in out
        assert "refined estimate" in out
        assert trace.exists() and dump.exists()
        header, dump_rows = read_csv(dump)
        assert len(dump_rows) == 2  # one row per slot
        assert len(header) == 1 + 129  # slot column plus one column per subcarrier


class TestSweeps:
    def test_sweep_nmse_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep-nmse", "--seed", "5", "--trials", "3", "--users", "1",
                "--axis", "snr", "--values", "0,10"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_gain_theta_axis_with_full_json(self, tmp_path):
        out = tmp_path / "gain.csv"
        full = tmp_path / "gain.json"
        rc = main(
            ["sweep-gain", "--seed", "5", "--trials", "2", "--users", "1",
             "--values", "0.3,-0.3", "--out", str(out), "--full", str(full)]
        )
        assert rc == 0
        payload = json.loads(full.read_text())
        assert set(payload["records"]) == {"0.3", "-0.3"}

    def test_seed_required(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep-nmse", "--out", str(tmp_path / "x.csv")])

    def test_config_file_drives_sweep(self, tmp_path):
        cfgfile = tmp_path / "scenario.cfg"
        cfgfile.write_text("trials = 2\nusers = 1\nseed = 4\nsnr_db = [0, 10]\n")
        out = tmp_path / "from_config.csv"
        rc = main(["sweep-nmse", "--config", str(cfgfile), "--seed", "4", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 2

    def test_flag_overrides_config_file(self, tmp_path):
        cfgfile = tmp_path / "scenario.cfg"
        cfgfile.write_text("trials = 2\nusers = 1\nseed = 4\nsnr_db = [0]\nslots = [2]\n")
        out = tmp_path / "overridden.csv"
        rc = main(
            ["sweep-nmse", "--config", str(cfgfile), "--seed", "4",
             "--snr-db", "5,15", "--slots-list", "3", "--scheme", "forward_only",
             "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_csv(out)
        assert [r["value"] for r in rows] == ["5.0", "15.0"]
        assert all(r["scheme"] == "forward_only" for r in rows)
