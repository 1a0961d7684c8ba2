import json

import pytest

from thztrack.cli import _COMMANDS, build_parser, main


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

    def test_slots_axis_rejects_non_integral_values(self, tmp_path):
        out = tmp_path / "slots.csv"
        args = ["sweep-nmse", "--seed", "5", "--trials", "1", "--users", "1",
                "--axis", "slots", "--out", str(out)]
        with pytest.raises(ValueError, match="--values"):
            main(args + ["--values", "2.5,4"])
        assert not out.exists()
        assert main(args + ["--values", "2.0,4"]) == 0
        _, rows = read_csv(out)
        assert [r["value"] for r in rows] == ["2", "4"]

    @pytest.mark.parametrize("values", ["1,abc", "1,,2", "1,nan", "inf"])
    def test_values_must_be_finite_numbers(self, tmp_path, values):
        out = tmp_path / "snr.csv"
        args = ["sweep-nmse", "--seed", "5", "--trials", "1", "--users", "1",
                "--out", str(out), "--values", values]
        with pytest.raises(ValueError, match="--values"):
            main(args)
        assert not out.exists()


def _subparsers(parser):
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


# one representative argument list per command
_ARGV = {
    "beam-pattern": ["beam-pattern", "--theta0", "0.7", "--grid-step", "1e-3", "--peaks-only", "--out", "p.csv"],
    "bounds": ["bounds", "--n-bs", "64", "--n-ttd", "8", "--p", "8", "--theta-min", "-0.5", "--out", "b.csv"],
    "codebook": ["codebook", "--m-half", "32", "--out", "c.csv"],
    "track": ["track", "--seed", "3", "--theta-r", "0.41", "--snr", "15", "--compensation", "--slots", "2"],
    "sweep-nmse": ["sweep-nmse", "--seed", "1", "--snr-db", "0,10", "--slots-list", "2,4", "--out", "n.csv"],
    "sweep-gain": ["sweep-gain", "--seed", "1", "--axis", "theta", "--values", "0.3,-0.3", "--no-compensation",
                   "--out", "g.csv", "--full", "g.json"],
    "validate": ["validate"],
}


class TestParser:
    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert len(_COMMANDS) == 7
        for name, (help_text, _, _) in _COMMANDS.items():
            assert name in out and help_text in out

    @pytest.mark.parametrize("command", sorted(_ARGV))
    def test_command_help_lists_its_options(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: thztrack {command}")
        full = _subparsers(build_parser())[command]
        options = [opt for action in full._actions for opt in action.option_strings]
        assert len(options) > 1 or command == "validate"
        for option in options:
            assert option in out

    @pytest.mark.parametrize("command", sorted(_ARGV))
    def test_lazy_parser_matches_full_parser(self, command):
        argv = _ARGV[command]
        assert list(_subparsers(build_parser(command))) == [command]
        assert build_parser(command).parse_args(argv) == build_parser().parse_args(argv)

    def test_lazy_usage_error_matches_full_parser(self, capsys):
        argv = ["track", "--seed", "1", "--bogus"]
        errors = []
        for parser in (build_parser("track"), build_parser()):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
            errors.append(capsys.readouterr().err)
        assert "unrecognized arguments: --bogus" in errors[0]
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("argv", [[], ["trak"], ["--seed", "1"]])
    def test_missing_or_unknown_command_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: thztrack [-h]")
        assert all(name in err for name in _COMMANDS)


class TestFiniteOptions:
    @pytest.mark.parametrize(
        "argv, flag",
        [(["track", "--seed", "1"], flag) for flag in ("--theta-r", "--theta0", "--alpha", "--snr")]
        + [(["beam-pattern", "--out", "x.csv"], flag)
           for flag in ("--theta0", "--alpha", "--psi", "--t", "--grid-step")]
        + [(["bounds", "--out", "x.csv"], flag) for flag in ("--theta-min", "--theta-max")],
    )
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "abc"])
    def test_non_finite_value_rejected_naming_the_flag(self, tmp_path, monkeypatch, capsys, argv, flag, value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"argument {flag}: must be a finite number, got '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv, flag, value, error",
        [(["beam-pattern", "--out", "x.csv"], "--grid-step", v, "must be positive") for v in ("0", "-0.1")]
        + [(["bounds", "--out", "x.csv"], "--points", v, "must be an integer >= 1") for v in ("0", "-3", "2.5")],
    )
    def test_nonpositive_step_or_count_rejected_naming_the_flag(
        self, tmp_path, monkeypatch, capsys, argv, flag, value, error
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"argument {flag}: {error}, got '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


def test_validate_passes_every_check(capsys):
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("[PASS] ") for line in lines) == 9
    assert not any(line.startswith("[FAIL]") for line in lines)
