import collections
import json
import pkgutil
import re
import shlex
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import thztrack
from thztrack import cli, harness
from thztrack.cli import _COMMANDS, build_parser, main
from thztrack.harness import CONFIG_PARSERS, ScenarioConfig, draw_frame, run_trial, scenario_from_file
from thztrack.physmodel import SystemConfig, default_config
from thztrack.tracker import plan_tracking

README = Path(__file__).resolve().parents[1] / "README.md"


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
        # with both slopes given no interval is paired, so --theta0 is not read
        assert main(["beam-pattern", "--psi", "0.3", "--t", "0.3", "--theta0", "3", "--grid-step", "0.5", "--out", str(out)]) == 0

    def test_paired_interval_may_reach_the_unit_range_edge(self, tmp_path):
        out = tmp_path / "edge.csv"
        assert main(["beam-pattern", "--theta0", "0.95", "--alpha", "0.05", "--grid-step", "0.5", "--out", str(out)]) == 0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize(
        "theta0, alpha, accepted",
        [
            (0.6, 0.05, True),  # inside
            (1.0, 1e-12, True),  # on the 1e-12 slack
            (1.0000000000005, 5e-13, True),  # a centre past 1 within the slack
            (1.0, 1.5e-12, False),  # just past it
            (0.95, 0.05 + 2e-12, False),
        ],
    )
    def test_accepts_the_intervals_plan_tracking_accepts(self, tmp_path, capsys, sign, theta0, alpha, accepted):
        # one interval rule: the command's verdict and message are plan_tracking's
        theta0 *= sign
        argv = ["beam-pattern", f"--theta0={theta0!r}", f"--alpha={alpha!r}", "--grid-step", "0.5",
                "--out", str(tmp_path / "p.csv")]
        if accepted:
            plan_tracking(theta0, alpha, 1, default_config())
            assert main(argv) == 0
            return
        with pytest.raises(ValueError) as planned:
            plan_tracking(theta0, alpha, 1, default_config())
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: arguments --theta0/--alpha: {planned.value}\n")


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
        assert "np." not in out.read_text()


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
        [
            # f_d is derived from bandwidth and m_half, so a file that sets it names an unknown key
            pytest.param(
                "m_half = 32\nf_d = 78125000.0\n", r"unknown config keys: \['f_d'\]",
                id="m_half = 32\nf_d = 78125000.0\n-f_d",
            ),
            ("n_bss = 64\n", "unknown config keys"),
        ],
    )
    def test_bad_config_file_rejected(self, tmp_path, capsys, command, text, match):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text)
        args = [command, "--config", str(cfgfile), "--out", str(tmp_path / "x.csv")]
        if command == "sweep-nmse":
            args += ["--seed", "1"]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert re.search(match, capsys.readouterr().err)


class TestTrack:
    @pytest.mark.parametrize(
        "flag, value",
        [("--users", "3"), ("--trials", "3"), ("--alpha", "0.1"), ("--theta-r", "0.3"),
         ("--values", "0.3"), ("--mobility", "uniform"), ("--snr", "10"), ("--slots-list", "2"),
         ("--zeta", "0.1")],
    )
    def test_flags_track_does_not_read_are_usage_errors(self, capsys, flag, value):
        # the frame counts, removed spellings of frame keys and prefixes of key flags
        with pytest.raises(SystemExit) as exc:
            main(["track", "--seed", "1", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: thztrack track [-h]")
        assert f"thztrack track: error: unrecognized arguments: {flag} {value}" in err

    def test_track_run_with_outputs(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        dump = tmp_path / "y.csv"
        rc = main(
            ["track", "--seed", "3", "--theta-grid", "0.41", "--theta0", "0.4",
             "--zeta-max", "0.1", "--slots", "2", "--snr-db", "15",
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

    def test_list_entries_left_out_are_named(self, tmp_path, monkeypatch, capsys):
        # track runs one frame, which reads the first entry of each list key
        assert main(["track", "--seed", "1", "--snr-db", "0,10", "--slots", "2,8"]) == 0
        listed = capsys.readouterr()
        assert listed.err.splitlines() == [
            "track: snr_db lists 2 entries; ran only snr_db = 0.0",
            "track: slots lists 2 entries; ran only slots = 2",
        ]
        assert main(["track", "--seed", "1", "--snr-db", "0", "--slots", "2"]) == 0
        single = capsys.readouterr()
        assert single.err == "" and single.out == listed.out
        # a file's lists alike
        monkeypatch.chdir(tmp_path)
        Path("track.cfg").write_text("snr_db = [10]\nslots = [4]\ntheta_grid = [0.3, -0.3, 0.5]\n")
        assert main(["track", "--config", "track.cfg", "--seed", "1"]) == 0
        assert capsys.readouterr().err == "track: theta_grid lists 3 entries; ran only theta_grid = 0.3\n"


class TestTrackIsFrameZero:
    """``track`` prints frame (trial 0, user 0) of its scenario, as the sweeps run it."""

    @pytest.mark.parametrize("theta_r", [None, 0.41])
    @pytest.mark.parametrize(
        "extra, keys",
        [([], {}), (["--codebook"], {"codebook": True}), (["--compensation"], {"compensation": True}),
         (["--config", "track.cfg"], {"scheme": "forward_only", "gain_sigma": 0.3}),
         (["--scheme", "exhaustive_sweep", "--gain-sigma", "0.2"], {"scheme": "exhaustive_sweep", "gain_sigma": 0.2})],
    )
    def test_printed_numbers_match_run_trial(self, tmp_path, monkeypatch, capsys, theta_r, extra, keys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "track.cfg").write_text("scheme = forward_only\ngain_sigma = 0.3\n")
        argv = ["track", "--seed", "3", "--snr-db", "15", "--slots", "2"] + extra
        if theta_r is not None:
            argv += ["--theta-grid", str(theta_r)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        scn = ScenarioConfig(seed=3, snr_db=(15.0,), slots=(2,), theta_grid=() if theta_r is None else (theta_r,), **keys)
        rec = run_trial(scn, [draw_frame(scn, 0, 0)])[0]
        assert f"tracking theta_r={rec.theta_r:.6f} " in out
        assert f"coarse estimate {rec.theta_hat:+.6f} " in out
        if scn.compensation:
            assert f"refined estimate {rec.theta_refined:+.6f} " in out
        else:
            assert "refined estimate" not in out
        assert f"beamforming gain at estimate: {rec.gain:.4f}\n" in out

    def test_off_axis_theta_grid_pins_every_frame(self, tmp_path, monkeypatch, capsys):
        # theta_grid is off the axis of an SNR sweep, and each frame still reads its first entry
        monkeypatch.chdir(tmp_path)
        Path("scenario.cfg").write_text(
            "theta_grid = [0.3]\nsnr_db = [10, 20]\nslots = [4]\ntrials = 2\nusers = 2\ncompensation = true\n"
        )
        assert main(["sweep-nmse", "--config", "scenario.cfg", "--seed", "5", "--out", "o.csv", "--full", "o.json"]) == 0
        records = json.loads(Path("o.json").read_text())["records"]
        assert [r["theta_r"] for recs in records.values() for r in recs] == [0.3] * 8
        capsys.readouterr()
        assert main(["track", "--config", "scenario.cfg", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        rec = records["10.0"][0]
        assert f"tracking theta_r={rec['theta_r']:.6f} " in out
        assert f"coarse estimate {rec['theta_hat']:+.6f} " in out
        assert f"refined estimate {rec['theta_refined']:+.6f} " in out
        assert f"beamforming gain at estimate: {rec['gain']:.4f}\n" in out

    def test_degenerate_refinement_keeps_the_coarse_estimate(self, tmp_path, capsys, monkeypatch):
        real_refine = harness.refine

        def refine_on_dead_geometry(obs, theta_init, **kwargs):
            # every slot steers its beam null onto the start angle, so all slot responses vanish there
            slots = obs.plan.slots
            null = replace(obs.plan, psi=np.full(slots, theta_init - 2.0 / obs.plan.cfg.n_bs),
                           t_aux=np.full(slots, theta_init))
            return real_refine(replace(obs, plan=null), theta_init, **kwargs)

        monkeypatch.setattr(harness, "refine", refine_on_dead_geometry)
        trace = tmp_path / "trace.csv"
        assert main(["track", "--seed", "3", "--snr-db", "10", "--compensation", "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "refinement degenerate (every slot response vanished): kept the coarse estimate" in out
        assert "refined estimate" not in out and not trace.exists()

    def test_a_failing_refinement_is_not_a_usage_error(self, monkeypatch):
        def broken_refine(obs, theta_init, **kwargs):
            raise ValueError("broken refinement")

        monkeypatch.setattr(harness, "refine", broken_refine)
        with pytest.raises(ValueError, match="broken refinement"):
            main(["track", "--seed", "3", "--compensation"])


# the rules of the list keys and of the real-valued options, as their messages state them
_SNR = "a non-empty list of distinct numbers (finite in files and flags)"
_SLOTS = "a non-empty list of distinct entries, each an integer in [1, 2**53]"
_THETA = "a list of distinct numbers in [-0.99, 0.99]"
_OPTION_RULES = {
    "--theta-grid": _THETA, "--zeta-max": "a number in (0, 1)", "--snr-db": _SNR,
    "--alpha": "a finite number > 0", "--grid-step": "a finite number > 0",
    "--theta-min": "a number in [-1, 1]", "--theta-max": "a number in [-1, 1]",
}


class TestSweeps:
    def test_sweep_nmse_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep-nmse", "--seed", "5", "--trials", "3", "--users", "1",
                "--axis", "snr", "--snr-db", "0,10"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_gain_theta_axis_with_full_json(self, tmp_path):
        out = tmp_path / "gain.csv"
        full = tmp_path / "gain.json"
        rc = main(
            ["sweep-gain", "--seed", "5", "--trials", "2", "--users", "1",
             "--theta-grid", "0.3,-0.3", "--out", str(out), "--full", str(full)]
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
             "--snr-db", "5,15", "--slots", "3", "--scheme", "forward_only",
             "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_csv(out)
        assert [r["value"] for r in rows] == ["5.0", "15.0"]
        assert all(r["scheme"] == "forward_only" for r in rows)

    def test_slots_axis_rejects_non_integral_values(self, tmp_path, capsys):
        out = tmp_path / "slots.csv"
        args = ["sweep-nmse", "--seed", "5", "--trials", "1", "--users", "1",
                "--axis", "slots", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--slots", "2.5,4"])
        assert exc.value.code == 2
        assert f"argument --slots: must be {_SLOTS}, got '2.5,4'" in capsys.readouterr().err
        assert not out.exists()
        assert main(args + ["--slots", "2.0,4"]) == 0
        _, rows = read_csv(out)
        assert [r["value"] for r in rows] == ["2", "4"]

    def test_mobility_is_no_longer_a_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "scenario.cfg"
        cfgfile.write_text("mobility = uniform\n")
        args = ["sweep-nmse", "--seed", "1", "--out", str(tmp_path / "x.csv")]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--config", str(cfgfile)])
        assert exc.value.code == 2
        assert "unknown config keys: ['mobility']" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(args + ["--mobility", "uniform"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("values", ["1,abc", "1,,2", "1,nan", "inf"])
    def test_values_must_be_finite_numbers(self, tmp_path, capsys, values):
        out = tmp_path / "snr.csv"
        args = ["sweep-nmse", "--seed", "5", "--trials", "1", "--users", "1",
                "--out", str(out), "--snr-db", values]
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert f"argument --snr-db: must be {_SNR}, got '{values}'" in capsys.readouterr().err
        assert not out.exists()


def _subparsers(parser):
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


# one representative argument list per command
_ARGV = {
    "beam-pattern": ["beam-pattern", "--theta0", "0.7", "--grid-step", "1e-3", "--peaks-only", "--out", "p.csv"],
    "bounds": ["bounds", "--n-bs", "64", "--n-ttd", "8", "--p", "8", "--theta-min", "-0.5", "--out", "b.csv"],
    "codebook": ["codebook", "--m-half", "32", "--out", "c.csv"],
    "track": ["track", "--seed", "3", "--theta-grid", "0.41", "--snr-db", "15", "--compensation", "--slots", "2"],
    "sweep-nmse": ["sweep-nmse", "--seed", "1", "--snr-db", "0,10", "--slots", "2,4", "--out", "n.csv"],
    "sweep-gain": ["sweep-gain", "--seed", "1", "--axis", "theta", "--theta-grid", "0.3,-0.3", "--no-compensation",
                   "--out", "g.csv", "--full", "g.json"],
    "validate": ["validate"],
}


class TestRandomnessKeying:
    def test_every_fresh_generator_is_seeded_with_seed_trial_user(self, tmp_path, monkeypatch, capsys):
        # a run's randomness is keyed by (seed, trial, user) only: every generator
        # a command makes from a seed, rather than takes, is seeded with [seed, trial, user]
        make = np.random.default_rng
        seeds = []

        def spy(seed=None):
            if not isinstance(seed, np.random.Generator):
                seeds.append(seed)
            return make(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        scenario = ["--seed", "7", "--snr-db", "0,10", "--slots", "2", "--compensation"]
        assert main(["sweep-nmse", *scenario, "--trials", "2", "--users", "2", "--out", str(tmp_path / "s.csv")]) == 0
        assert main(["track", *scenario]) == 0
        capsys.readouterr()
        assert all(isinstance(seed, list) and len(seed) == 3 and seed[0] == 7 for seed in seeds), seeds
        assert sorted(map(tuple, seeds)) == [(7, 0, 0), (7, 0, 0), (7, 0, 1), (7, 1, 0), (7, 1, 1)]


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
        lazy, full = (vars(parser.parse_args(argv)) for parser in (build_parser(command), build_parser()))
        # each namespace carries the subparser that parsed it, built once per parser
        assert lazy.pop("subparser").format_usage() == full.pop("subparser").format_usage()
        assert lazy == full

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


class _Parsed(Exception):
    pass


def _main_namespace(monkeypatch, argv):
    """The Namespace that ``main(argv)`` parses, taken before its scenario is built or its command runs."""

    def stop(parser, args):
        raise _Parsed(args)

    with monkeypatch.context() as patch, pytest.raises(_Parsed) as exc:
        patch.setattr(cli, "_scenario", stop)
        main(argv)
    return exc.value.args[0]


class TestParserReuse:
    """``main`` builds each command's parser once per process, and no call can tell."""

    def test_repeated_sweeps_write_identical_bytes(self, tmp_path):
        out, full = tmp_path / "g.csv", tmp_path / "g.json"
        argv = ["sweep-gain", "--seed", "4", "--trials", "2", "--users", "2", "--theta-grid", "0.3,-0.5",
                "--compensation", "--out", str(out), "--full", str(full)]
        assert main(argv) == 0
        first = out.read_bytes(), full.read_bytes()
        # a usage error and a help screen in between leave the parser as it was
        for between, code in ((argv + ["--snr-db", "nan"], 2), (["sweep-gain", "-h"], 0)):
            with pytest.raises(SystemExit) as exc:
                main(between)
            assert exc.value.code == code
        out.unlink()
        full.unlink()
        assert main(argv) == 0
        assert (out.read_bytes(), full.read_bytes()) == first

    @pytest.mark.parametrize("command", sorted(_ARGV))
    def test_main_parses_as_a_fresh_parser(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        argv = _ARGV[command]
        fresh = vars(build_parser().parse_args(argv))
        for _ in range(2):  # the first call may build the parser, the second reuses it
            parsed = vars(_main_namespace(monkeypatch, argv))
            assert parsed.pop("subparser").format_usage() == fresh["subparser"].format_usage()
            assert parsed == {key: value for key, value in fresh.items() if key != "subparser"}

    def test_one_parser_build_per_command(self, tmp_path, monkeypatch):
        builds = []
        real = cli.build_parser

        def counting(command=None):
            builds.append(command)
            return real(command)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                for argv in _ARGV.values():
                    _main_namespace(monkeypatch, argv)
                for argv in (["-h"], ["trak"]):
                    with pytest.raises(SystemExit):
                        main(argv)
        finally:
            cli._parser.cache_clear()
        # one build per command, and one full parser for every argv that names none
        assert collections.Counter(builds) == collections.Counter([*_ARGV, None])


class TestOutputPaths:
    """A bad output path is a usage error that names its flag, before any work and with no file written."""

    _TRACK = ["track", "--seed", "3", "--theta-grid", "0.41", "--slots", "2", "--compensation"]
    _SWEEP = ["sweep-gain", "--seed", "1", "--trials", "1", "--users", "1", "--theta-grid", "0.3"]

    @pytest.mark.parametrize(
        "argv, flag",
        [(["beam-pattern", "--grid-step", "0.1"], "--out"), (["bounds"], "--out"), (["codebook"], "--out"),
         (["sweep-nmse", "--seed", "1", "--trials", "1", "--users", "1"], "--out"),
         (_SWEEP, "--out"), (_SWEEP + ["--out", "g.csv"], "--full"),
         (_TRACK, "--trace"), (_TRACK, "--dump-y")],
    )
    @pytest.mark.parametrize("bad", ["missing/x.csv", "afile/x.csv", "adir"])
    def test_bad_output_path_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, flag, bad):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        (tmp_path / "adir").mkdir()
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, bad])
        assert exc.value.code == 2
        message = "'adir' is a directory" if bad == "adir" else f"'{bad.split('/')[0]}' is not an existing directory"
        assert f"thztrack {argv[0]}: error: argument {flag}: {message}\n" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]
        assert not any((tmp_path / "adir").iterdir())

    @pytest.mark.parametrize(
        "argv, flags, name",
        [(_SWEEP + ["--out", "x.csv", "--full", "x.csv"], "--out/--full", "x.csv"),
         (_SWEEP + ["--out", "sub/../x.csv", "--full", "./x.csv"], "--out/--full", "x.csv"),
         (_TRACK + ["--trace", "t.csv", "--dump-y", "t.csv"], "--trace/--dump-y", "t.csv"),
         (_SWEEP + ["--config", "s.cfg", "--out", "s.cfg"], "--config/--out", "s.cfg"),
         (["codebook", "--out", "s.cfg", "--config", "s.cfg"], "--config/--out", "s.cfg")],
    )
    def test_two_flags_naming_one_file_are_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, flags, name):
        # a sweep whose --out and --full named one file used to leave the JSON in place of the CSV
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        (tmp_path / "s.cfg").write_text("users = 1\n")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"thztrack {argv[0]}: error: arguments {flags}: both name the file '{name}'\n" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.cfg", "sub"]
        assert (tmp_path / "s.cfg").read_text() == "users = 1\n"

    def test_existing_directories_are_accepted(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert main(self._SWEEP + ["--out", "sub/g.csv", "--full", str(tmp_path / "g.json")]) == 0
        assert main(self._TRACK + ["--trace", "sub/t.csv", "--dump-y", "./y.csv"]) == 0
        assert {"sub/g.csv", "g.json", "sub/t.csv", "y.csv"} <= {str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")}


class TestFiniteOptions:
    @pytest.mark.parametrize(
        "argv, flag",
        [(["track", "--seed", "1"], flag) for flag in ("--theta-grid", "--theta0", "--zeta-max", "--snr-db")]
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
        # an option that takes any finite value states the rule "a finite number"
        rule = _OPTION_RULES.get(flag, "a finite number")
        assert f"argument {flag}: must be {rule}, got '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv, flag, value, error",
        [(["beam-pattern", "--out", "x.csv"], "--grid-step", v, "must be a finite number > 0") for v in ("0", "-0.1")]
        + [(["bounds", "--out", "x.csv"], "--points", v, "must be an integer >= 1") for v in ("0", "-3", "2.5")]
        + [(["beam-pattern", "--out", "x.csv"], "--alpha", v, "must be a finite number > 0") for v in ("0", "-0.1")],
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

    @pytest.mark.parametrize("flag", ["--theta-min", "--theta-max"])
    @pytest.mark.parametrize("value", ["3", "5", "-1.5", "1.0001"])
    def test_direction_outside_unit_range_rejected_naming_the_flag(self, tmp_path, monkeypatch, capsys, flag, value):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--points", "3", "--out", "x.csv", f"{flag}={value}"])
        assert exc.value.code == 2
        assert f"argument {flag}: must be a number in [-1, 1], got '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestBadScenario:
    """A config value outside its key's domain, or one that breaks a cross-key or option rule, exits 2 with the rule's
    message, writing nothing."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep-nmse", "--seed", "1", "--zeta-max", "1.5", "--out", "x.csv"],
             "argument --zeta-max: must be a number in (0, 1), got '1.5'"),
            (["sweep-nmse", "--seed", "1", "--users", "0", "--out", "x.csv"],
             "argument --users: must be an integer in [1, 2**53], got '0'"),
            (["sweep-nmse", "--seed", "1", "--n-bs", "100", "--out", "x.csv"], "n_ttd*p = 256 != n_bs = 100"),
            (["sweep-gain", "--seed", "1", "--theta-grid", "0.3,1.5", "--out", "x.csv"],
             f"argument --theta-grid: must be {_THETA}, got '0.3,1.5'"),
            (["track", "--seed", "3", "--theta-grid", "0.3,1.5"], f"argument --theta-grid: must be {_THETA}, got '0.3,1.5'"),
            (["sweep-gain", "--seed", "1", "--out", "x.csv"], "a theta sweep needs --theta-grid or a file's theta_grid"),
            (["sweep-nmse", "--seed", "1", "--config", "nope.cfg", "--out", "x.csv"],
             "argument --config: No such file or directory: 'nope.cfg'"),
            (["sweep-nmse", "--seed", "1", "--trials", "1", "--users", "1", "--snr-db=-4000", "--out", "x.csv"],
             "snr_db entry -4000.0 gives a pilot noise that is not finite and positive"),
            (["sweep-nmse", "--seed", "1", "--trials", "1", "--users", "1", "--snr-db", "1e300", "--out", "x.csv"],
             "snr_db entry 1e+300 gives a pilot noise that is not finite and positive"),
            (["track", "--seed", "3", "--snr-db=-4000"],
             "snr_db entry -4000.0 gives a pilot noise that is not finite and positive"),
            (["track", "--seed", "3", "--snr-db", "1e300"],
             "snr_db entry 1e+300 gives a pilot noise that is not finite and positive"),
            (["track", "--seed", "3", "--theta-grid", "5"], f"argument --theta-grid: must be {_THETA}, got '5'"),
            (["track", "--seed", "3", "--zeta-max", "1.5"], "argument --zeta-max: must be a number in (0, 1), got '1.5'"),
            (["track", "--seed", "3", "--theta0", "0.95", "--zeta-max", "0.1"],
             "argument --theta0: must lie in [-0.9, 0.9], got 0.95"),
            (["track", "--seed", "3", "--theta0=-0.81"], "argument --theta0: must lie in [-0.8, 0.8], got -0.81"),
            (["track", "--seed", "3", "--config", "nope.cfg"], "argument --config: No such file or directory: 'nope.cfg'"),
            (["track", "--seed", "3", "--trace", "x.csv"],
             "argument --trace: traces the refinement, which needs --compensation"),
            (["track", "--seed", "3", "--no-compensation", "--trace", "x.csv"],
             "argument --trace: traces the refinement, which needs --compensation"),
            (["sweep-nmse", "--seed", "1", "--trials", "1", "--users", "1", "--axis", "slots", "--slots", "4,-2",
              "--out", "x.csv"], f"argument --slots: must be {_SLOTS}, got '4,-2'"),
            (["sweep-nmse", "--seed", "1", "--slots", "4,0", "--out", "x.csv"], f"argument --slots: must be {_SLOTS}, got '4,0'"),
            (["beam-pattern", "--theta0", "3", "--out", "x.csv"],
             "arguments --theta0/--alpha: the searched interval [2.95, 3.05] leaves [-1, 1]"),
            (["beam-pattern", "--theta0", "0.95", "--alpha", "0.5", "--out", "x.csv"],
             "arguments --theta0/--alpha: the searched interval [0.45, 1.45] leaves [-1, 1]"),
            (["beam-pattern", "--theta0=-0.9", "--alpha", "0.2", "--psi", "0.1", "--out", "x.csv"],
             "arguments --theta0/--alpha: the searched interval [-1.1, -0.7] leaves [-1, 1]"),
            (["beam-pattern", "--psi", "0.3", "--grid-step", "0.5", "--out", "x.csv"],
             "arguments --psi/--t: give both slopes or neither"),
            (["beam-pattern", "--t", "0.3", "--grid-step", "0.5", "--out", "x.csv"],
             "arguments --psi/--t: give both slopes or neither"),
            (["track", "--seed", "3", "--zeta-max=0"], "argument --zeta-max: must be a number in (0, 1), got '0'"),
            (["track", "--seed", "3", "--zeta-max=-0.1"], "argument --zeta-max: must be a number in (0, 1), got '-0.1'"),
            # a sweep keys its records by axis value, so no list key may repeat an entry
            (["sweep-nmse", "--seed", "1", "--snr-db", "10,10", "--out", "x.csv"],
             f"argument --snr-db: must be {_SNR}, got '10,10'"),
            (["sweep-nmse", "--seed", "1", "--axis", "slots", "--slots", "2,4,2", "--out", "x.csv"],
             f"argument --slots: must be {_SLOTS}, got '2,4,2'"),
            (["track", "--seed", "3", "--theta-grid", "0.3,0.3"], f"argument --theta-grid: must be {_THETA}, got '0.3,0.3'"),
        ],
    )
    def test_exits_2_with_the_message(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # the usage and the error line are the command's, as for a flag that does not parse
        assert err.startswith(f"usage: thztrack {argv[0]} [-h]")
        assert f"thztrack {argv[0]}: error: {message}" in err
        assert not (tmp_path / "x.csv").exists()


def test_validate_passes_every_check(capsys):
    assert main(["validate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("[PASS] ") for line in lines) == 9
    assert not any(line.startswith("[FAIL]") for line in lines)


# Every config key with a flag: (flag, a good value, a bad value), as command-line text.
_KEY_FLAGS = {
    "n_bs": ("--n-bs", "64", "64.5"),
    "n_ttd": ("--n-ttd", "8", "abc"),
    "p": ("--p", "8", "nan"),
    "f_c": ("--f-c", "1.2e11", "nan"),
    "bandwidth": ("--bandwidth", "5e9", "inf"),
    "m_half": ("--m-half", "16", "1e400"),
    "users": ("--users", "2", "1.7"),
    "snr_db": ("--snr-db", "0,10.5", "0,abc"),
    "slots": ("--slots", "2,4.0", "2,2.5"),
    "trials": ("--trials", "3", "true"),
    "zeta_max": ("--zeta-max", "0.1", "-inf"),
    "scheme": ("--scheme", "forward_only", "forward"),
    "gain_sigma": ("--gain-sigma", "0.5", "nan"),
    "theta_grid": ("--theta-grid", "-0.3,0.3", "0.3,"),
    "seed": ("--seed", "7", "1.5"),
}
# keys without a value-taking flag: the switches
_OTHER_KEYS = {"compensation", "codebook"}


# Every config key: a value outside its domain as code and a mapping pass it, and as its flag's text
# (None for the switches, which take no value).
_OUTSIDE = {
    "n_bs": (2**1100, "0"),
    "n_ttd": (0, "9007199254740993"),
    "p": (True, "2.5"),
    "f_c": (-1.0, "0"),
    "bandwidth": (float("nan"), "-1e9"),
    "m_half": (64.5, "1e300"),
    "users": (10**30, "0"),
    "snr_db": ((), "10,10"),
    "slots": ((4, 0), "4,-2"),
    "trials": (0, "1e18"),
    "zeta_max": (1.5, "1"),
    "scheme": ("forward", "sideways"),
    "compensation": ("maybe", None),
    "codebook": (None, None),
    "gain_sigma": (-1.0, "inf"),
    "theta_grid": ((0.3, 1.5), "0.3,0.3"),
    "seed": (-1, "2.5"),
}


class _Swept(Exception):
    pass


def _swept_scenario(monkeypatch, argv):
    """The scenario that ``sweep-nmse argv`` would sweep."""

    def stop(scn, axis):
        raise _Swept(scn)

    monkeypatch.setattr(cli, "sweep", stop)
    with pytest.raises(_Swept) as exc:
        main(["sweep-nmse", "--out", "x.csv"] + argv)
    return exc.value.args[0]


class TestOneParserPerKey:
    def test_every_key_is_covered(self):
        assert set(_KEY_FLAGS) | _OTHER_KEYS == set(CONFIG_PARSERS) == set(_OUTSIDE) == set(harness._CONFIG_DOMAIN)

    def test_flags_and_file_give_equal_scenarios(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = [f"{flag}={good}" for flag, good, _ in _KEY_FLAGS.values()]
        from_flags = _swept_scenario(monkeypatch, argv + ["--compensation", "--codebook"])
        cfgfile = tmp_path / "scenario.cfg"
        cfgfile.write_text(
            "".join(f"{key} = {good}\n" for key, (_, good, _) in _KEY_FLAGS.items())
            + "compensation = true\ncodebook = true\n"
        )
        assert from_flags == scenario_from_file(cfgfile)
        assert (from_flags.system.n_bs, from_flags.snr_db, from_flags.slots) == (64, (0.0, 10.5), (2, 4))
        # a flag overrides the file, and --no-compensation a file's compensation = true
        overridden = _swept_scenario(monkeypatch, ["--config", str(cfgfile), "--trials", "9", "--no-compensation", "--seed", "8"])
        assert (overridden.trials, overridden.compensation, overridden.seed, overridden.users) == (9, False, 8, 2)

    @pytest.mark.parametrize("key", sorted(_KEY_FLAGS))
    def test_bad_value_names_the_flag_or_the_key(self, tmp_path, monkeypatch, capsys, key):
        monkeypatch.chdir(tmp_path)
        flag, _, bad = _KEY_FLAGS[key]
        argv = ["sweep-nmse", "--out", "x.csv", f"{flag}={bad}"] + (["--seed", "1"] if key != "seed" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        rule = harness._CONFIG_DOMAIN[key][1]
        assert f"argument {flag}: must be {rule}, got '{bad}'" in capsys.readouterr().err
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"{key} = {bad}\n")
        message = f"{key} must be {rule}, got {harness.load_key_values(cfgfile)[key]!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            scenario_from_file(cfgfile)
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("key", list(_OUTSIDE))
    def test_every_key_states_its_rule_in_one_form(self, tmp_path, monkeypatch, capsys, key):
        # "<key> must be <rule>, got <value>" from the dataclass and the mapping, "argument --<flag>: must be <rule>,
        # got '<text>'" from the flag, with the rule of the key's one entry in the domain table
        rule = harness._CONFIG_DOMAIN[key][1]
        value, text = _OUTSIDE[key]
        message = f"^{re.escape(f'{key} must be {rule}, got {value!r}')}$"
        with pytest.raises(ValueError, match=message):
            if key in {f.name for f in fields(SystemConfig)}:
                replace(default_config(), **{key: value})
            else:
                ScenarioConfig(**{key: value})
        with pytest.raises(ValueError, match=message):
            harness.scenario_from_mapping({key: value})
        if text is not None:
            monkeypatch.chdir(tmp_path)
            flag = "--" + key.replace("_", "-")
            with pytest.raises(SystemExit) as exc:
                main(["sweep-nmse", "--out", "x.csv", f"{flag}={text}"] + (["--seed", "1"] if key != "seed" else []))
            assert exc.value.code == 2
            assert f"thztrack sweep-nmse: error: argument {flag}: must be {rule}, got {text!r}\n" in capsys.readouterr().err
            assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("key", ["snr_db", "slots"])
    def test_empty_axis_list_rejected(self, tmp_path, capsys, key):
        cfgfile = tmp_path / "empty.cfg"
        cfgfile.write_text(f"{key} = []\n")
        for argv in (["sweep-gain", "--theta-grid", "0.3", "--out", str(tmp_path / "x.csv")], ["track"]):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--config", str(cfgfile), "--seed", "1"])
            assert exc.value.code == 2
            assert f"{key} must be {harness._CONFIG_DOMAIN[key][1]}, got []" in capsys.readouterr().err


# a sweep of one frame, quick to run should a flag be taken where it must not
_ONE_FRAME_SWEEP = ["sweep-nmse", "--seed", "1", "--trials", "1", "--users", "1", "--snr-db", "10", "--out", "x.csv"]


class TestOneFlagPerKey:
    """Each config key has one spelling, ``--`` + the key with ``_`` as ``-``, on every command that takes it."""

    @pytest.mark.parametrize("command", sorted(_ARGV))
    def test_key_options_are_spelled_by_their_key(self, command):
        parser = _subparsers(build_parser())[command]
        spellings = {}
        for action in parser._actions:
            if action.dest in CONFIG_PARSERS:
                spellings.setdefault(action.dest, []).extend(action.option_strings)
        for key, options in spellings.items():
            flag = "--" + key.replace("_", "-")
            # --no-compensation is the one negation
            assert options == ([flag, "--no-compensation"] if key == "compensation" else [flag])
        # the key set of each command: the system keys, every key a frame reads, or every key
        system = {f.name for f in fields(SystemConfig)}
        expected = {
            "beam-pattern": system, "bounds": system, "codebook": system, "validate": set(),
            "track": set(CONFIG_PARSERS) - {"users", "trials"},
            "sweep-nmse": set(CONFIG_PARSERS), "sweep-gain": set(CONFIG_PARSERS),
        }[command]
        assert set(spellings) == expected

    @pytest.mark.parametrize(
        "argv, unknown",
        [(_ONE_FRAME_SWEEP + ["--snr", "10"], "--snr 10"),
         (_ONE_FRAME_SWEEP + ["--comp"], "--comp"),
         (_ONE_FRAME_SWEEP + ["--slots-list", "2"], "--slots-list 2"),
         (_ONE_FRAME_SWEEP + ["--values", "0"], "--values 0"),
         (["bounds", "--out", "x.csv", "--theta-m", "0.5"], "--theta-m 0.5"),
         (["codebook", "--out", "x.csv", "--m-h", "32"], "--m-h 32")],
    )
    def test_a_prefix_or_removed_spelling_is_unrecognized(self, tmp_path, monkeypatch, capsys, argv, unknown):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: thztrack {argv[0]} [-h]")
        assert f"thztrack {argv[0]}: error: unrecognized arguments: {unknown}\n" in err
        assert not (tmp_path / "x.csv").exists()


def _readme_block(heading, language):
    """The first fenced ``language`` block of the README section under ``## heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(f"```{language}\n(.*?)```", section, re.S).group(1)


class TestReadme:
    def test_config_example_parses(self, tmp_path):
        cfgfile = tmp_path / "readme.cfg"
        cfgfile.write_text(_readme_block("Configuration files", "ini"))
        scn = scenario_from_file(cfgfile)
        assert (scn.system.n_bs, scn.snr_db, scn.compensation, scn.theta_grid) == (
            256, (-10.0, 0.0, 10.0, 20.0), True, (-0.6, 0.6),
        )

    def test_cli_examples_parse_and_non_sweeps_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        block = _readme_block("CLI", "sh").replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("thztrack ")]
        assert {argv[0] for argv in commands} == set(_COMMANDS) - {"validate"}
        for argv in commands:
            build_parser().parse_args(argv)
            if not argv[0].startswith("sweep"):
                assert main(argv) == 0
        assert {p.name for p in tmp_path.iterdir()} >= {"pattern.csv", "bounds.csv", "codebook.csv", "trace.csv", "y.csv"}

    def test_configuration_section_states_each_rule_once(self):
        # one "| `key`, ... | `rule` |" row per rule, in the words of the domain table, covering every key once
        section = README.read_text().split("\n## Configuration files\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| (`\w+`(?:, `\w+`)*) \| `([^`]+)` \|$", section, re.M)
        keys = [key for listed, _ in rows for key in re.findall(r"`(\w+)`", listed)]
        assert sorted(keys) == sorted(harness._CONFIG_DOMAIN)
        assert {key: rule for listed, rule in rows for key in re.findall(r"`(\w+)`", listed)} == {
            key: rule for key, (_, rule) in harness._CONFIG_DOMAIN.items()
        }

    def test_overview_lists_each_module_once(self):
        # the overview, above "## Install and test", has one "- `module`: ..." line per module
        overview = README.read_text().split("\n## Install and test\n", 1)[0]
        listed = re.findall(r"^- `(\w+)`", overview, re.M)
        modules = sorted(m.name for m in pkgutil.iter_modules(thztrack.__path__))
        assert sorted(listed) == modules
        assert set(re.findall(r"thztrack\.(\w+)", overview)) <= set(modules)
