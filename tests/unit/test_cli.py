"""Unit tests for the command-line entry points."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.cli import _build_package, client_main, vendor_main, verify_main
from repro.client.package import InformationPackage
from repro.core.pipeline import Hydra
from repro.core.summary import DatabaseSummary


def _must_not_run(*_args, **_kwargs):
    raise AssertionError("the command started work before validating its arguments")


@pytest.fixture(scope="module")
def package_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "package.json"
    code = client_main(
        [
            "--dataset", "toy",
            "--queries", "4",
            "--seed", "3",
            "--output", str(path),
        ]
    )
    assert code == 0
    return path


class TestClient:
    def test_package_written(self, package_path):
        package = InformationPackage.load(package_path)
        assert package.query_count == 4
        assert set(package.metadata.schema.table_names) == {"R", "S", "T"}

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            client_main(["--dataset", "nope", "--output", str(tmp_path / "p.json")])

    def test_package_is_what_generate_wrote(self, package_path, tmp_path):
        """Without --anonymize the package is byte for byte what the former
        ``hydra generate`` wrote for the same flags: the built package, saved."""
        generated = tmp_path / "generated.json"
        _build_package("toy", 0.2, 3, 4).save(generated)
        assert package_path.read_bytes() == generated.read_bytes()

    def test_generate_is_no_longer_a_command(self, tmp_path, capsys):
        import repro.cli as cli

        with pytest.raises(SystemExit) as exited:
            cli.main(["generate", "--dataset", "toy", "--output", str(tmp_path / "p.json")])
        assert exited.value.code == 2
        assert "invalid choice: 'generate'" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

    def test_anonymized_package(self, tmp_path):
        path = tmp_path / "anon.json"
        code = client_main(
            ["--dataset", "toy", "--queries", "3", "--anonymize", "--output", str(path)]
        )
        assert code == 0
        package = InformationPackage.load(path)
        assert package.client_name == "anonymous"
        assert "R" not in package.metadata.schema.table_names


class TestVendorAndVerify:
    def test_vendor_builds_summary(self, package_path, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        code = vendor_main([str(package_path), "--output", str(summary_path)])
        assert code == 0
        summary = DatabaseSummary.load(summary_path)
        assert summary.row_count("R") > 0
        captured = capsys.readouterr()
        assert "relation" in captured.out

    def test_verify_reports_cdf(self, package_path, tmp_path, capsys):
        summary_path = tmp_path / "summary.json"
        vendor_main([str(package_path), "--output", str(summary_path)])
        code = verify_main(
            [str(package_path), str(summary_path), "--sample", "S"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "constraints satisfied" in captured.out
        assert "sample tuples of S" in captured.out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sample", "NOPE"], "relation 'NOPE'; the summary describes: R, S, T"),
            # Verification generates no tuple, so there is no stream to pace.
            (["--rows-per-second", "100"], "unrecognized arguments: --rows-per-second 100"),
            (["--shared-rate-limit"], "unrecognized arguments: --shared-rate-limit"),
        ],
        ids=["sample", "rows-per-second", "shared-rate-limit"],
    )
    def test_verify_rejects_values_it_cannot_honour_before_regenerating(
        self, flags, message, package_path, tmp_path, capsys, monkeypatch
    ):
        summary_path = tmp_path / "summary.json"
        vendor_main([str(package_path), "--output", str(summary_path)])
        monkeypatch.setattr(Hydra, "regenerate", _must_not_run)
        with pytest.raises(SystemExit) as raised:
            verify_main([str(package_path), str(summary_path), *flags])
        assert raised.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["vendor", "verify"])
    def test_workers_flag_is_gone_from_vendor_and_verify(
        self, command, package_path, tmp_path, capsys, monkeypatch
    ):
        """Worker processes are a Python caller's choice: no CLI flag asks for them."""
        monkeypatch.setattr(Hydra, "build_summary", _must_not_run)
        monkeypatch.setattr(Hydra, "regenerate", _must_not_run)
        main, arguments = {
            "vendor": (vendor_main, [str(package_path), "--materialize", "all"]),
            "verify": (verify_main, [str(package_path), str(tmp_path / "summary.json")]),
        }[command]
        with pytest.raises(SystemExit) as raised:
            main([*arguments, "--workers", "2"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["not json", '{"metadata": 5}'])
    def test_malformed_package_exits_with_a_message(self, text, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        for command in (["vendor", str(bad)], ["verify", str(bad), str(tmp_path / "s.json")]):
            finished = subprocess.run(
                [sys.executable, "-m", "repro.cli", *command],
                capture_output=True, text=True, cwd=tmp_path,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            )
            assert finished.returncode == 1, command
            assert finished.stderr.startswith("malformed information package at "), command
            assert "Traceback" not in finished.stderr, command

    def test_vendor_sampling_alignment(self, package_path, tmp_path):
        summary_path = tmp_path / "summary_sampling.json"
        code = vendor_main(
            [str(package_path), "--alignment", "sampling", "--output", str(summary_path)]
        )
        assert code == 0
        assert DatabaseSummary.load(summary_path).total_rows() > 0


class TestVendorExtend:
    @pytest.fixture()
    def split_packages(self, package_path, tmp_path):
        """The generated package split into a base package and a delta."""
        full = InformationPackage.load(package_path)
        base = InformationPackage(
            metadata=full.metadata, aqps=full.aqps[:-1], client_name=full.client_name
        )
        delta = base.make_delta(full.aqps[-1:])
        base_path = tmp_path / "base_package.json"
        delta_path = tmp_path / "delta_package.json"
        base.save(base_path)
        delta.save(delta_path)
        return base_path, delta_path

    def test_extend_from_resolves_delta(self, split_packages, tmp_path, capsys):
        base_path, delta_path = split_packages
        base_summary = tmp_path / "base_summary.json"
        assert vendor_main([str(base_path), "--output", str(base_summary)]) == 0
        assert DatabaseSummary.load(base_summary).extension_state is not None

        extended_summary = tmp_path / "extended_summary.json"
        code = vendor_main(
            [
                str(delta_path),
                "--extend-from", str(base_summary),
                "--output", str(extended_summary),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "incremental extend" in captured.out
        summary = DatabaseSummary.load(extended_summary)
        assert summary.version == 2
        assert summary.build_info["extended"] is True
        # The refreshed summary can extend again.
        assert summary.extension_state is not None

    def test_delta_package_requires_extend_from(self, split_packages, tmp_path):
        _base_path, delta_path = split_packages
        with pytest.raises(SystemExit, match="delta package"):
            vendor_main([str(delta_path), "--output", str(tmp_path / "s.json")])

    def test_fingerprint_mismatch_rejected(self, split_packages, package_path, tmp_path):
        base_path, _delta_path = split_packages
        base_summary = tmp_path / "base_summary.json"
        vendor_main([str(base_path), "--output", str(base_summary)])
        # A delta pinned against the *full* package must not splice onto the
        # base-package summary.
        full = InformationPackage.load(package_path)
        wrong_delta = full.make_delta(full.aqps[-1:])
        wrong_path = tmp_path / "wrong_delta.json"
        wrong_delta.save(wrong_path)
        with pytest.raises(SystemExit, match="pins base package"):
            vendor_main(
                [
                    str(wrong_path),
                    "--extend-from", str(base_summary),
                    "--output", str(tmp_path / "s.json"),
                ]
            )

    def test_extend_from_requires_extension_state(self, split_packages, tmp_path):
        base_path, delta_path = split_packages
        bare_summary = tmp_path / "bare_summary.json"
        package = InformationPackage.load(base_path)
        from repro.core.pipeline import Hydra

        result = Hydra(metadata=package.metadata).build_summary(package.aqps)
        result.summary.save(bare_summary)  # saved without extension state
        with pytest.raises(SystemExit, match="extension state"):
            vendor_main(
                [
                    str(delta_path),
                    "--extend-from", str(bare_summary),
                    "--output", str(tmp_path / "s.json"),
                ]
            )

    def test_replayed_packages_are_idempotent(self, split_packages, tmp_path):
        """Replays must not grow the stored workload or shift the union
        fingerprint: retrying a delta against the base summary (the
        partial-failure retry) and replaying a full package against its own
        summary are both clean no-ops; a delta replayed against the
        *already-extended* summary is rejected by the fingerprint pin."""
        base_path, delta_path = split_packages
        base_summary = tmp_path / "base_summary.json"
        vendor_main([str(base_path), "--output", str(base_summary)])
        first = tmp_path / "ext1.json"
        retried = tmp_path / "ext1_retry.json"
        vendor_main(
            [str(delta_path), "--extend-from", str(base_summary), "--output", str(first)]
        )
        vendor_main(
            [str(delta_path), "--extend-from", str(base_summary), "--output", str(retried)]
        )
        state1 = DatabaseSummary.load(first).extension_state
        state_retry = DatabaseSummary.load(retried).extension_state
        assert state_retry["aqps"] == state1["aqps"]
        assert state_retry["package_fingerprint"] == state1["package_fingerprint"]

        # Full base package replayed against its own summary: no-op, state
        # unchanged in size and fingerprint.
        replay = tmp_path / "replay.json"
        vendor_main(
            [str(base_path), "--extend-from", str(base_summary), "--output", str(replay)]
        )
        base_state = DatabaseSummary.load(base_summary).extension_state
        replay_state = DatabaseSummary.load(replay).extension_state
        assert replay_state["aqps"] == base_state["aqps"]
        assert replay_state["package_fingerprint"] == base_state["package_fingerprint"]

        # The pin catches a delta applied to the wrong (already-extended)
        # generation instead of silently re-splicing.
        with pytest.raises(SystemExit, match="pins base package"):
            vendor_main(
                [str(delta_path), "--extend-from", str(first),
                 "--output", str(tmp_path / "s.json")]
            )

    def test_mismatched_schema_rejected(self, split_packages, tmp_path):
        base_path, _delta_path = split_packages
        base_summary = tmp_path / "base_summary.json"
        vendor_main([str(base_path), "--output", str(base_summary)])
        # An anonymised package renames every table: it describes a different
        # client database and must be rejected up front.
        anon_path = tmp_path / "anon_package.json"
        client_main(
            ["--dataset", "toy", "--queries", "2", "--anonymize",
             "--output", str(anon_path)]
        )
        with pytest.raises(SystemExit, match="not a delta against"):
            vendor_main(
                [
                    str(anon_path),
                    "--extend-from", str(base_summary),
                    "--output", str(tmp_path / "s.json"),
                ]
            )


class TestVendorExport:
    def _vendor_export(self, package_path, tmp_path, fmt, out_name):
        out_dir = tmp_path / out_name
        code = vendor_main(
            [
                str(package_path),
                "--materialize", "all",
                "--format", fmt,
                "--out", str(out_dir),
                "--output", str(tmp_path / f"{out_name}_summary.json"),
            ]
        )
        assert code == 0
        return out_dir, tmp_path / f"{out_name}_summary.json"

    def test_sqlite_export_round_trips(self, package_path, tmp_path, capsys):
        import sqlite3

        out_dir, summary_path = self._vendor_export(
            package_path, tmp_path, "sqlite", "sql_export"
        )
        assert "exported" in capsys.readouterr().out
        summary = DatabaseSummary.load(summary_path)
        connection = sqlite3.connect(out_dir / "export.sqlite")
        for name in ("R", "S", "T"):
            count = connection.execute(f"SELECT COUNT(*) FROM {name}").fetchone()[0]
            assert count == summary.row_count(name)
        connection.close()
        assert (out_dir / "MANIFEST.json").is_file()

    def test_verify_against_validates_and_detects_corruption(
        self, package_path, tmp_path, capsys
    ):
        out_dir, summary_path = self._vendor_export(
            package_path, tmp_path, "csv", "csv_export"
        )
        code = verify_main(
            [str(package_path), str(summary_path), "--against", str(out_dir)]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out
        # Corrupt one data file: validation must fail with exit code 1.
        target = out_dir / "S.csv"
        lines = target.read_text().splitlines()
        cells = lines[1].split(",")
        cells[-1] = "2049-01-01" if cells[-1] != "2049-01-01" else "2049-01-02"
        lines[1] = ",".join(cells)
        target.write_text("\n".join(lines) + "\n")
        code = verify_main(
            [str(package_path), str(summary_path), "--against", str(out_dir)]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_format_rejected_before_solving(self, package_path, tmp_path):
        with pytest.raises(SystemExit):
            vendor_main(
                [
                    str(package_path),
                    "--materialize", "all",
                    "--format", "msgpack",
                    "--out", str(tmp_path / "x"),
                ]
            )

    def test_unwritable_out_rejected_before_solving(self, package_path, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file in the way")
        with pytest.raises(SystemExit):
            vendor_main(
                [
                    str(package_path),
                    "--materialize", "all",
                    "--format", "csv",
                    "--out", str(blocker),
                ]
            )

    def test_unknown_materialize_relation_rejected_before_solving(
        self, package_path, tmp_path
    ):
        with pytest.raises(SystemExit):
            vendor_main(
                [
                    str(package_path),
                    "--materialize", "NOPE",
                    "--format", "csv",
                    "--out", str(tmp_path / "x"),
                ]
            )

    def test_format_requires_out_and_materialize(self, package_path, tmp_path):
        with pytest.raises(SystemExit):
            vendor_main([str(package_path), "--materialize", "all", "--format", "csv"])
        with pytest.raises(SystemExit):
            vendor_main(
                [str(package_path), "--format", "csv", "--out", str(tmp_path / "x")]
            )

    def test_against_rejects_inapplicable_flags(self, package_path, tmp_path):
        out_dir, summary_path = self._vendor_export(
            package_path, tmp_path, "csv", "flags_export"
        )
        with pytest.raises(SystemExit):
            verify_main(
                [
                    str(package_path),
                    str(summary_path),
                    "--against", str(out_dir),
                    "--sample", "S",
                ]
            )


class TestUnifiedCli:
    """The `hydra` dispatcher and the deprecated `hydra-*` aliases."""

    def test_dispatch_table_covers_every_tool(self):
        import repro.cli as cli

        assert set(cli.SUBCOMMANDS) == {
            "client", "vendor", "verify", "serve", "trace", "lint", "fuzz",
        }

    def test_every_subcommand_resolves_to_a_callable(self):
        import repro.cli as cli

        for command in cli.SUBCOMMANDS:
            entry = cli.resolve_subcommand(command)
            assert callable(entry), command

    def test_dispatch_forwards_remaining_argv(self, tmp_path):
        import repro.cli as cli

        path = tmp_path / "package.json"
        code = cli.main(
            ["client", "--dataset", "toy", "--queries", "2", "--output", str(path)]
        )
        assert code == 0
        assert path.exists()

    def test_unknown_command_rejected(self):
        import repro.cli as cli

        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_serve_help_exits_zero(self, capsys):
        import repro.cli as cli

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["serve", "--help"])
        assert excinfo.value.code == 0
        assert "--load" in capsys.readouterr().out

    def test_fuzz_has_no_workers_route(self, capsys):
        import repro.cli as cli

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fuzz", "--routes", "workers"])
        assert excinfo.value.code == 2
        assert "unknown route(s) ['workers']" in capsys.readouterr().err
