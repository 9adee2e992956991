"""CLI tests (``python -m repro``)."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_corpus_contract(capsys):
    code, out = run_cli(capsys, "analyze", "corpus:Crowdfunding")
    assert code == 0
    assert "Summary(Donate)" in out
    assert "AcceptFunds" in out
    assert "µs" in out


def test_analyze_file(tmp_path, capsys):
    from repro.contracts import CORPUS
    path = tmp_path / "c.scilla"
    path.write_text(CORPUS["HelloWorld"])
    code, out = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "Summary(SetHello)" in out


def test_analyze_unknown_corpus_name():
    with pytest.raises(SystemExit):
        main(["analyze", "corpus:Nonexistent"])


@pytest.mark.parametrize("argv, said", [
    (["signature", "ProofIPFS", "Register"],
     "did you mean corpus:ProofIPFS?"),
    (["analyze", "no/such/file.scilla"], "`repro corpus` lists"),
])
def test_missing_file_exits_with_one_line(argv, said):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = str(exc.value.code)
    assert "no such file" in message and said in message
    assert "\n" not in message


def test_signature_with_selection(capsys):
    code, out = run_cli(capsys, "signature", "corpus:FungibleToken",
                        "Mint", "Transfer")
    assert code == 0
    assert "ShardingSignature" in out
    assert "IntMerge" in out


def test_signature_ownership_only(capsys):
    code, out = run_cli(capsys, "signature", "corpus:FungibleToken",
                        "Transfer", "--ownership-only")
    assert code == 0
    assert "IntMerge" not in out
    assert "OwnOverwrite" in out


def test_signature_unknown_transition():
    with pytest.raises(SystemExit):
        main(["signature", "corpus:FungibleToken", "Ghost"])


def test_compile_prints_generated_source(capsys):
    code, out = run_cli(capsys, "compile", "corpus:FungibleToken",
                        "Transfer")
    assert code == 0
    assert "10 units in this source, 0 expressions delegated" in out
    assert ("33 charges at 10 sites, 2/2 Options and 1 Bools unboxed, "
            "3 class-guarded builtins, 1 static sends, 2 fused writes") in out
    # One function: the procedures it calls and ``one_msg`` are lowered
    # into the transition.
    assert "def t_Transfer(run, args):" in out and out.count("def ") == 1
    # The one-key writes and the Int builtins are inline: an owned write
    # privatises through ``_own`` and stores, and ``sub`` guards its
    # operands' class and bounds, calling ``fast_sub`` only on a failure.
    assert "owned_put(" not in out
    assert "log.undo.setdefault(" in out and "._own()" in out
    assert ".entries[_sender] = " in out
    assert "INT_BOUNDS[" in out and ".value - amount_2.value" in out
    assert "fast_sub(" in out
    assert '= "TransferSuccess"' in out          # the constants legend
    compile(out, "<repro compile>", "exec")       # valid Python


def test_compile_unknown_transition():
    with pytest.raises(SystemExit):
        main(["compile", "corpus:FungibleToken", "Ghost"])


def test_solve(capsys):
    code, out = run_cli(capsys, "solve", "corpus:NonfungibleToken")
    assert code == 0
    assert "largest good-enough signature: 3" in out
    assert out.count("maximal:") == 2


def test_diagnose(capsys):
    code, out = run_cli(capsys, "diagnose", "corpus:NonfungibleToken")
    assert code == 0
    assert "Approve: NOT shardable" in out
    assert "state-derived map key" in out


def test_repair_prints_rewritten_contract(capsys):
    code, out = run_cli(capsys, "repair", "corpus:NonfungibleToken",
                        "Approve")
    assert code == 0
    assert "expected_actual_owner" in out
    assert "RequireEq" in out
    # The printed contract must be re-parseable.
    from repro.scilla.parser import parse_module
    printed = out[out.index("scilla_version"):]
    parse_module(printed)


def test_repair_nothing_to_do(capsys):
    code, out = run_cli(capsys, "repair", "corpus:HelloWorld")
    assert code == 0
    assert "nothing to repair" in out


def test_bench_table(capsys):
    code, out = run_cli(capsys, "bench", "table")
    assert code == 0
    assert "FungibleToken" in out
    assert "✓" in out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_corpus_export_roundtrips(tmp_path, capsys):
    code, out = run_cli(capsys, "corpus", "--export", str(tmp_path))
    assert code == 0
    files = sorted(tmp_path.glob("*.scilla"))
    from repro.contracts import CORPUS
    assert len(files) == len(CORPUS)
    # Exported files are themselves analysable through the CLI.
    code, out = run_cli(capsys, "analyze",
                        str(tmp_path / "HelloWorld.scilla"))
    assert code == 0
    assert "Summary(SetHello)" in out


def test_bench_state_writes_the_paged_section(tmp_path, capsys):
    path = tmp_path / "BENCH_state.json"
    code, _ = run_cli(capsys, "bench", "state", "--paged-sizes", "2000",
                      "--output", str(path))
    assert code == 0
    payload = json.loads(path.read_text())
    assert set(payload) == {"benchmark", "paged"}
    [row] = payload["paged"]["rows"]
    assert row["entries"] == 2000
    # Every timing field names its clock.
    timings = [key for key in row if key.endswith(("_ns", "_s"))]
    assert timings and all(key.startswith("wall_") for key in timings)


def test_bench_state_with_nothing_to_measure_is_a_usage_error(
        tmp_path, capsys):
    path = tmp_path / "BENCH_state.json"
    assert main(["bench", "state", "--no-paged",
                 "--output", str(path)]) == 2
    err = capsys.readouterr().err
    assert "--no-paged" in err and "--soak-entries" in err
    assert not path.exists()


@pytest.mark.parametrize("command", [
    ["chaos"], ["metrics"], ["run", "--data-dir", "unused"],
    ["resume", "--data-dir", "unused"], ["torture"], ["serve"],
    ["loadgen"]])
def test_an_unknown_workload_is_refused_by_the_parser(capsys, command):
    # A typo is the caller's error: not a traceback, and under
    # `torture` not a failed recovery either.
    with pytest.raises(SystemExit) as exc:
        main([*command, "--workload", "nope"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["chaos"], ["metrics"], ["run", "--data-dir", "unused"],
    ["resume", "--data-dir", "unused"], ["torture"], ["serve"]])
@pytest.mark.parametrize("shards", ["0", "-3"])
def test_shards_below_one_are_refused_by_the_parser(capsys, command,
                                                    shards):
    # `repro chaos --shards 0` used to print a ZeroDivisionError
    # traceback from the first account's home-shard hash.
    with pytest.raises(SystemExit) as exc:
        main([*command, "--shards", shards])
    assert exc.value.code == 2
    assert "at least one shard" in capsys.readouterr().err


@pytest.mark.parametrize("argv, said", [
    (["chaos", "--users", "0"], "--users: a workload needs at least one"),
    (["metrics", "--users", "-2"], "--users: a workload needs at least one"),
    (["run", "--data-dir", "unused", "--users", "0"],
     "--users: a workload needs at least one"),
    (["run", "--data-dir", "unused", "--keep-snapshots", "0"],
     "--keep-snapshots: a data dir keeps at least one restore point"),
    (["serve", "--population", "1"],
     "--population: a population needs at least two senders, not 1")])
def test_sizes_below_their_floor_are_usage_errors(capsys, argv, said):
    # Each used to end in a traceback: an IndexError from an empty
    # user list, SnapshotStore's or run_service's ValueError.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert said in err and "Traceback" not in err
