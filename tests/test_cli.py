"""End-to-end CLI tests: parsing, dispatch, formats, exit codes."""

import ast
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chshsim import cli
from chshsim import strategies
from chshsim.bounds import f_delta, x_mean_bound


def run_cli(*argv):
    return cli.main(list(argv))


def read_json(path):
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def read_kv_csv(path):
    with open(path, encoding="utf-8", newline="") as fp:
        rows = list(csv.reader(fp))
    assert rows[0] == ["key", "value"]
    return dict(rows[1:])


def flat_json(payload):
    return dict(cli.flatten_payload(payload))


def test_bounds_json_values(tmp_path):
    out = tmp_path / "bounds.json"
    assert run_cli("bounds", "--n", "1000", "--delta", "0.1", "--out", str(out)) == 0
    payload = read_json(out)
    assert payload["f_delta"] == pytest.approx(f_delta(1000, 0.1), abs=0.0)
    assert payload["x_tail_bound"] == pytest.approx(5 * f_delta(1000, 0.1), abs=0.0)
    assert payload["x_mean_bound"] is None


def test_bounds_with_epsilon(tmp_path):
    out = tmp_path / "bounds.json"
    run_cli("bounds", "--n", "1000", "--delta", "0.1", "--epsilon", "0.25", "--out", str(out))
    assert read_json(out)["x_mean_bound"] == x_mean_bound(1000, 0.25)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv",
    [
        # NaN and infinite bounds have no JSON form; overflow is no invariant violation.
        ("bounds", "--n", "10", "--delta", "0.1", "--epsilon", "nan"),
        ("bounds", "--n", "10", "--delta", "0.1", "--epsilon", "inf"),
        ("bounds", "--n", "10", "--delta", "1e-320"),
        ("table", "--n", "10", "--delta", "0.1", "--epsilon", "nan"),
        ("bounds", "--n", "10", "--delta", "0.1", "--epsilon", "1e308"),
        ("bounds", "--n", str(10 ** 400), "--delta", "0.1"),
        ("simulate", "--strategy", "guessing", "--n", "4", "--batches", "2", "--delta", "1e-320"),
    ],
)
def test_non_finite_bound_is_input_error(argv, fmt, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(*argv, "--format", fmt, "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--n", "1000", "--delta", "0.1", "--epsilon", "0.2"),
        ("enumerate", "--strategy", "guessing", "--n", "4"),
        ("enumerate", "--strategy", "guessing", "--n", "4", "--distribution"),
        ("enumerate", "--strategy", "collective-n2", "--n", "2"),
        ("simulate", "--strategy", "constant-plus", "--n", "40", "--batches", "25", "--seed", "3"),
        ("nosig", "--strategy", "model101", "--n", "3"),
    ],
)
def test_json_and_csv_encode_the_same_values(argv, tmp_path):
    json_out = tmp_path / "out.json"
    csv_out = tmp_path / "out.csv"
    assert run_cli(*argv, "--out", str(json_out), "--format", "json") == 0
    assert run_cli(*argv, "--out", str(csv_out), "--format", "csv") == 0
    from_json = {k: cli.stringify(v) if not isinstance(v, str) else v
                 for k, v in flat_json(read_json(json_out)).items()}
    assert read_kv_csv(csv_out) == from_json


def test_table_formats_agree(tmp_path):
    json_out = tmp_path / "table.json"
    csv_out = tmp_path / "table.csv"
    run_cli("table", "--n", "1000", "--delta", "0.1", "--out", str(json_out))
    run_cli("table", "--n", "1000", "--delta", "0.1", "--format", "csv", "--out", str(csv_out))
    payload = read_json(json_out)
    with open(csv_out, newline="") as fp:
        rows = {row["model"]: row for row in csv.DictReader(fp)}
    assert set(rows) == set(payload["rows"])
    for model, row in payload["rows"].items():
        for column, value in row.items():
            cell = rows[model][column]
            if value is None:
                assert cell == "unknown"
            else:
                assert float(cell) == value


def test_table_marks_collective_unknown(tmp_path):
    out = tmp_path / "table.csv"
    run_cli("table", "--n", "1000", "--delta", "0.1", "--format", "csv", "--out", str(out))
    with open(out, newline="") as fp:
        rows = {row["model"]: row for row in csv.DictReader(fp)}
    assert rows["collective"]["e_x"] == "unknown"
    assert rows["collective"]["e_y"] == "3.0"


def test_enumerate_collective_json_contains_10_16(tmp_path):
    out = tmp_path / "coll.json"
    assert run_cli("enumerate", "--strategy", "collective-n2", "--n", "2", "--out", str(out)) == 0
    text = out.read_text()
    assert "10/16" in text
    payload = json.loads(text)
    assert payload["p_both_score_decimal"] == 0.625
    assert payload["independent_rounds_ceiling"]["fraction"] == "9/16"


def test_enumerate_collective_requires_n2(capsys):
    assert run_cli("enumerate", "--strategy", "collective-n2", "--n", "3") == 2
    assert capsys.readouterr().err == "error: collective-n2 is defined for exactly 2 rounds, got 3\n"


def test_enumerate_collective_honours_work_budget(capsys):
    # 4^n playouts: n = 10 is admitted, and collective-n2 itself refuses
    # it in play; n = 11 is refused before any play.
    assert run_cli("enumerate", "--strategy", "collective-n2", "--n", "10") == 2
    assert capsys.readouterr().err == "error: collective-n2 is defined for exactly 2 rounds, got 10\n"
    assert run_cli("enumerate", "--strategy", "collective-n2", "--n", "11") == 2
    assert capsys.readouterr().err == "error: n=11 needs 4,194,304 sequences, over the work budget of 1,398,100\n"


def test_enumerate_collective_refuses_distribution(capsys):
    assert run_cli("enumerate", "--strategy", "collective-n2", "--n", "2", "--distribution") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --distribution")


def test_enumerate_guessing_values(tmp_path):
    out = tmp_path / "enum.json"
    assert run_cli("enumerate", "--strategy", "guessing", "--n", "4", "--out", str(out)) == 0
    payload = read_json(out)
    assert payload["e_x_conditional"]["fraction"] == "15/4"
    assert payload["e_y"]["fraction"] == "3"
    assert payload["p_undefined"]["fraction"] == "29/32"
    assert "distribution" not in payload


def test_enumerate_distribution_flag(tmp_path):
    from fractions import Fraction

    out = tmp_path / "enum.json"
    run_cli("enumerate", "--strategy", "constant-plus", "--n", "2", "--distribution", "--out", str(out))
    payload = read_json(out)
    total = sum(Fraction(e["probability"]) for e in payload["distribution"])
    assert total == 1


def test_enumerate_over_cap_is_input_error(capsys):
    # The first n over the work budget of each engine: C(n+3, 4) count
    # states, or C(n+8, 8) (counts, scores) states with the distribution.
    assert run_cli("enumerate", "--strategy", "guessing", "--n", "75") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n=75 needs 1,426,425 count states, over the work budget of 1,398,100\n"
    assert run_cli("enumerate", "--strategy", "guessing", "--n", "18", "--distribution") == 2
    assert capsys.readouterr().err == (
        "error: n=18 needs 1,562,275 (counts, scores) states, over the work budget of 1,398,100\n"
    )


def test_enumerate_stochastic_is_input_error(capsys):
    assert run_cli("enumerate", "--strategy", "quantum", "--n", "3") == 2
    assert capsys.readouterr().err == "error: exact enumeration requires a deterministic strategy\n"


def test_unknown_strategy_rejected_with_choices(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--strategy", "bogus", "--n", "10")
    assert exc.value.code == 2
    assert "constant-plus" in capsys.readouterr().err


def test_simulate_summary_and_batches(tmp_path):
    out = tmp_path / "sum.json"
    batches_out = tmp_path / "batches.csv"
    code = run_cli(
        "simulate", "--strategy", "quantum", "--n", "200", "--batches", "40",
        "--seed", "7", "--out", str(out), "--batches-out", str(batches_out),
    )
    assert code == 0
    payload = read_json(out)
    assert payload["batches"] == 40
    assert 3.0 < payload["mean_y"]["decimal"] < 3.9
    with open(batches_out, newline="") as fp:
        rows = list(csv.DictReader(fp))
    assert len(rows) == 40
    assert rows[0]["batch"] == "0" and rows[0]["seed"] == "7"
    assert {"y_value", "x_defined", "n11"} <= set(rows[0])


def test_simulate_byte_identical_reruns(tmp_path):
    args = (
        "simulate", "--strategy", "guessing", "--n", "100", "--batches", "30", "--seed", "11",
    )
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    b1, b2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(out1), "--batches-out", str(b1)) == 0
    assert run_cli(*args, "--out", str(out2), "--batches-out", str(b2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b1.read_bytes() == b2.read_bytes()


def test_simulate_stochastic_lhv_from_weights_file(tmp_path):
    weights = tmp_path / "weights.csv"
    weights.write_text("weight,a1,a2,b1,b2\n1/2,+1,+1,+1,+1\n1/2,-1,-1,-1,-1\n")
    out = tmp_path / "out.json"
    code = run_cli(
        "simulate", "--strategy", "stochastic-lhv", "--strategy-file", str(weights),
        "--n", "60", "--batches", "20", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    assert read_json(out)["strategy"] == "stochastic-lhv"


def test_weights_file_with_byte_order_mark_reads_as_without(tmp_path):
    # Spreadsheet tools save CSV as UTF-8 with a byte-order mark.
    text = "weight,a1,a2,b1,b2\n1/3,+1,+1,+1,+1\n2/3,-1,+1,-1,+1\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    for command in (
        ("nosig", "--n", "3", "--seed", "4"),
        ("simulate", "--n", "40", "--batches", "10", "--seed", "4"),
    ):
        outputs = []
        for weights in (plain, marked):
            out = tmp_path / f"{weights.stem}-{command[0]}.json"
            args = (*command, "--strategy", "stochastic-lhv", "--strategy-file", str(weights), "--out", str(out))
            assert run_cli(*args) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


def test_simulate_stochastic_lhv_without_file_is_input_error(capsys):
    assert run_cli("simulate", "--strategy", "stochastic-lhv", "--n", "10") == 2
    assert "weights" in capsys.readouterr().err


def test_strategy_file_needs_stochastic_lhv(tmp_path, capsys):
    weights = tmp_path / "weights.csv"
    weights.write_text("weight,a1,a2,b1,b2\n1,+1,+1,+1,+1\n")
    out = tmp_path / "out.json"
    for argv in (
        ("simulate", "--strategy", "guessing", "--strategy-file", str(weights), "--n", "4",
         "--out", str(out)),
        ("nosig", "--strategy", "guessing", "--strategy-file", str(tmp_path / "missing.csv")),
    ):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == (
            "error: --strategy-file applies only to --strategy stochastic-lhv\n"
        )
    assert not out.exists()


def test_simulate_bad_weights_sum_is_input_error(tmp_path, capsys):
    weights = tmp_path / "weights.csv"
    weights.write_text("weight,a1,a2,b1,b2\n1/2,+1,+1,+1,+1\n")
    code = run_cli(
        "simulate", "--strategy", "stochastic-lhv", "--strategy-file", str(weights), "--n", "10"
    )
    assert code == 2


def test_simulate_zero_denominator_weight_is_input_error(tmp_path, capsys):
    weights = tmp_path / "weights.csv"
    weights.write_text("weight,a1,a2,b1,b2\n1/0,1,1,1,1\n")
    code = run_cli(
        "simulate", "--strategy", "stochastic-lhv", "--strategy-file", str(weights), "--n", "10"
    )
    assert code == 2
    assert capsys.readouterr().err == (
        "error: zero denominator in weights row: ['1/0', '1', '1', '1', '1']\n"
    )


@pytest.mark.parametrize(
    "row, error",
    [
        ("abc,1,1,1,1", "invalid weight in weights row: ['abc', '1', '1', '1', '1']"),
        ("1,1,1,1,x", "outcomes must be +1 or -1 in weights row: ['1', '1', '1', '1', 'x']"),
        ("1,1,1,1,2", "outcomes must be +1 or -1 in weights row: ['1', '1', '1', '1', '2']"),
    ],
    ids=["weight", "outcome-not-integer", "outcome-not-plus-minus-one"],
)
@pytest.mark.parametrize("command", ["simulate", "nosig"])
def test_bad_weights_field_error_names_the_row(command, row, error, tmp_path, capsys):
    weights = tmp_path / "weights.csv"
    weights.write_text(f"weight,a1,a2,b1,b2\n{row}\n")
    code = run_cli(
        command, "--strategy", "stochastic-lhv", "--strategy-file", str(weights), "--n", "2"
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("strategy", ["quantum", "collective-n2"])
def test_simulate_negative_seed_is_input_error(strategy, capsys):
    # Both run on kernels, which seed a whole chunk of batches at once.
    assert run_cli("simulate", "--strategy", strategy, "--n", "2", "--seed", "-1") == 2
    assert "expected non-negative integer" in capsys.readouterr().err


def test_simulate_negative_seed_opens_no_batches_file(tmp_path, capsys):
    batches_out = tmp_path / "b.csv"
    code = run_cli(
        "simulate", "--strategy", "guessing", "--n", "4", "--batches", "3", "--seed", "-1",
        "--batches-out", str(batches_out),
    )
    assert code == 2
    assert "expected non-negative integer" in capsys.readouterr().err
    assert not batches_out.exists()


def test_simulate_collective_beyond_two_rounds_is_input_error(capsys):
    assert run_cli("simulate", "--strategy", "collective-n2", "--n", "3") == 2
    assert capsys.readouterr().err == "error: collective-n2 is defined for exactly 2 rounds, got 3\n"


# From about N = 445,000 at delta = 0.1 the f bound underflows to 0.0.
UNDERFLOW_N = "450000"


def test_simulate_tail_ratio_is_zero_for_an_unseen_tail_when_f_underflows(tmp_path):
    out = tmp_path / "out.json"
    argv = ("simulate", "--strategy", "constant-plus", "--n", UNDERFLOW_N, "--batches", "1")
    assert run_cli(*argv, "--out", str(out)) == 0
    payload = read_json(out)
    assert payload["y_tail_bound"] == payload["x_tail_bound"] == 0.0
    assert payload["tail_freq_y"]["fraction"] == payload["tail_freq_x"]["fraction"] == "0"
    assert payload["y_tail_ratio"] == payload["x_tail_ratio"] == 0.0


def test_simulate_tail_ratio_is_null_for_a_seen_tail_when_f_underflows(tmp_path):
    # The quantum sampler's Y_N sits near 3.41, above 3 + delta, in every batch.
    out, csv_out = tmp_path / "out.json", tmp_path / "out.csv"
    argv = ("simulate", "--strategy", "quantum", "--n", UNDERFLOW_N, "--batches", "1")
    assert run_cli(*argv, "--out", str(out)) == 0
    text = out.read_text()
    assert "Infinity" not in text and "NaN" not in text
    payload = json.loads(text)
    assert payload["y_tail_bound"] == 0.0 and payload["tail_freq_y"]["fraction"] == "1"
    assert payload["y_tail_ratio"] is None
    assert run_cli(*argv, "--out", str(csv_out), "--format", "csv") == 0
    assert read_kv_csv(csv_out)["y_tail_ratio"] == ""


def test_nosig_passes_for_local_strategy(tmp_path):
    out = tmp_path / "nosig.json"
    assert run_cli("nosig", "--strategy", "guessing", "--n", "3", "--out", str(out)) == 0
    payload = read_json(out)
    assert payload["passed"] is True
    assert payload["counterexample"] is None


def test_nosig_honours_work_budget(tmp_path, capsys):
    # A count-driven walk plays 4 C(n+3, 4) rounds, any other (4^(n+1) - 4)/3:
    # 52 and 10 rounds deep at most.  Refusals come before any play, so no
    # walk can be asked to recurse deeper than that.
    weights = tmp_path / "weights.csv"
    weights.write_text("weight,a1,a2,b1,b2\n1/2,+1,+1,+1,+1\n1/2,-1,-1,-1,-1\n")
    lhv = ("--strategy", "stochastic-lhv", "--strategy-file", str(weights))
    assert run_cli("nosig", "--strategy", "quantum", "--n", "10", "--out", str(tmp_path / "q.json")) == 1
    assert run_cli("nosig", *lhv, "--n", "10", "--out", str(tmp_path / "lhv.json")) == 0
    for args, n, work in (
        (("--strategy", "guessing"), 53, "1,469,160 walked rounds"),
        (("--strategy", "constant-plus"), 600, "21,816,660,600 walked rounds"),
        (("--strategy", "quantum"), 11, "5,592,404 walked rounds"),
        (lhv, 11, "5,592,404 walked rounds"),
        (("--strategy", "collective-n2"), 11, "4,194,304 sequences"),
    ):
        assert run_cli("nosig", *args, "--n", str(n)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: n={n} needs {work}, over the work budget of 1,398,100\n"


def test_nosig_quantum_fails_as_nonlocal(tmp_path):
    out = tmp_path / "nosig.json"
    assert run_cli("nosig", "--strategy", "quantum", "--n", "2", "--out", str(out)) == 1
    payload = read_json(out)
    assert payload["passed"] is False
    assert payload["counterexample"]["toggled_side"] == "alice"


def test_nosig_signaling_double_exits_one(tmp_path, monkeypatch):
    def double(pairs):
        return tuple(1 if p.bob == 0 else -1 for p in pairs), tuple(1 for _ in pairs)

    monkeypatch.setitem(strategies.REGISTRY, "constant-plus", lambda: double)
    out = tmp_path / "nosig.json"
    assert run_cli("nosig", "--strategy", "constant-plus", "--n", "2", "--out", str(out)) == 1
    payload = read_json(out)
    assert payload["passed"] is False
    assert payload["counterexample"]["before"] != payload["counterexample"]["after"]


@pytest.mark.parametrize("strategy", ["stochastic-lhv", "quantum"])
def test_nosig_negative_seed_is_input_error(strategy, tmp_path, capsys):
    weights = tmp_path / "weights.csv"
    weights.write_text("weight,a1,a2,b1,b2\n1/2,+1,+1,+1,+1\n1/2,-1,-1,-1,-1\n")
    lhv = ("--strategy-file", str(weights)) if strategy == "stochastic-lhv" else ()
    assert run_cli("nosig", "--strategy", strategy, *lhv, "--n", "2", "--seed", "-1") == 2
    assert capsys.readouterr().err == "error: seed: expected non-negative integer, got -1\n"


def test_nosig_deterministic_subject_ignores_seed(capsys):
    assert run_cli("nosig", "--strategy", "guessing", "--n", "2", "--seed", "-1") == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this package; fail on a nonzero exit."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# Each run's commands go through main with stdout swallowed, each
# exiting with its expected code, then the interpreter names which of
# numpy, the Monte Carlo layer, ``dataclasses`` and ``inspect`` were
# loaded after its start-up (so a ``site`` hook that loads one cannot
# fail the check).  ``dataclasses`` alone costs a fresh process about
# 12 ms, mostly the ``inspect``, ``ast``, ``dis`` and ``tokenize`` it
# imports; numpy imports ``inspect`` itself.
FRESH_RUN = """
import contextlib, io, sys
before = set(sys.modules)
from chshsim.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    for argv, code in {runs!r}:
        assert main(argv) == code, argv
watched = {{"numpy", "chshsim.montecarlo", "dataclasses", "inspect"}}
loaded = sorted(watched & (set(sys.modules) - before))
assert loaded == {expected!r}, loaded
"""


def test_only_simulate_loads_numpy_and_no_command_loads_dataclasses(tmp_path):
    weights = tmp_path / "weights.csv"
    weights.write_text("weight,a1,a2,b1,b2\n1/3,+1,+1,+1,+1\n2/3,-1,+1,-1,+1\n")
    runs = []
    for strategy in ("guessing", "constant-plus", "model101"):
        runs += [
            (["enumerate", "--strategy", strategy, "--n", "4"], 0),
            (["enumerate", "--strategy", strategy, "--n", "4", "--distribution"], 0),
            (["nosig", "--strategy", strategy, "--n", "3"], 0),
        ]
    runs += [
        (["nosig", "--strategy", "collective-n2", "--n", "2"], 0),
        (["nosig", "--strategy", "stochastic-lhv", "--strategy-file", str(weights), "--n", "3", "--seed", "9"], 0),
        # The quantum sampler signals by design, so its check exits 1.
        (["nosig", "--strategy", "quantum", "--n", "3"], 1),
        (["nosig", "--strategy", "quantum", "--n", "3", "--seed", str(2 ** 128 + 3)], 1),
        (["bounds", "--n", "1000", "--delta", "0.1", "--epsilon", "0.25"], 0),
        (["table", "--n", "1000", "--delta", "0.1"], 0),
    ]
    run_fresh(FRESH_RUN.format(runs=runs, expected=[]))
    # The guard above would pass vacuously if nothing could load numpy.
    simulate = [(["simulate", "--strategy", "guessing", "--n", "4", "--batches", "2"], 0)]
    run_fresh(FRESH_RUN.format(runs=simulate, expected=["chshsim.montecarlo", "inspect", "numpy"]))


#: Numpy's seeding and drawing API.  The package draws from its own
#: ``Stream``; these stay in the tests, the reference it is held to.
NUMPY_GENERATORS = {"default_rng", "SeedSequence", "Generator"}


def test_no_module_names_numpy_generators():
    # Names and attributes in code, and names imported; docstrings and
    # comments are no code, so they may still name them.
    modules = sorted(Path(cli.__file__).parent.glob("*.py"))
    assert {"montecarlo.py", "stream.py"} <= {path.name for path in modules}
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            else:
                continue
            if name in NUMPY_GENERATORS:
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_package_resolves_monte_carlo_exports_on_first_use():
    import chshsim
    from chshsim import EstimateReport, SimulationPlan, estimate, run_batch
    from chshsim import montecarlo

    assert EstimateReport is montecarlo.EstimateReport
    assert SimulationPlan is montecarlo.SimulationPlan
    assert estimate is montecarlo.estimate
    assert run_batch is montecarlo.run_batch
    with pytest.raises(AttributeError, match="no_such_name"):
        chshsim.no_such_name
    run_fresh("import sys, chshsim; assert 'chshsim.montecarlo' not in sys.modules")


def assert_same_outputs_as_a_fresh_parser(argv, tmp_path):
    """``main`` on ``argv`` writes what a parser built for this call alone gives."""
    reused, fresh = tmp_path / "reused.out", tmp_path / "fresh.out"
    assert run_cli(*argv, "--out", str(reused)) == 0
    assert cli.dispatch(cli.build_parser().parse_args([*argv, "--out", str(fresh)])) == 0
    assert reused.read_bytes() == fresh.read_bytes()


def test_main_carries_no_arguments_over_to_the_next_call(tmp_path, capsys):
    assert cli.build_parser() is not cli.build_parser()
    weights = tmp_path / "weights.csv"
    weights.write_text("weight,a1,a2,b1,b2\n1/2,+1,+1,+1,+1\n1/2,-1,-1,-1,-1\n")
    assert run_cli(
        "simulate", "--strategy", "stochastic-lhv", "--strategy-file", str(weights), "--n", "6",
        "--batches", "20", "--format", "csv", "--out", str(tmp_path / "first.out"),
        "--batches-out", str(tmp_path / "first.csv"),
    ) == 0
    assert_same_outputs_as_a_fresh_parser(
        ["simulate", "--strategy", "quantum", "--n", "6", "--batches", "20", "--seed", "5"], tmp_path
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "first.csv", "first.out", "fresh.out", "reused.out", "weights.csv",
    ]
    assert run_cli("simulate", "--strategy", "stochastic-lhv", "--n", "6") == 2
    assert "requires a weights file" in capsys.readouterr().err


def test_rejected_arguments_leave_the_next_call_unaffected(tmp_path):
    stray = tmp_path / "stray.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli("simulate", "--strategy", "quantum", "--n", "6", "--batches-out", str(stray), "--seed", "x")
    assert exc.value.code == 2
    assert_same_outputs_as_a_fresh_parser(
        ["simulate", "--strategy", "constant-plus", "--n", "6", "--batches", "20"], tmp_path
    )
    assert not stray.exists()


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2


def test_missing_weights_file_is_input_error(tmp_path):
    code = run_cli(
        "simulate", "--strategy", "stochastic-lhv", "--strategy-file",
        str(tmp_path / "absent.csv"), "--n", "10",
    )
    assert code == 2
