import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowqubo import (
    BinaryProgram,
    Constraint,
    IlDesignSpace,
    QuboModel,
    SampleRecord,
    SampleSet,
    load_default_ds_space,
    load_default_il_space,
)
from flowqubo import solvers
from flowqubo.cli import main


@pytest.fixture()
def tiny_space_file(tmp_path):
    space = IlDesignSpace(
        reactors=("R1",), separators=("S1",), cations=("c1",), anions=("a1",),
        c_fixed={"R1": 2.0, "S1": 1.0},
        c_oper_reactor={"R1": 1.0},
        c_oper_separator={"S1": 1.0},
        c_invest={"R1": 0.5, "S1": 0.25},
        c_energy={"S1": 0.125},
        alpha={"R1": 0.8},
        beta={"S1": {"c1": {"a1": 1.0}}},
        f_lower={"R1": 1.0, "S1": 1.0},
        f_upper={"R1": 20.0, "S1": 16.0},
        demand=5.0,
    )
    path = tmp_path / "tiny_space.json"
    space.save(path)
    return str(path)


@pytest.fixture()
def custom_model_file(tmp_path):
    program = BinaryProgram(
        var_names=("a", "b"),
        objective={"a": 1.0, "b": 2.0},
        constraints=(Constraint({"a": 1.0, "b": 1.0}, ">=", 1.0, label="pick one"),),
    )
    path = tmp_path / "model.json"
    program.save(path)
    return str(path)


def test_build_writes_artifact_set(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["build", "--case", "ds", "--out", str(out)]) == 0
    for name in ("ip.json", "qubo.json", "reformulation.json", "run_config.json"):
        assert (out / name).exists()
    stdout = capsys.readouterr().out
    assert "binary variables: 19" in stdout
    assert "qubo variables: 28" in stdout
    assert "penalty weight: 509.0" in stdout
    program = BinaryProgram.load(out / "ip.json")
    assert program.num_vars == 19
    qubo = QuboModel.load(out / "qubo.json")
    assert qubo.num_vars == 28
    config = json.loads((out / "run_config.json").read_text())
    assert config["command"] == "build"
    assert config["rho"] == 509.0


def test_build_rejects_bad_rho(tmp_path, capsys):
    assert main(["build", "--case", "ds", "--rho", "-4",
                 "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_custom_case_requires_model(tmp_path, capsys):
    assert main(["build", "--case", "custom", "--out", str(tmp_path)]) == 2
    assert "--model" in capsys.readouterr().err


def test_solve_custom_model(tmp_path, custom_model_file):
    out = tmp_path / "out"
    assert main(["solve", "--case", "custom", "--model", custom_model_file,
                 "--solver", "oracle", "--out", str(out)]) == 0
    samples = SampleSet.load(out / "samples.json")
    assert samples.solver == "oracle"
    assert samples.best().objective == 1.0


def test_zero_variable_model_solves_and_reports(tmp_path):
    """The samples.json that solve writes for a zero-variable program, with
    its empty assignment, is read back by report."""
    model = tmp_path / "empty.json"
    model.write_text(json.dumps({"var_names": [],
                                 "objective": {"linear": {}, "constant": 1.5}}))
    out = tmp_path / "out"
    assert main(["solve", "--case", "custom", "--model", str(model),
                 "--solver", "oracle", "--out", str(out)]) == 0
    assert main(["report", "--case", "custom", "--model", str(model),
                 "--samples", str(out / "samples.json"), "--target", "opt",
                 "--out", str(out)]) == 0


def test_solve_oracle_ds(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["solve", "--case", "ds", "--solver", "oracle",
                 "--out", str(out)]) == 0
    samples = SampleSet.load(out / "samples.json")
    assert len(samples.records) == 36
    assert samples.best().objective == 138.0
    stdout = capsys.readouterr().out
    assert "solver: oracle  status: ok" in stdout
    assert "records: 36" in stdout


def test_solve_bb_modes_agree_with_oracle(tmp_path):
    out_bb = tmp_path / "bb"
    out_enum = tmp_path / "enum"
    assert main(["solve", "--case", "ds", "--solver", "bb",
                 "--out", str(out_bb)]) == 0
    assert main(["solve", "--case", "ds", "--solver", "bb-enumerate",
                 "--out", str(out_enum)]) == 0
    best = SampleSet.load(out_bb / "samples.json").best()
    enum = SampleSet.load(out_enum / "samples.json")
    assert best.objective == 138.0
    assert len(enum.records) == 36


def test_solve_pool_size_validation(tmp_path, capsys):
    assert main(["solve", "--case", "ds", "--solver", "bb-pool",
                 "--pool-size", "0", "--out", str(tmp_path)]) == 2
    assert "pool-size" in capsys.readouterr().err


def test_solve_sa_seeded_rerun_is_byte_identical(tmp_path, tiny_space_file):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    argv = ["solve", "--case", "il", "--params", tiny_space_file,
            "--solver", "sa", "--seed", "11", "--reads", "50",
            "--sweeps", "60"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    for name in ("samples.json", "run_config.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_solve_sa_invalid_reads_exits_2(tmp_path, capsys):
    # refused as a bad option before the sampler runs, not as a solver failure
    for option in ("--reads", "--sweeps"):
        assert main(["solve", "--case", "ds", "--solver", "sa", "--seed", "1",
                     option, "0", "--out", str(tmp_path)]) == 2
        assert "must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "samples.json").exists()


def test_solve_sa_refuses_reads_or_sweeps_beyond_its_memory_limit(tmp_path, capsys):
    # il's QUBO has 53 variables; the call is refused before the start draw
    # allocates, so the run stays small
    for option, value in (("--reads", solvers._SA_LIMIT // 53 + 1),
                          ("--sweeps", solvers._SA_LIMIT)):
        assert main(["solve", "--case", "il", "--solver", "sa", "--seed", "1",
                     option, str(value), "--out", str(tmp_path)]) == 2
        assert "limit" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_tau_is_null_unless_requested(tmp_path, tiny_space_file):
    argv = ["solve", "--case", "il", "--params", tiny_space_file,
            "--solver", "sa", "--seed", "3", "--reads", "20", "--sweeps", "30"]
    out_plain = tmp_path / "plain"
    assert main(argv + ["--out", str(out_plain)]) == 0
    payload = json.loads((out_plain / "samples.json").read_text())
    assert payload["tau_seconds"] is None
    assert "time_breakdown" not in payload
    out_tau = tmp_path / "tau"
    assert main(argv + ["--record-tau", "--out", str(out_tau)]) == 0
    payload = json.loads((out_tau / "samples.json").read_text())
    assert isinstance(payload["tau_seconds"], float)
    assert set(payload["time_breakdown"]) == {"schedule", "sweeps", "tally"}


def test_import_round_trip(tmp_path):
    out_oracle = tmp_path / "oracle"
    assert main(["solve", "--case", "ds", "--solver", "oracle",
                 "--out", str(out_oracle)]) == 0
    out_import = tmp_path / "imported"
    assert main(["solve", "--case", "ds", "--solver", "import",
                 "--import-file", str(out_oracle / "samples.json"),
                 "--out", str(out_import)]) == 0
    original = SampleSet.load(out_oracle / "samples.json")
    imported = SampleSet.load(out_import / "samples.json")
    assert imported.records == original.records


def test_import_energy_check_rejects_program_level_samples(tmp_path, capsys):
    # oracle samples live in the 19-variable source space, not the QUBO space,
    # so recomputing their energies against the case QUBO must fail loudly
    out_oracle = tmp_path / "oracle"
    assert main(["solve", "--case", "ds", "--solver", "oracle",
                 "--out", str(out_oracle)]) == 0
    code = main(["solve", "--case", "ds", "--solver", "import",
                 "--import-file", str(out_oracle / "samples.json"),
                 "--check-energies", "--out", str(tmp_path / "checked")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_import_requires_file(tmp_path, capsys):
    assert main(["solve", "--case", "ds", "--solver", "import",
                 "--out", str(tmp_path)]) == 2
    assert "--import-file" in capsys.readouterr().err


def test_report_with_reference(tmp_path, capsys):
    out_oracle = tmp_path / "oracle"
    assert main(["solve", "--case", "ds", "--solver", "oracle",
                 "--out", str(out_oracle)]) == 0
    out_report = tmp_path / "report"
    assert main(["report", "--samples", str(out_oracle / "samples.json"),
                 "--reference", str(out_oracle / "samples.json"),
                 "--target", "both", "--case", "ds",
                 "--out", str(out_report)]) == 0
    lines = (out_report / "ttt.csv").read_text().splitlines()
    assert lines[0] == "solver,tau,ttopt99,ttfeas99,coverage"
    assert lines[1] == "oracle,-,-,-,36/36"
    div = json.loads((out_report / "diversity.json").read_text())
    assert div["total"] == 36
    assert div["coverage"] == 1.0
    assert div["rank_hits"]["1"] == 1
    stdout = capsys.readouterr().out
    assert "coverage=36/36" in stdout


def test_report_s_column_follows_flag(tmp_path):
    out_oracle = tmp_path / "oracle"
    assert main(["solve", "--case", "ds", "--solver", "oracle",
                 "--out", str(out_oracle)]) == 0
    out_report = tmp_path / "report"
    assert main(["report", "--samples", str(out_oracle / "samples.json"),
                 "--target", "opt", "--s", "0.5", "--case", "ds",
                 "--out", str(out_report)]) == 0
    header = (out_report / "ttt.csv").read_text().splitlines()[0]
    assert header == "solver,tau,ttopt50,ttfeas50,coverage"


def test_report_against_an_annealer_reference_ranks_its_feasible_set(tmp_path):
    # A9's ds run as its own reference: its 120 reads hold infeasible
    # configurations too, which diversity.json must not rank
    out_sa = tmp_path / "sa"
    assert main(["solve", "--case", "ds", "--solver", "sa", "--seed", "9",
                 "--reads", "120", "--sweeps", "150", "--out", str(out_sa)]) == 0
    samples = str(out_sa / "samples.json")
    out_report = tmp_path / "report"
    assert main(["report", "--samples", samples, "--reference", samples,
                 "--target", "both", "--case", "ds",
                 "--out", str(out_report)]) == 0
    coverage = (out_report / "ttt.csv").read_text().splitlines()[1].split(",")[-1]
    div = json.loads((out_report / "diversity.json").read_text())
    assert coverage == f"{div['found_count']}/{div['total']}"
    assert div["found_ranks"] == list(range(1, div["total"] + 1))


def test_report_refuses_a_foreign_configuration_before_writing(tmp_path, capsys):
    # the reference keeps one of ds's 36 feasible configurations, so the
    # oracle's other 35 are foreign to it
    out_oracle = tmp_path / "oracle"
    assert main(["solve", "--case", "ds", "--solver", "oracle",
                 "--out", str(out_oracle)]) == 0
    oracle = SampleSet.load(out_oracle / "samples.json")
    reference = tmp_path / "reference.json"
    SampleSet.build(oracle.records[:1], oracle.solver).save(reference)
    out_report = tmp_path / "report"
    for target in ("opt", "both"):
        assert main(["report", "--samples", str(out_oracle / "samples.json"),
                     "--reference", str(reference), "--target", target,
                     "--case", "ds", "--out", str(out_report)]) == 2
        assert "missing from the reference" in capsys.readouterr().err
        assert not out_report.exists() or list(out_report.iterdir()) == []


def test_report_validation(tmp_path, capsys):
    out_oracle = tmp_path / "oracle"
    assert main(["solve", "--case", "ds", "--solver", "oracle",
                 "--out", str(out_oracle)]) == 0
    samples = str(out_oracle / "samples.json")
    assert main(["report", "--samples", samples, "--s", "1.5",
                 "--out", str(tmp_path / "r1")]) == 2
    assert main(["report", "--samples", samples, "--target", "feas",
                 "--case", "ds", "--out", str(tmp_path / "r2")]) == 2
    err = capsys.readouterr().err
    assert "--s" in err and "--reference" in err


def test_sweep_seeded_rerun_is_byte_identical(tmp_path, tiny_space_file, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    argv = ["sweep", "--case", "il", "--params", tiny_space_file,
            "--seed", "5", "--budget", "80", "--starts", "3"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert (out_a / "pareto.csv").read_bytes() == (out_b / "pareto.csv").read_bytes()
    lines = (out_a / "pareto.csv").read_text().splitlines()
    assert lines[0] == "config_id,discrete_objective,continuous_objective,status,on_front"
    assert len(lines) == 2
    assert lines[1].startswith("1111,")
    assert lines[1].endswith(",ok,true")
    assert "on pareto front: 1" in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [
    ("--starts", "0"), ("--starts", "-3"), ("--budget", "0"), ("--seed", "-1"),
])
def test_sweep_rejects_bad_search_arguments(tmp_path, tiny_space_file, capsys,
                                            flag, value):
    argv = ["sweep", "--case", "il", "--params", tiny_space_file,
            "--seed", "5", "--out", str(tmp_path), flag, value]
    assert main(argv) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "pareto.csv").exists()


def test_solve_sa_rejects_negative_seed(tmp_path, tiny_space_file, capsys):
    assert main(["solve", "--case", "il", "--params", tiny_space_file,
                 "--solver", "sa", "--seed", "-1", "--reads", "2",
                 "--sweeps", "2", "--out", str(tmp_path)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "samples.json").exists()


def test_sweep_rejects_ds_case(tmp_path, capsys):
    assert main(["sweep", "--case", "ds", "--out", str(tmp_path)]) == 2
    assert "il case only" in capsys.readouterr().err


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("FLOWQUBO_OUT_DIR", str(target))
    assert main(["solve", "--case", "ds", "--solver", "bb"]) == 0
    assert (target / "samples.json").exists()


def _space_without(space, key):
    data = space.to_json_dict()
    del data[key]
    return json.dumps(data)


@pytest.mark.parametrize("argv, content", [
    (["solve", "--case", "custom", "--solver", "oracle", "--model"], "{not json"),
    (["solve", "--case", "custom", "--solver", "oracle", "--model"], None),
    (["build", "--case", "il", "--params"],
     _space_without(load_default_il_space(), "separators")),
    (["build", "--case", "ds", "--params"],
     _space_without(load_default_ds_space(), "flows")),
    (["report", "--samples"], None),
], ids=["malformed-model", "missing-model", "il-missing-key", "ds-missing-key",
        "missing-samples"])
def test_bad_input_files_exit_2(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    assert main(argv + [str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


# input files the CLI reads, each with its command and the paths of the keys
# its loader cannot do without, nested ones included
_INPUTS = {
    "model": (["solve", "--case", "custom", "--solver", "bb", "--model"],
              BinaryProgram(var_names=("a", "b"), objective={"a": 1.0, "b": 2.0},
                            constraints=(Constraint({"a": 1.0, "b": 1.0}, ">=", 1.0,
                                                    products=(("a", "b", 1.0),)),),
                            objective_products=(("a", "b", 0.5),), projection=("a",),
                            ).to_json_dict(),
              (("var_names",), ("constraints", 0, "sense"), ("constraints", 0, "rhs"))),
    "il-params": (["build", "--case", "il", "--params"],
                  load_default_il_space().to_json_dict(),
                  tuple((key,) for key in (
                      "reactors", "separators", "cations", "anions", "c_fixed",
                      "c_oper_reactor", "c_oper_separator", "c_invest", "c_energy",
                      "alpha", "beta", "f_lower", "f_upper", "demand"))),
    "ds-params": (["build", "--case", "ds", "--params"],
                  load_default_ds_space().to_json_dict(),
                  (("flows",), ("nodes",), ("source",), ("sink",), ("configuration_flows",),
                   ("nodes", 0, "name"), ("nodes", 0, "inflows"), ("nodes", 0, "outflows"),
                   ("logic_rules", 0, "sense"))),
    "samples": (["report", "--samples"],
                SampleSet.build([SampleRecord((0, 1), 2.0, objective=2.0, feasible=True),
                                 SampleRecord((1, 1), 3.5, occurrences=2)],
                                "sa", seed=4).to_json_dict(),
                (("solver",), ("records",), ("records", 0, "assignment"))),
}

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8)


def _leaf_paths(value, kind, path=()):
    """Paths to every value of type ``kind`` in a JSON document; a bool
    counts as no number, though Python makes it an int."""
    found = [path] if isinstance(value, kind) and not isinstance(value, bool) else []
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return found
    return found + [leaf for key, item in items
                    for leaf in _leaf_paths(item, kind, path + (key,))]


@st.composite
def malformed_bodies(draw, doc, required):
    """The text of a document that no loader may accept."""
    kind = draw(st.sampled_from(
        ("truncated", "not-an-object", "missing-key", "null-key", "float-overflow",
         "string-for-list", "non-number", "non-string")))
    if kind == "truncated":
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind == "not-an-object":
        return json.dumps(draw(_json_values.filter(lambda v: not isinstance(v, dict))))
    doc = copy.deepcopy(doc)
    if kind == "float-overflow":
        # a valid JSON number that no float can hold
        path = draw(st.sampled_from(_leaf_paths(doc, float)))
        value = draw(st.integers(min_value=2 ** 1024, max_value=10 ** 400))
    elif kind == "string-for-list":
        # a string where a list belongs, such as "ab" for ["a", "b"]; a loader
        # that calls tuple() on it reads one item per character
        path = draw(st.sampled_from(_leaf_paths(doc, list)))
        value = draw(st.sampled_from(("", "ab", "ab1")))
    elif kind == "non-number":
        # a bool or a numeric string where a number belongs; float() reads
        # both, and Python's bool is an int
        path = draw(st.sampled_from(_leaf_paths(doc, (int, float))))
        value = draw(st.sampled_from((True, False, "3", "2.5")))
    elif kind == "non-string":
        # null, a number or a list where a string belongs; str() reads them
        # all, as "None", "3" and "['x', 1]"
        path = draw(st.sampled_from(_leaf_paths(doc, str)))
        value = draw(st.sampled_from((None, 3, ["x", 1])))
    else:
        path = draw(st.sampled_from(required))
        value = None
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if kind == "missing-key":
        del target[last]
    else:
        target[last] = value
    return json.dumps(doc)


@st.composite
def bad_input_files(draw):
    name = draw(st.sampled_from(sorted(_INPUTS)))
    argv, doc, required = _INPUTS[name]
    return argv, draw(malformed_bodies(doc, required))


def _samples_with_tau(tau):
    argv, doc, _ = _INPUTS["samples"]
    return argv, json.dumps({**doc, "tau_seconds": tau})


def _model_with_label(label):
    argv, doc, _ = _INPUTS["model"]
    doc = copy.deepcopy(doc)
    doc["constraints"][0]["label"] = label
    return argv, json.dumps(doc)


@given(bad_input_files())
@example(_samples_with_tau(0))
@example(_samples_with_tau(-1.5))
@example(_samples_with_tau(float("nan")))
@example(_model_with_label(None))
@settings(max_examples=200, deadline=None)
def test_malformed_input_files_exit_2(case):
    argv, body = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(body, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + [str(path), "--out", str(Path(tmp) / "out")])
    assert code == 2
    err = err.getvalue()
    assert err.startswith("error:")
    assert "Traceback" not in err
