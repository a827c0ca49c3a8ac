import hashlib
import json
import math
import random
import re
import time
from pathlib import Path

import numpy as np
import pytest

from tapp import cli
from tapp.cli import (
    CATEGORIES,
    check_case,
    execute_case,
    generate_case,
    main,
    oracle_case,
    parse_case,
    run_suite,
)
from tapp.core import DType
from tapp.errors import ErrorCode, TappError
from tapp.labels import parse_einsum

MATMUL_DOC = {
    "einsum": "ij,jk->ik",
    "alpha": 1.0,
    "beta": 0.0,
    "a": {"dtype": "r64", "extents": [2, 2], "strides": [2, 1], "data": [1, 2, 3, 4]},
    "b": {"dtype": "r64", "extents": [2, 2], "strides": [2, 1], "data": [5, 6, 7, 8]},
    "d": {"dtype": "r64", "extents": [2, 2], "strides": [2, 1]},
}


def _write(tmp_path, doc, name="case.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _strict_json(out):
    """``out`` parsed as JSON, which holds no bare NaN or Infinity."""

    def reject(constant):
        raise ValueError(f"bare {constant} in {out!r}")

    return json.loads(out, parse_constant=reject)


def _one_product(a, b, d_dtype="r64"):
    """``i,i->`` over one r64 element each of A and B, into a D of ``d_dtype``."""
    return {
        "einsum": "i,i->",
        "alpha": 1.0,
        "beta": 0.0,
        "a": {"dtype": "r64", "extents": [1], "data": [a]},
        "b": {"dtype": "r64", "extents": [1], "data": [b]},
        "d": {"dtype": d_dtype, "extents": []},
    }


def test_run_matmul(tmp_path, capsys):
    code = main(["run", _write(tmp_path, MATMUL_DOC)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["d"] == [19.0, 22.0, 43.0, 50.0]
    assert out["status"]["error"] == 0
    assert out["status"]["elements_written"] == 4


def test_run_scalar_product(tmp_path, capsys):
    doc = {
        "einsum": ",->",
        "alpha": 1.0,
        "beta": 0.0,
        "a": {"dtype": "r64", "extents": [], "data": [2.0]},
        "b": {"dtype": "r64", "extents": [], "data": [3.0]},
        "d": {"dtype": "r64", "extents": []},
    }
    code = main(["run", _write(tmp_path, doc)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["d"] == [6.0]


def test_run_exits_with_extent_mismatch(tmp_path, capsys):
    doc = json.loads(json.dumps(MATMUL_DOC))
    doc["b"]["extents"] = [3, 2]
    doc["b"]["strides"] = [2, 1]
    doc["b"]["data"] = [0.0] * 6
    code = main(["run", _write(tmp_path, doc)])
    capsys.readouterr()
    assert code == int(ErrorCode.ERR_EXTENT_MISMATCH)


def test_run_exits_with_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code = main(["run", str(path)])
    capsys.readouterr()
    assert code == int(ErrorCode.ERR_PARSE)


def test_check_matmul_and_perturb(tmp_path, capsys):
    path = _write(tmp_path, MATMUL_DOC)
    assert main(["check", path]) == 0
    capsys.readouterr()
    assert main(["check", path, "--perturb", "1e-3"]) == 1
    capsys.readouterr()


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "got, want, expected",
    [
        ([1.0, 2.0], [1.0, 2.5], (0.2, 1)),  # finite: |g - w| / max(|w|, 1)
        ([NAN, NAN], [1.0, 2.0], (INF, 0)),
        ([1.0], [INF], (INF, 0)),
        ([-INF], [INF], (INF, 0)),
        ([complex(INF, NAN)], [complex(INF, 0.0)], (INF, 0)),
        ([NAN], [NAN], (0.0, None)),
        ([math.copysign(NAN, -1.0)], [NAN], (0.0, None)),  # any NaN sign
        ([INF], [INF], (0.0, None)),
        ([complex(NAN, -INF)], [complex(NAN, -INF)], (0.0, None)),
    ],
)
def test_max_rel_err_sees_nan_and_infinity(got, want, expected):
    assert cli._max_rel_err(got, want) == expected


def test_max_rel_err_of_moduli_beyond_float_range():
    big = complex(1.5e308, 1.5e308)  # finite parts, but abs() overflows
    assert cli._max_rel_err([big], [big]) == (0.0, None)
    rel, worst = cli._max_rel_err([complex(1.5e308, 1.2e308)], [big])
    assert worst == 0 and rel == pytest.approx(0.3 / math.hypot(1.5, 1.5))


def test_check_passes_on_a_complex_value_whose_modulus_overflows(tmp_path, capsys):
    doc = {
        "einsum": "i,i->",
        "alpha": 1.0,
        "beta": 0.0,
        "a": {"dtype": "c64", "extents": [1], "strides": [1], "data": [[1.5e308, 1.5e308]]},
        "b": {"dtype": "c64", "extents": [1], "strides": [1], "data": [[1.0, 0.0]]},
        "d": {"dtype": "c64", "extents": [], "strides": []},
    }
    assert main(["check", _write(tmp_path, doc)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] and out["max_rel_err"] == 0.0


def test_check_passes_where_products_overflow_to_a_nan_sum(tmp_path, capsys):
    # The products 1e309 and -1e309 overflow to +inf and -inf: the engine
    # sums them to NaN, and the oracle, whose exact sum takes no +inf and
    # -inf together, gives NaN as well.
    doc = json.loads(json.dumps(MATMUL_DOC))
    doc["a"].update(extents=[1, 2], strides=[2, 1], data=[1e308, 1e308])
    doc["b"].update(extents=[2, 1], strides=[1, 1], data=[10.0, -10.0])
    doc["d"].update(extents=[1, 1], strides=[1, 1])
    path = _write(tmp_path, doc)
    assert main(["run", path]) == 0
    assert _strict_json(capsys.readouterr().out)["d"] == ["NaN"]
    assert main(["check", path]) == 0
    assert _strict_json(capsys.readouterr().out)["passed"]


@pytest.mark.parametrize(
    "doc, d",
    [
        (_one_product(1e308, 10.0), ["Infinity"]),
        (_one_product(1e308, -10.0), ["-Infinity"]),
        # The real sum inf, times the real alpha, stays real and is stored
        # into the c64 D with imaginary part +0.0 (C99 Annex G), by the
        # engine and the oracle alike.
        (_one_product(1e308, 10.0, "c64"), [["Infinity", 0.0]]),
    ],
)
def test_run_and_check_print_non_finite_values_as_strings(tmp_path, capsys, doc, d):
    path = _write(tmp_path, doc)
    assert main(["run", path]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["d"] == d
    if isinstance(d[0], list):
        assert math.copysign(1.0, out["d"][0][1]) == 1.0
    assert main(["check", path]) == 0
    assert _strict_json(capsys.readouterr().out)["passed"]


def test_check_prints_an_infinite_error_as_a_string(tmp_path, capsys):
    assert main(["check", _write(tmp_path, MATMUL_DOC), "--perturb", "inf"]) == 1
    out = _strict_json(capsys.readouterr().out)
    assert out["max_rel_err"] == "Infinity" and out["worst_index"] == [0, 0]


def test_check_reports_the_empty_worst_index_of_a_scalar_output(tmp_path, capsys):
    path = _write(tmp_path, _one_product(1.5, 2.0))
    assert main(["check", path]) == 0
    assert _strict_json(capsys.readouterr().out)["worst_index"] is None
    assert main(["check", path, "--perturb", "1e-3"]) == 1
    assert _strict_json(capsys.readouterr().out)["worst_index"] == []


# r64 ``i,i->`` whose exact sum is 1 and whose ordered sum
# ``((1e17 + 1) + -1e17)`` is 0.
CANCELLATION_DOC = {
    "einsum": "i,i->", "alpha": 1.0, "beta": 0.0,
    "a": {"dtype": "r64", "extents": [3], "data": [1e17, 1.0, -1e17]},
    "b": {"dtype": "r64", "extents": [3], "data": [1.0, 1.0, 1.0]},
    "d": {"dtype": "r64", "extents": []},
}


@pytest.mark.parametrize(
    "perturb, says",
    [("0", "D's bits equal the contract's order"),
     ("1e-3", "D's bits differ from the contract's order at index []")],
)
def test_check_says_whether_a_failing_d_holds_the_contracts_order(
    tmp_path, capsys, monkeypatch, perturb, says
):
    # The verdict and exit code stay the exact comparison's; the detail
    # adds the ordered oracle's, which only a failing case runs.
    path = _write(tmp_path, CANCELLATION_DOC)
    assert main(["check", path, "--perturb", perturb]) == 1
    out = _strict_json(capsys.readouterr().out)
    assert not out["passed"] and out["max_rel_err"] == 1.0
    assert out["detail"] == f"max relative error 1.000e+00 (tolerance 1e-12); {says}"
    monkeypatch.setattr(cli, "ordered_contract", None)  # a passing case never calls it
    assert main(["check", _write(tmp_path, MATMUL_DOC)]) == 0


def test_readme_example_case_runs_and_checks(tmp_path, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
    path = tmp_path / "readme_case.json"
    path.write_text(block)
    assert main(["run", str(path)]) == 0
    assert main(["check", str(path)]) == 0
    capsys.readouterr()


def test_gen_is_deterministic(capsys):
    main(["gen", "5", "--seed", "11"])
    first = capsys.readouterr().out
    main(["gen", "5", "--seed", "11"])
    second = capsys.readouterr().out
    assert first == second
    main(["gen", "5", "--seed", "12"])
    assert capsys.readouterr().out != first


def test_generated_documents_are_pinned():
    # sha256 of every generated document, categories 1..28 x seeds 0..19,
    # so that a change to the generator's draws or layout shows here.
    digest = hashlib.sha256()
    for category in range(1, 29):
        for seed in range(20):
            digest.update(json.dumps(generate_case(category, seed), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "9a3535e331fe0d084c25bc283a372b87445ea8fb8e21a070338c699526e37cda"
    )


def test_suite_report_is_pinned():
    # sha256 of a two-instance suite report, so that a change to any
    # category's codes, checks or errors shows here.
    report = json.dumps(run_suite(0, 2)[1], sort_keys=True).encode()
    assert hashlib.sha256(report).hexdigest() == (
        "1dc4ba143155472e67616ee00e0e6ef4970cd2e73cf7497b4658a969babb97cd"
    )


@pytest.mark.parametrize("category", ["0", "-1", "29"])
@pytest.mark.parametrize("command", [["gen"], ["suite", "--case"]])
def test_gen_rejects_unknown_category(capsys, command, category):
    with pytest.raises(SystemExit) as err:
        main(command + [category])
    assert err.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def _classified(doc):
    from tapp.core import TensorDesc, DType
    from tapp.labels import classify, merge_repeats

    spec = parse_einsum(doc["einsum"])

    def merged(labels, entry):
        strides = entry.get("strides")
        if strides is None:
            strides, acc = [], 1
            for e in entry["extents"]:
                strides.append(acc)
                acc *= e
        desc = TensorDesc(
            tuple(entry["extents"]), tuple(strides), DType.from_name(entry["dtype"])
        )
        return merge_repeats(labels, desc)

    return classify(
        merged(spec.labels_a, doc["a"]),
        merged(spec.labels_b, doc["b"]),
        merged(spec.labels_d, doc["d"]),
    )


def test_gen_category_structures():
    for seed in range(6):
        # 1: pure elementwise -- every label shared by A, B and D.
        got = _classified(generate_case(1, seed))
        assert got.batch.labels and not got.contracted.labels
        assert not got.free_a.labels and not got.free_b.labels
        # 6: outer product -- no contracted labels.
        assert not _classified(generate_case(6, seed)).contracted.labels
        # 7: everything contracted -- empty output.
        got = _classified(generate_case(7, seed))
        assert got.contracted.labels and not got.batch.labels
        assert not got.free_a.labels and not got.free_b.labels
        # 8: a zero-mode tensor appears.
        doc = generate_case(8, seed)
        assert min(
            len(doc["a"]["extents"]), len(doc["b"]["extents"]), len(doc["d"]["extents"])
        ) == 0
        # 9: a one-mode tensor appears.
        doc = generate_case(9, seed)
        assert 1 in (
            len(doc["a"]["extents"]), len(doc["b"]["extents"]), len(doc["d"]["extents"])
        )
        # 12: all strides negative.
        doc = generate_case(12, seed)
        for name in ("a", "b", "c", "d"):
            assert all(s < 0 for s in doc[name]["strides"])
        # 21: a zero stride in exactly one input.
        doc = generate_case(21, seed)
        zeroed = [
            name for name in ("a", "b") if 0 in doc[name].get("strides", [])
        ]
        assert len(zeroed) == 1
        # 22: at least one input-only label.
        got = _classified(generate_case(22, seed))
        assert got.reduced_a.labels or got.reduced_b.labels
        # 23: a repeated label inside an input.
        spec = parse_einsum(generate_case(23, seed)["einsum"])
        assert len(set(spec.labels_a)) < len(spec.labels_a) or len(
            set(spec.labels_b)
        ) < len(spec.labels_b)
        # 24: batch plus free labels, no contracted ones.
        got = _classified(generate_case(24, seed))
        assert got.batch.labels and not got.contracted.labels
        assert got.free_a.labels or got.free_b.labels
        # 25: batch plus contracted labels only.
        got = _classified(generate_case(25, seed))
        assert got.batch.labels and got.contracted.labels


def test_gen_error_categories_yield_their_codes():
    expected_of = {k: r.expect for k, r in CATEGORIES.items() if r.expect is not None}
    assert list(expected_of) == [26, 27, 28]
    for category, expected in expected_of.items():
        for seed in range(8):
            case = parse_case(generate_case(category, seed))
            run = execute_case(case)
            orun = oracle_case(case)
            assert run.code is expected, (category, seed, run.code)
            assert orun.code is expected, (category, seed, orun.code)


@pytest.mark.parametrize("category", [26, 27, 28])
def test_a_failing_create_is_planned_once(monkeypatch, category):
    # The reason for the code comes from the handle, not from planning the
    # failed create a second time.
    from tapp import engine

    calls = []
    make_plan = engine.make_plan
    monkeypatch.setattr(engine, "make_plan", lambda *args: calls.append(1) or make_plan(*args))
    run = execute_case(parse_case(generate_case(category, 0)))
    assert run.code is CATEGORIES[category].expect and run.detail
    assert len(calls) == 1


def test_gen_valid_categories_round_trip_through_check():
    for category in range(1, 26):
        case = parse_case(generate_case(category, 1))
        result = check_case(case)
        assert result.passed, (category, result.detail)


def _edited(doc, changes):
    """A copy of ``doc`` with top-level fields replaced, or tensor entries
    updated where a change is a dict."""
    doc = json.loads(json.dumps(doc))
    for key, value in changes.items():
        if isinstance(value, dict):
            doc[key].update(value)
        else:
            doc[key] = value
    return doc


def _without(doc, *path):
    """A copy of ``doc`` without the field at ``path``."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    del target[last]
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        pytest.param(_edited(MATMUL_DOC, {"alpha": "x"}), "bad scalar 'x'", id="scalar"),
        pytest.param(_edited(MATMUL_DOC, {"beta": [1.0, "x"]}), "bad scalar", id="scalar-pair"),
        # JSON true and false are no numbers, though a Python bool is an int.
        pytest.param(_edited(MATMUL_DOC, {"alpha": True}), "bad scalar True", id="bool-scalar"),
        pytest.param(
            _edited(MATMUL_DOC, {"a": {"data": [True, 2, 3, 4]}}), "bad element True",
            id="bool-element",
        ),
        pytest.param(_edited(MATMUL_DOC, {"d": {"base": True}}), "'d': bad base", id="bool-base"),
        pytest.param(
            _edited(MATMUL_DOC, {"a": {"extents": [True, 2]}}), "'a': bad dtype/extents",
            id="bool-extent",
        ),
        pytest.param(
            _edited(MATMUL_DOC, {"b": {"strides": [True, 1]}}), "'b': bad strides",
            id="bool-stride",
        ),
        pytest.param(
            _edited(MATMUL_DOC, {"a": {"data": [[1, 2], 2, 3, 4]}}),
            "bad element [1, 2]",
            id="pair-in-real-data",
        ),
        pytest.param(_edited(MATMUL_DOC, {"a": 5}), "tensor 'a' must be an object", id="tensor"),
        pytest.param(_without(MATMUL_DOC, "b", "dtype"), "'b': bad dtype/extents", id="no-dtype"),
        pytest.param(_edited(MATMUL_DOC, {"b": {"extents": 2}}), "bad dtype/", id="extents"),
        pytest.param(
            _edited(MATMUL_DOC, {"b": {"extents": ["x", 2]}}), "bad dtype/extents", id="extent"
        ),
        pytest.param(_edited(MATMUL_DOC, {"b": {"dtype": "r16"}}), "dtype name 'r16'", id="dtype"),
        pytest.param(
            _edited(MATMUL_DOC, {"a": {"extents": [4.7, 3]}}), "'a': bad dtype/extents",
            id="fractional-extent",
        ),
        pytest.param(_edited(MATMUL_DOC, {"d": {"strides": ["x"]}}), "bad strides", id="strides"),
        pytest.param(
            _edited(MATMUL_DOC, {"b": {"strides": [1, 4.9]}}), "'b': bad strides",
            id="fractional-stride",
        ),
        pytest.param(_edited(MATMUL_DOC, {"d": {"base": -1}}), "'d': bad base", id="base"),
        pytest.param(_edited(MATMUL_DOC, {"d": {"base": 1.0}}), "'d': bad base", id="float-base"),
        pytest.param(_without(MATMUL_DOC, "a", "data"), "'a': missing data", id="no-data"),
        pytest.param([MATMUL_DOC], "case document must be an object", id="document"),
        pytest.param(_without(MATMUL_DOC, "einsum"), "missing case field 'einsum'", id="no-field"),
        pytest.param(_edited(MATMUL_DOC, {"einsum": 5}), "malformed case document", id="einsum"),
        pytest.param(
            _edited(MATMUL_DOC, {"a": {"dtype": 5}}), "malformed case document", id="dtype-number"
        ),
    ],
)
def test_run_reports_each_parse_error_as_one_json_line(tmp_path, capsys, doc, message):
    code = main(["run", _write(tmp_path, doc)])
    out = capsys.readouterr().out
    assert code == int(ErrorCode.ERR_PARSE)
    assert out.count("\n") == 1
    line = json.loads(out)
    assert line["error"] == int(ErrorCode.ERR_PARSE)
    assert message in line["message"]


_C64_DOC = _edited(MATMUL_DOC, {
    "a": {"dtype": "c64", "data": [[1, 0]] * 4}, "b": {"dtype": "c64"}, "d": {"dtype": "c64"},
})


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize(
    "doc, message",
    [
        pytest.param(_edited(MATMUL_DOC, {"alpha": 10**400}), "scalar beyond", id="alpha"),
        pytest.param(_edited(MATMUL_DOC, {"beta": [0, -10**400]}), "scalar beyond", id="beta-pair"),
        pytest.param(_edited(MATMUL_DOC, {"a": {"data": [1, 10**400, 3, 4]}}), "element beyond",
                     id="element"),
        pytest.param(_edited(_C64_DOC, {"a": {"data": [[10**400, 0]] * 4}}), "element beyond",
                     id="element-pair"),
    ],
)
def test_an_integer_beyond_float_range_is_a_parse_error(tmp_path, capsys, command, doc, message):
    code = main([command, _write(tmp_path, doc)])
    line = json.loads(capsys.readouterr().out)
    assert code == int(ErrorCode.ERR_PARSE) == line["error"]
    assert message in line["message"]


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize(
    "content",
    [b'{"alpha": ' + b"1" * 5000 + b"}", json.dumps(MATMUL_DOC).encode() + b" \xff"],
    ids=["5000-digits", "not-utf-8"],  # neither of which json reads
)
def test_a_file_json_cannot_read_is_a_parse_error(tmp_path, capsys, command, content):
    path = tmp_path / "case.json"
    path.write_bytes(content)
    assert main([command, str(path)]) == int(ErrorCode.ERR_PARSE)
    assert "cannot load" in json.loads(capsys.readouterr().out)["message"]


def test_run_prints_complex_elements_as_pairs(tmp_path, capsys):
    doc = {
        "einsum": "i,i->i",
        "alpha": 1.0,
        "beta": 0.0,
        "a": {"dtype": "c64", "extents": [2], "data": [[1, 2], [0, 1]]},
        "b": {"dtype": "c64", "extents": [2], "data": [[3, 0], [0, 1]]},
        "d": {"dtype": "c64", "extents": [2]},
    }
    assert main(["run", _write(tmp_path, doc)]) == 0
    assert json.loads(capsys.readouterr().out)["d"] == [[3.0, 6.0], [-1.0, 0.0]]


@pytest.mark.parametrize(
    "changes, code",
    [
        pytest.param(
            {"a": {"extents": [2, 2, 1], "strides": [2, 1, 4]}},
            ErrorCode.ERR_EXTENT_MISMATCH,
            id="label-count",
        ),
        pytest.param({"a": {"extents": [0, 2]}}, ErrorCode.ERR_EXTENT_MISMATCH, id="extent-0"),
        # one stride for two extents: TensorDesc's code, before D's aliasing
        pytest.param({"a": {"strides": [2]}}, ErrorCode.ERR_EXTENT_MISMATCH, id="stride-count"),
        pytest.param(
            {"a": {"strides": [2]}, "d": {"strides": [0, 1]}},
            ErrorCode.ERR_EXTENT_MISMATCH,
            id="stride-count-aliasing-d",
        ),
        pytest.param(
            {"einsum": "ii,ik->ik", "a": {"extents": [2, 3], "strides": [1, 2], "data": [1] * 6}},
            ErrorCode.ERR_EXTENT_MISMATCH,
            id="repeat-unequal",
        ),
        pytest.param({"einsum": "ij,jk->il"}, ErrorCode.ERR_UNSUPPORTED, id="output-only"),
        pytest.param({"alpha": [1.0, 0.5]}, ErrorCode.ERR_DTYPE_MISMATCH, id="complex-alpha"),
        pytest.param({"a": {"data": [1, 2, 3]}}, ErrorCode.ERR_OUT_OF_BOUNDS, id="short-a"),
        pytest.param({"d": {"strides": [-2, 1]}}, ErrorCode.ERR_OUT_OF_BOUNDS, id="d-below-0"),
    ],
)
def test_each_case_contract_check_gives_both_paths_the_same_code(changes, code):
    result = check_case(parse_case(_edited(MATMUL_DOC, changes)))
    assert result.passed, result.detail
    assert result.engine_code is code and result.oracle_code is code


def _dot(einsum, a, b, c, d):
    """An r64 case of the given extents, with data enough for 2 elements."""
    entry = lambda extents: {"dtype": "r64", "extents": extents, "data": [1.0, 2.0]}
    doc = {"einsum": einsum, "alpha": 1.0, "beta": 1.0, "a": entry(a), "b": entry(b),
           "d": {"dtype": "r64", "extents": d}}
    return doc if c is None else {**doc, "c": entry(c)}


@pytest.mark.parametrize(
    "doc, code",
    [
        # C's descriptor fails before C is compared with D
        pytest.param(_dot("i,i->i", [2], [2], [0], [2]), ErrorCode.ERR_EXTENT_MISMATCH,
                     id="c-extent-0"),
        pytest.param(_dot("i,i->i", [2], [2], [2**62], [2]), ErrorCode.ERR_OUT_OF_BOUNDS,
                     id="c-beyond-int64"),
        # A's descriptor fails before its extent is compared with B's
        pytest.param(_dot("i,i->", [10**30], [2], None, []), ErrorCode.ERR_OUT_OF_BOUNDS,
                     id="a-beyond-int64"),
        # C's default zeros would be as large as D
        pytest.param(_dot("i,i->j", [2], [2], None, [10**30]), ErrorCode.ERR_OUT_OF_BOUNDS,
                     id="default-c-beyond-int64"),
    ],
)
def test_a_descriptor_the_engine_rejects_gives_both_paths_its_code(doc, code):
    result = check_case(parse_case(doc))
    assert result.passed, result.detail
    assert result.engine_code is code and result.oracle_code is code


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("d_extents", [[10**30], [2**40, 2**40]])
def test_a_case_without_c_and_a_d_beyond_int64_exits_with_out_of_bounds(
    tmp_path, capsys, command, d_extents
):
    einsum = "i,i->" + "jk"[: len(d_extents)]
    doc = _dot(einsum, [2], [2], None, d_extents)
    assert main([command, _write(tmp_path, doc)]) == int(ErrorCode.ERR_OUT_OF_BOUNDS)
    out = json.loads(capsys.readouterr().out)
    if command == "check":
        assert out["detail"] == "error codes agree: size or reach exceeds int64"
    else:
        assert out["error"] == int(ErrorCode.ERR_OUT_OF_BOUNDS)
        assert out["message"] == "size or reach exceeds int64"


@pytest.mark.parametrize("command", ["run", "check"])
def test_run_and_check_print_the_reason_an_execute_call_gives(tmp_path, capsys, command):
    # A's data holds 2 of its 3 elements: the execute call fails, and its
    # reason reaches the output through the StatusRecord, not the code's
    # generic string.
    doc = _dot("i,i->", [3], [2], None, [])
    doc["b"].update(extents=[3], data=[1.0, 2.0, 3.0])
    assert main([command, _write(tmp_path, doc)]) == int(ErrorCode.ERR_OUT_OF_BOUNDS)
    out = json.loads(capsys.readouterr().out)
    if command == "check":
        assert out["detail"] == "error codes agree: A: view escapes its buffer"
    else:
        assert out["message"] == "A: view escapes its buffer"


@pytest.mark.parametrize("command", ["run", "check"])
def test_run_and_check_print_the_reason_a_create_call_gives(tmp_path, capsys, command):
    # tapp_create_contraction returns only the code; the planner's reason
    # reaches the output, not the code's generic string.
    doc = _dot("i,i->", [2], [3], None, [])
    doc["b"]["data"] = [1.0, 2.0, 3.0]
    assert main([command, _write(tmp_path, doc)]) == int(ErrorCode.ERR_EXTENT_MISMATCH)
    out = json.loads(capsys.readouterr().out)
    if command == "check":
        assert out["detail"] == "error codes agree: label 'i' has extents 2 and 3"
    else:
        assert out["message"] == "label 'i' has extents 2 and 3"


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize(
    "dtype, element, parsed",
    [
        ("r32", 1e39, math.inf),
        ("r32", -1e39, -math.inf),
        ("c32", [1e39, -1e39], complex(math.inf, -math.inf)),
        ("c32", [1, 1e39], complex(1, math.inf)),  # parsed element by element
    ],
)
def test_an_element_beyond_float32_range_becomes_an_infinity_without_a_warning(
    tmp_path, capsys, command, dtype, element, parsed
):
    # pyproject turns a RuntimeWarning into an error
    one = [1.0, 0.0] if dtype == "c32" else 1.0
    doc = {
        "einsum": "i,i->",
        "alpha": 1.0,
        "beta": 0.0,
        "a": {"dtype": dtype, "extents": [2], "data": [element, one]},
        "b": {"dtype": dtype, "extents": [2], "data": [one, one]},
        "d": {"dtype": dtype, "extents": []},
    }
    assert parse_case(doc).a.data[0] == parsed
    assert main([command, _write(tmp_path, doc)]) == 0
    _strict_json(capsys.readouterr().out)


# Floats as json reads them: signed zeros, float64 and float32
# subnormals, a float32 underflow to zero, non-finite constants, values
# either side of float32's largest and beyond its range.
_FLOATS = json.loads(
    "[0.0, -0.0, 5e-324, -1e-310, 1e-40, -1e-46, NaN, Infinity, -Infinity, 0.1,"
    " 3.4028234663852886e38, 3.4028235677973366e38, 3.5e38, 1e39, -1e39, 1.7976931348623157e308]"
)


def _tensor(dtype, data):
    """A one-mode tensor entry holding ``data``."""
    return {"dtype": dtype, "extents": [len(data)], "data": data}


@pytest.mark.parametrize("dtype", ["r32", "r64", "c32", "c64"])
def test_float_data_parse_in_bulk_to_the_bytes_of_element_by_element_parsing(
    monkeypatch, dtype
):
    rng = random.Random(dtype)
    values = _FLOATS + [rng.uniform(-1, 1) for _ in range(40)]
    is_complex = dtype.startswith("c")
    if is_complex:
        values = [[x, y] for x, y in zip(values, reversed(values))]
    parse_number = cli._parse_number
    for data in ([], values):
        with np.errstate(over="ignore"):
            want = np.array(
                [parse_number(v, "element", is_complex) for v in data],
                DType.from_name(dtype).np_dtype,
            )
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parse_number", None)  # the bulk path calls no parser
            got = cli._parse_tensor(_tensor(dtype, data), "a", want_data=True).data
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "dtype, data, want",
    [
        ("r64", [1, 2.5, -3], [1.0, 2.5, -3.0]),
        ("r32", [0.5, 10**30], [0.5, float(np.float32(1e30))]),
        ("c64", [[1, 2.0], [0.5, -1.5]], [1 + 2j, 0.5 - 1.5j]),
        ("c64", [(0.5, 2.0), [0.5, -1.5]], [0.5 + 2j, 0.5 - 1.5j]),  # a tuple from Python
        ("c32", [0.5, [0.5, -1.5]], [0.5 + 0j, 0.5 - 1.5j]),  # a bare number is real
    ],
)
def test_data_other_than_floats_parse_element_by_element(monkeypatch, dtype, data, want):
    calls = []
    parse_number = cli._parse_number
    monkeypatch.setattr(cli, "_parse_number", lambda *a: calls.append(a) or parse_number(*a))
    entry = cli._parse_tensor(_tensor(dtype, data), "a", want_data=True)
    assert entry.data.tolist() == want
    assert len(calls) == len(data)


@pytest.mark.parametrize(
    "dtype, data, message",
    [
        ("r64", [1.0, True], "bad element True"),
        ("r64", [1.0, "2.0"], "bad element '2.0'"),
        ("r64", [1.0, None], "bad element None"),
        ("r32", [[1.0, 2.0]], "bad element [1.0, 2.0]"),
        ("c64", [[1.0, 2.0], [1.0]], "bad element [1.0]"),
        ("c64", [[1.0, 2.0], [1.0, 2.0, 3.0]], "bad element [1.0, 2.0, 3.0]"),
        ("c32", [[1.0, True]], "bad element [1.0, True]"),
        ("c32", [[1.0, 10**400]], "element beyond float's range"),
    ],
)
def test_data_the_element_parser_rejects_keep_its_code(dtype, data, message):
    with pytest.raises(TappError) as err:
        cli._parse_tensor(_tensor(dtype, data), "a", want_data=True)
    assert err.value.code is ErrorCode.ERR_PARSE
    assert message in str(err.value)


@pytest.mark.parametrize(
    "extents, strides, code",
    [
        # Neither stride exceeds the span below it: 2**21 addresses to try.
        ((2048, 1024), (1, 1000), ErrorCode.ERR_UNSUPPORTED),
        ((3, 3), (1, 2), ErrorCode.ERR_ALIASING),  # 2 = 2*1 + 0*2: enumerated
        ((2, 3), (3, 2), ErrorCode.OK),
    ],
)
def test_output_injectivity_is_decided_alike_within_the_enumeration_budget(
    extents, strides, code
):
    broadcast = {"dtype": "r64", "extents": list(extents), "strides": [0, 0], "data": [1.5]}
    doc = {
        "einsum": "ij,->ij",
        "alpha": 1.0,
        "beta": 1.0,
        "a": broadcast,
        "b": {"dtype": "r64", "extents": [], "data": [2.0]},
        "c": broadcast,
        "d": {"dtype": "r64", "extents": list(extents), "strides": list(strides)},
    }
    t0 = time.perf_counter()
    result = check_case(parse_case(doc))
    assert time.perf_counter() - t0 < 0.5
    assert result.passed, result.detail
    assert result.engine_code is code and result.oracle_code is code


def test_parsed_buffers_are_read_only_and_c_defaults_to_zeros():
    case = parse_case(MATMUL_DOC)
    for entry in (case.a, case.b, case.c):
        assert not entry.data.flags.writeable
    assert case.c.extents == case.d.extents and case.c.strides == (1, 2)
    assert case.c.dtype is case.d.dtype and case.c.base == 0
    assert case.c.data.tolist() == [0.0] * 4


def test_error_parity_for_mismatched_paths(tmp_path, capsys):
    doc = generate_case(26, seed=0)
    code = main(["check", _write(tmp_path, doc)])
    out = json.loads(capsys.readouterr().out)
    assert code == int(ErrorCode.ERR_EXTENT_MISMATCH)
    assert out["engine_code"] == out["oracle_code"] == int(ErrorCode.ERR_EXTENT_MISMATCH)
    # Where only the oracle fails, its code is the exit code.
    only_oracle = cli.CheckResult(ErrorCode.OK, ErrorCode.ERR_ALIASING)
    assert cli._exit_code(only_oracle) == int(ErrorCode.ERR_ALIASING)


def test_mixed_dtypes_agree_with_the_oracle():
    # Both widths, real and complex, in one case, with a complex alpha:
    # the compute dtype is c64, and the r32 D keeps the real part.
    doc = {
        "einsum": "ij,jk->ik",
        "alpha": [1.0, 0.5],
        "beta": 0.5,
        "a": {"dtype": "c64", "extents": [2, 3], "data": [[1, 2], [0.5, -1], [3, 0],
                                                          [-2, 0.25], [0, 1], [1.5, 1.5]]},
        "b": {"dtype": "c32", "extents": [3, 2], "data": [[2, -1], [1, 0], [0.5, 0.5],
                                                          [-1, 3], [0, -2], [4, 1]]},
        "c": {"dtype": "r64", "extents": [2, 2], "data": [1.0, -2.0, 0.5, 3.0]},
        "d": {"dtype": "r32", "extents": [2, 2]},
    }
    result = check_case(parse_case(doc))
    assert result.engine_code is ErrorCode.OK and result.oracle_code is ErrorCode.OK
    assert result.passed, result.detail


def test_suite_small_run_passes_and_is_deterministic():
    code1, report1 = run_suite(seed=7, iterations=3)
    code2, report2 = run_suite(seed=7, iterations=3)
    assert code1 == 0
    assert report1 == report2
    assert report1["instances"] == 3 * 28
    assert set(report1["categories"]) == {str(k) for k in range(1, 29)}
    assert all(v["failed"] == 0 for v in report1["categories"].values())


def test_suite_case_filter():
    code, report = run_suite(seed=3, iterations=4, categories=[28])
    assert code == 0
    assert report["instances"] == 4
    assert list(report["categories"]) == ["28"]


def test_suite_exit_code_on_numeric_mismatch():
    # An impossible tolerance forces numeric failures; exit code is 1.
    code, report = run_suite(seed=3, iterations=1, categories=[2], tolerance=0.0)
    assert code == 1
    assert report["failures"]


@pytest.mark.parametrize(
    "category, detail",
    [(3, "operand swap diverged"), (4, "output permutation diverged")],
)
def test_metamorphic_checks_catch_a_corrupted_transformed_run(
    monkeypatch, category, detail
):
    # Corrupt only the run of the transformed case, told apart by its
    # labels, which differ from those of the document just generated.
    real_generate, real_execute = cli.generate_case, cli.execute_case
    latest = {}

    def generate(category, seed):
        doc = real_generate(category, seed)
        latest["spec"] = parse_einsum(doc["einsum"])
        return doc

    def execute(case):
        run = real_execute(case)
        if case.spec != latest["spec"] and run.code is ErrorCode.OK:
            run.d_buffer[case.d.base] += 1.0  # D's element at index 0
        return run

    monkeypatch.setattr(cli, "generate_case", generate)
    monkeypatch.setattr(cli, "execute_case", execute)
    code, report = run_suite(seed=3, iterations=4, categories=[category])
    assert code == 1
    assert len(report["failures"]) == 4
    assert all(f["detail"].startswith(detail) for f in report["failures"])


def test_an_error_category_fails_where_both_paths_run():
    # A valid document checked as category 26 is no extent mismatch.
    result = cli._check_instance(generate_case(2, 0), 26, None)
    assert not result.passed
    assert result.detail == "expected ERR_EXTENT_MISMATCH, engine OK, oracle OK"


def test_operand_swap_fails_where_the_case_does_not_execute():
    # Both paths reject a bumped B extent alike, which check_case counts
    # as agreement; category 3 then has no run to compare.
    doc = generate_case(3, 0)
    doc["b"]["extents"][0] += 1
    result = cli._check_instance(doc, 3, None)
    assert result.engine_code is not ErrorCode.OK
    assert not result.passed
    assert result.detail == "operand swap failed to execute"


def test_permuted_output_is_read_back_in_the_original_order():
    # Every permutation of a three-mode D comes up, the two 3-cycles among
    # them, which differ from their inverses: read through the returned
    # layout, the transformed run's D equals the original run's exactly.
    case = parse_case(
        {
            "einsum": "ijk,->ijk",
            "alpha": 1.0,
            "beta": 0.0,
            "a": {"dtype": "r64", "extents": [2, 3, 4], "data": list(range(24))},
            "b": {"dtype": "r64", "extents": [], "data": [1.0]},
            "d": {"dtype": "r64", "extents": [2, 3, 4]},
        }
    )
    want = cli._output(case, execute_case(case)).elements
    assert want == tuple(float(v) for v in range(24))
    seen = set()
    for seed in range(40):
        other, layout = cli._permute_output(case, random.Random(seed))
        seen.add(other.spec.labels_d)
        assert cli._output(case, execute_case(other), layout).elements == want
    assert len(seen) == 5


@pytest.mark.parametrize("einsum, d_extents", [("i,i->", []), ("i,i->i", [2])])
def test_an_output_of_fewer_than_two_modes_gets_the_plain_check(monkeypatch, einsum, d_extents):
    doc = {**_dot(einsum, [2], [2], None, d_extents), "seed": 0}
    assert cli._permute_output(parse_case(doc), random.Random(0)) is None
    executed, real_execute = [], cli.execute_case
    monkeypatch.setattr(cli, "execute_case", lambda case: executed.append(case) or real_execute(case))
    result = cli._check_instance(doc, 4, None)
    assert len(executed) == 1  # the plain check's run; no permuted one
    assert result.passed and result.detail.startswith("max relative error")


def test_check_names_both_codes_where_the_paths_disagree(monkeypatch):
    monkeypatch.setattr(cli, "oracle_case", lambda case: cli.OracleRun(ErrorCode.ERR_ALIASING))
    result = check_case(parse_case(MATMUL_DOC))
    assert (result.engine_code, result.oracle_code) == (ErrorCode.OK, ErrorCode.ERR_ALIASING)
    assert not result.passed and result.detail == "engine OK vs oracle ERR_ALIASING"


def test_suite_via_main(capsys):
    code = main(["suite", "--seed", "5", "--iterations", "2", "--case", "3"])
    captured = capsys.readouterr()
    assert code == 0
    report = _strict_json(captured.out)
    assert report["categories"]["3"]["failed"] == 0
    assert "category  3" in captured.err
    # The log line carries the category's wall time; the report does not.
    assert re.fullmatch(
        r"category  3 \(commutativity under operand swap\): 2/2 ok, \d+\.\d ms\n", captured.err
    )
    assert set(report["categories"]["3"]) == {"title", "passed", "failed", "max_rel_err"}


def test_an_empty_category_list_runs_no_category():
    # Only None means every category.
    code, report = run_suite(seed=0, iterations=1, categories=[])
    assert code == 0 and report["instances"] == 0 and report["categories"] == {}


def test_every_category_has_a_title_and_the_suite_covers_exactly_the_table():
    assert all(isinstance(r.title, str) and r.title for r in CATEGORIES.values())
    code, report = run_suite(seed=0, iterations=0)
    assert code == 0 and report["instances"] == 0
    assert list(report["categories"]) == [str(k) for k in CATEGORIES]
    assert [v["title"] for v in report["categories"].values()] == [
        r.title for r in CATEGORIES.values()
    ]


@pytest.mark.parametrize("category", [0, -1, 29, "3"])
def test_generate_case_rejects_a_category_outside_the_table(category):
    with pytest.raises(ValueError, match="no conformance category"):
        generate_case(category, 0)
