import json
import subprocess
import sys
from fractions import Fraction

from finpot import cli
from finpot.cli import main


def run_cli(*args, env=None):
    import io
    import contextlib
    import os

    old_env = {}
    if env:
        for k, v in env.items():
            old_env[k] = os.environ.get(k)
            os.environ[k] = v
    out = io.StringIO()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(args))
    finally:
        for k, v in old_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue(), err.getvalue()


def test_det_example():
    code, out, _ = run_cli("det", "--op", '{"entries":[[0,0,"1"]]}')
    assert code == 0
    assert out == '{"value": "2"}\n'


def test_residue_example():
    code, out, _ = run_cli("residue", "--f", "1/t", "--g", "t", "--place", "t")
    assert code == 0
    assert out == '{"value": "1"}\n'


def test_residue_tate_route():
    code, out, _ = run_cli(
        "residue", "--f", "1/t^2", "--g", "t^2", "--route", "tate"
    )
    assert code == 0 and json.loads(out)["value"] == "2"


def test_reciprocity_example():
    code, out, _ = run_cli("reciprocity", "--f", "t", "--g", "1/(t-1)")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"product": "1 + O(z^8)", "sum": "0"}


def test_trace_and_detpoly():
    op = '{"entries":[[0,0,"1"],[1,1,"2"]]}'
    code, out, _ = run_cli("trace", "--op", op)
    assert json.loads(out) == {"value": "3"}
    code, out, _ = run_cli("detpoly", "--op", op)
    assert json.loads(out) == {"coeffs": {"0": "1", "1": "3", "2": "2"}}


def test_exterior_and_ast():
    op = '{"entries":[[0,0,"1"],[1,1,"2"]]}'
    code, out, _ = run_cli("exterior", "--op", op, "--r", "2")
    assert json.loads(out) == {"value": "2"}
    code, out, _ = run_cli("ast", "--op", '{"entries":[[0,1,"1"]]}')
    payload = json.loads(out)
    assert payload["core_dim"] == 0 and payload["nil_degree"] == 1


def test_invert_round_trip():
    op = '{"entries":[[0,0,"1"]]}'
    code, out, _ = run_cli("invert", "--op", op)
    assert json.loads(out) == {"entries": [[0, 0, "-1/2"]], "tail": None}


def test_series_verbs():
    op = '{"entries":[[0,0,"1"]]}'
    code, out, _ = run_cli("logdet", "--op", op, "--prec", "4")
    payload = json.loads(out)
    assert payload["coeffs"] == {"0": "1", "1": "1"}
    code, out, _ = run_cli("regdet", "--op", op, "--m", "2", "--prec", "4")
    payload = json.loads(out)
    assert payload["coeffs"]["2"] == "-1/2"
    code, out, _ = run_cli("ps-series", "--op", op, "--order", "3")
    assert json.loads(out) == {"coeffs": {"0": "1", "1": "1"}}


def test_exp_and_zassenhaus():
    op = '{"entries":[[0,1,"1"]]}'
    code, out, _ = run_cli("exp", "--op", op, "--prec", "6")
    payload = json.loads(out)
    assert payload["terms"] == {"1": {"entries": [[0, 1, "1"]], "tail": None}}
    f = '{"entries":[[1,0,"1"]]}'
    g = '{"entries":[[0,1,"1"]]}'
    code, out, _ = run_cli("zassenhaus", "--f", f, "--g", g)
    payload = json.loads(out)
    assert payload["holds"] is True
    assert payload["c1"]["entries"] == [[0, 0, "-1"], [1, 1, "1"]]


def test_infprod():
    fam = json.dumps(
        [[2, {"entries": [[0, 0, "1"]]}], [3, {"entries": [[0, 1, "1"]]}]]
    )
    code, out, _ = run_cli("infprod", "--family", fam, "--m", "2", "--prec", "5")
    payload = json.loads(out)
    assert payload["coeffs"] == {"0": "1", "2": "1", "4": "1/2"}


def test_cocycle_and_pairing():
    code, out, _ = run_cli("cocycle", "--f", "1/t", "--g", "t", "--place", "t")
    payload = json.loads(out)
    assert payload["coeffs"]["2"] == "1/2"
    code, out, _ = run_cli("pairing", "--f", "1/t", "--g", "t")
    assert json.loads(out)["coeffs"]["2"] == "1"


def test_sw_pairing():
    code, out, _ = run_cli("sw-pairing", "--f", "z", "--ftilde", "z^-1", "--T", "8")
    payload = json.loads(out)
    assert code == 0
    assert payload["exponent"] == "1"
    assert payload["matches_residue"] is True
    assert abs(payload["truncated_float"] - 2.718281828) < 1e-6


def test_selftest():
    code, out, _ = run_cli("selftest")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_deterministic_output():
    args = ("reciprocity", "--f", "(t^2+1)/(t-2)", "--g", "t^3")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second and first[0] == 0


def test_error_exit_codes():
    code, out, _ = run_cli("invert", "--op", '{"entries":[[0,0,"-1"]]}')
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "not_invertible"

    code, _, err = run_cli("residue", "--f", "1/(", "--g", "t")
    assert code == 2

    code, _, err = run_cli("det", "--op", "{bad json")
    assert code == 2


def test_env_precision_override():
    code, out, _ = run_cli(
        "cocycle", "--f", "1/t", "--g", "t", env={"FINPOT_PREC": "4"}
    )
    assert json.loads(out)["prec"] == 4


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "finpot.cli", "det", "--op", '{"entries":[[0,0,"1"]]}'],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"value": "2"}\n'


def test_operator_from_file(tmp_path):
    path = tmp_path / "op.json"
    path.write_text('{"entries":[[0,0,"1"]]}')
    code, out, _ = run_cli("det", "--op", str(path))
    assert code == 0 and json.loads(out) == {"value": "2"}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "finpot", "trace", "--op", '{"entries":[[0,0,"3"]]}'],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0 and json.loads(proc.stdout) == {"value": "3"}


def _assert_parse_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and "Traceback" not in err


def test_bad_precision_variable_is_a_parse_error():
    _assert_parse_error(
        *run_cli("cocycle", "--f", "1/t", "--g", "t", env={"FINPOT_PREC": "abc"})
    )


def test_zero_denominator_in_operator_is_a_parse_error():
    _assert_parse_error(*run_cli("det", "--op", '{"entries":[[0,0,"1/0"]]}'))


def test_zero_denominator_in_family_is_a_parse_error():
    fam = json.dumps([[1, {"entries": [[0, 0, "1/0"]]}]])
    _assert_parse_error(*run_cli("infprod", "--family", fam, "--m", "2"))


def test_deeply_nested_expression_is_a_parse_error():
    proc = subprocess.run(
        [sys.executable, "-m", "finpot", "residue", "--g", "t",
         "--f", "(" * 3000 + "t" + ")" * 3000],
        capture_output=True,
        text=True,
    )
    _assert_parse_error(proc.returncode, proc.stdout, proc.stderr)


def test_constant_place_is_a_parse_error():
    _assert_parse_error(*run_cli("residue", "--f", "t", "--g", "t", "--place", "1"))


def test_zero_place_is_a_parse_error():
    _assert_parse_error(*run_cli("residue", "--f", "t", "--g", "t", "--place", "0"))


def _assert_bad_operator_payload(code, out, err):
    _assert_parse_error(code, out, err)
    assert err.startswith("parse error: bad operator payload")


def test_operator_file_holding_a_list_is_a_parse_error(tmp_path):
    path = tmp_path / "op.json"
    path.write_text("[1,2]")
    _assert_bad_operator_payload(*run_cli("det", "--op", str(path)))


def test_operator_tail_that_is_not_an_object_is_a_parse_error():
    _assert_bad_operator_payload(
        *run_cli("det", "--op", '{"entries": [[0,0,"1"]], "tail": 5}'))


def test_family_member_that_is_not_an_object_is_a_parse_error():
    _assert_bad_operator_payload(*run_cli("infprod", "--family", "[[1, 5]]", "--m", "1"))


def test_inline_operator_list_is_read_as_json():
    _assert_bad_operator_payload(*run_cli("det", "--op", "[1,2]"))
    _assert_bad_operator_payload(*run_cli("det", "--op", "  [1,2]"))


def test_operator_literals_other_than_integers_and_fractions_are_parse_errors():
    import time

    # Fraction() would read exponent and decimal notation: "1e30000000"
    # ran for more than 30 s, "1e5000" exited 1 past int()'s digit limit
    start = time.perf_counter()
    for value in ("1e30000000", "1e5000", "1.5", "0x10", "1_000", "1/-2", ""):
        op = json.dumps({"entries": [[0, 0, value]]})
        _assert_bad_operator_payload(*run_cli("det", "--op", op))
    for tail in ({"kind": "jordan_blocks", "block_size": 3, "start": 4, "coeffs": ["1e3"]},
                 {"kind": "jordan_blocks", "block_size": 3, "start": 4, "coeffs": [0.5]}):
        op = json.dumps({"entries": [[0, 0, "1"]], "tail": tail})
        _assert_bad_operator_payload(*run_cli("det", "--op", op))
    _assert_bad_operator_payload(*run_cli("det", "--op", '{"entries":[[0,0,"%s"]]}' % ("9" * 5000)))
    assert time.perf_counter() - start < 1
    code, out, _ = run_cli("det", "--op", '{"entries":[[0,0," -3/4 "],[1,1,"+2"]]}')
    assert code == 0 and json.loads(out) == {"value": "3/4"}


def test_operator_indices_must_be_integers():
    # int() truncated 1.5 to 1 and read true as 1
    for entry in ("[1.5, 0, \"1\"]", "[0, true, \"1\"]", "[0, null, \"1\"]"):
        _assert_bad_operator_payload(*run_cli("det", "--op", '{"entries":[%s]}' % entry))
    for key, value in (("block_size", 2.5), ("start", "4.0")):
        tail = {"kind": "jordan_blocks", "block_size": 3, "start": 4}
        tail[key] = value
        op = json.dumps({"entries": [[0, 0, "1"]], "tail": tail})
        _assert_bad_operator_payload(*run_cli("det", "--op", op))
    fam = json.dumps([[1.5, {"entries": [[0, 0, "1"]]}]])
    _assert_parse_error(*run_cli("infprod", "--family", fam, "--m", "2"))


def test_tail_block_size_above_the_limit_is_a_parse_error():
    import time

    # invert sums one term per block row: 10^8 rows ran for more than 15 s
    start = time.perf_counter()
    for verb in ("invert", "det"):
        tail = {"kind": "jordan_blocks", "block_size": 10**8, "start": 4,
                "coeffs": ["1/2", "1/3"]}
        code, out, err = run_cli(verb, "--op", json.dumps({"entries": [[0, 0, "1"]],
                                                           "tail": tail}))
        _assert_parse_error(code, out, err)
        assert "tail block size 100000000 exceeds the limit %d" % cli.MAX_BLOCK_SIZE in err
    fam = json.dumps([[1, {"entries": [], "tail": tail}]])
    _assert_parse_error(*run_cli("infprod", "--family", fam, "--m", "2"))
    assert time.perf_counter() - start < 1
    tail["block_size"] = 8
    code, _, _ = run_cli("invert", "--op", json.dumps({"entries": [[0, 0, "1"]], "tail": tail}))
    assert code == 0


def test_exponent_above_the_limit_is_a_parse_error():
    code, out, err = run_cli("residue", "--f", "t^99999999", "--g", "t")
    _assert_parse_error(code, out, err)
    assert "exceeds the limit 1000" in err
    _assert_parse_error(*run_cli("residue", "--f", "t^-1001", "--g", "t"))
    _assert_parse_error(*run_cli("residue", "--f", "t^" + "9" * 5000, "--g", "t"))
    code, out, _ = run_cli("residue", "--f", "t^-1000", "--g", "t")
    assert code == 0 and json.loads(out) == {"value": "0"}


def test_overlong_integer_literal_is_a_parse_error():
    _assert_parse_error(*run_cli("residue", "--f", "9" * 5000, "--g", "t"))


def test_intermediate_degree_above_the_limit_is_a_parse_error():
    for f in ("(t+1)^1000*(t+2)^1000", "(t^2+1)^501", "1/(t+1)^600 + 1/(t+2)^600",
              "(t+1)^600/(t+2)^-600"):
        code, out, err = run_cli("residue", "--f", f, "--g", "t")
        _assert_parse_error(code, out, err)
        assert "degree" in err and "exceeds the limit 1000" in err
    code, out, _ = run_cli("residue", "--f", "(t+1)^1000", "--g", "t")
    assert code == 0 and json.loads(out) == {"value": "0"}


def test_pairing_size_above_the_limit_is_a_parse_error():
    code, out, err = run_cli("sw-pairing", "--f", "z", "--ftilde", "z^-1", "--T", "3000")
    _assert_parse_error(code, out, err)
    assert "T = 3000 exceeds the limit 40" in err


def test_precision_above_the_limit_is_a_parse_error():
    code, out, err = run_cli("cocycle", "--f", "1/t", "--g", "t", env={"FINPOT_PREC": "100000"})
    _assert_parse_error(code, out, err)
    assert "precision 100000 exceeds the limit 1024" in err
    _assert_parse_error(*run_cli("logdet", "--op", '{"entries": [[0, 0, "1"]]}', "--prec", "1025"))
    code, out, _ = run_cli("cocycle", "--f", "1/t", "--g", "t", env={"FINPOT_PREC": "1024"})
    assert code == 0 and json.loads(out)["prec"] == 1024


def test_ps_series_order_above_the_limit_is_a_parse_error():
    op = '{"entries": [[0, 0, "1/2"]]}'
    code, out, err = run_cli("ps-series", "--op", op, "--order", "65")
    _assert_parse_error(code, out, err)
    assert "order 65 exceeds the limit 64" in err
    code, out, _ = run_cli("ps-series", "--op", op, "--order", "64")
    assert code == 0 and json.loads(out) == {"coeffs": {"0": "1", "1": "1/2"}}


def test_sw_pairing_prints_at_large_T():
    """The value is rounded to a multiple of 2^-128, so it prints as a short
    rational at every T up to the cap."""
    for T in ("28", "40"):
        code, out, err = run_cli("sw-pairing", "--f", "z", "--ftilde", "z^-1", "--T", T)
        assert code == 0 and err == ""
        data = json.loads(out)
        num, den = data["truncated"].split("/")
        assert int(den) <= 2**128 and 2**128 % int(den) == 0
        assert len(data["truncated"]) <= 80
        assert abs(data["truncated_float"] - 2.718281828459045) < 1e-15


def test_pairing_coefficient_size_above_the_limit_is_a_parse_error():
    import time

    start = time.perf_counter()
    code, out, err = run_cli("sw-pairing", "--f", "1000*z", "--ftilde", "1000*z^-1", "--T", "20")
    assert time.perf_counter() - start < 1
    _assert_parse_error(code, out, err)
    assert "coefficient size 2000 exceeds the limit 40" in err
    code, out, err = run_cli("sw-pairing", "--f", "z/2+39*z^2", "--ftilde=-z^-1", "--T", "9")
    _assert_parse_error(code, out, err)
    assert "coefficient size 81/2 exceeds the limit 40" in err
    code, out, _ = run_cli("sw-pairing", "--f", "20*z", "--ftilde", "20*z^-1", "--T", "20")
    assert code == 0 and json.loads(out)["exponent"] == "400"


def test_sw_pairing_beyond_float_range_prints_a_null_float():
    # exp(2000) has no float: the exact value prints, its float is null
    code, out, err = run_cli("sw-pairing", "--f", "20*z^5", "--ftilde", "20*z^-5", "--T", "11")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert set(data) == {"exponent", "matches_residue", "truncated", "truncated_float"}
    assert data["exponent"] == "2000" and data["truncated_float"] is None
    assert Fraction(data["truncated"]) > 2**1024


def test_finite_float_is_null_beyond_the_float_range():
    assert cli._finite_float(Fraction(15 * 10**400, 7)) is None
    assert cli._finite_float(-Fraction(10**400, 3)) is None
    assert cli._finite_float(Fraction(1, 10**400)) == 0.0
    assert cli._finite_float(Fraction(5, 2)) == 2.5


def test_sw_pairing_default_T_prints():
    code, out, _ = run_cli("sw-pairing", "--f", "z", "--ftilde", "z^-1")
    assert code == 0
    data = json.loads(out)
    assert data["exponent"] == "1" and data["matches_residue"] is True
    assert abs(data["truncated_float"] - 2.718281828459045) < 1e-8


def test_regdet_order_above_the_precision():
    op = '{"entries": [[0, 0, "1/2"], [0, 1, "1"], [1, 1, "2"]]}'
    code, out, _ = run_cli("regdet", "--op", op, "--m", "1000000", "--prec", "4")
    assert code == 0
    assert out == run_cli("regdet", "--op", op, "--m", "4", "--prec", "4")[1]


def test_place_degree_above_the_limit_is_a_parse_error():
    import time

    # the cap comes before the place's squarefree test and any expansion
    start = time.perf_counter()
    code, out, err = run_cli("residue", "--f", "1/(t^300+t+1)", "--g", "t",
                             "--place", "t^300+t+1")
    assert time.perf_counter() - start < 1
    _assert_parse_error(code, out, err)
    assert "place of degree 300 exceeds the limit 60" in err
    _assert_parse_error(*run_cli("cocycle", "--f", "t", "--g", "t", "--place", "t^61-2"))
    code, out, _ = run_cli("residue", "--f", "1/(t^60-2)", "--g", "t^2", "--place", "t^60-2")
    assert code == 0 and json.loads(out) == {"value": "0"}


def test_reducible_place_gives_the_sum_over_its_places():
    # f dg = t^2/((t-1)^2 (t+1)) dt: residue 3/4 at t = 1 and 1/4 at t = -1
    args = ("--f", "1/((t-1)^2*(t+1))", "--g", "t^3/3")
    values = [json.loads(run_cli("residue", *args, "--place", p)[1])["value"]
              for p in ("t^2-1", "t-1", "t+1")]
    assert values == ["1", "3/4", "1/4"]
    code, out, _ = run_cli("pairing", *args, "--place", "t^2-1", "--prec", "4")
    assert code == 0  # symbol values multiply: exp(3/4 z^2) exp(1/4 z^2)
    assert json.loads(out)["coeffs"] == {"0": "1", "2": "1"}


def test_place_with_a_repeated_factor_is_refused():
    for place in ("t^2-2*t+1", "(t^2+1)^2*(t-3)"):
        code, out, _ = run_cli("residue", "--f", "1/t", "--g", "t", "--place", place)
        assert code == 1
        assert json.loads(out) == {"detail": "place polynomial must be squarefree",
                                   "error": "domain"}


def test_reciprocity_at_a_high_degree_pole():
    code, out, _ = run_cli("reciprocity", "--f", "1/(t^200+t+1)", "--g", "t")
    assert code == 0 and json.loads(out) == {"product": "1 + O(z^8)", "sum": "0"}


def test_empty_operator_series_precision_is_a_precision_error():
    """exp and zassenhaus at a precision below 1 know no degree of the
    series: a structured precision error, as logdet gives, not an empty
    series or a vacuous identity check."""
    op = '{"entries":[[0,0,"1"]]}'
    f, g = '{"entries":[[1,0,"1"]]}', '{"entries":[[0,1,"1"]]}'
    for prec in ("0", "-3"):
        for args in (("exp", "--op", op), ("zassenhaus", "--f", f, "--g", g)):
            code, out, err = run_cli(*args, "--prec", prec)
            assert (code, err) == (1, "")
            payload = json.loads(out)
            assert payload["error"] == "precision"
            assert payload["detail"] == "empty precision window [0, %s)" % prec


def test_symbol_precision_below_3_is_a_precision_error():
    """A symbol value exp(z^2 r) carries r only from precision 3 up: the
    symbol verbs exit 1 with a precision error below it, whatever the
    residue, instead of a domain error or a vacuous 1 + O(z^2)."""
    for verb in ("cocycle", "pairing", "reciprocity"):
        for f in ("1/t", "t"):
            for prec in ("1", "2"):
                code, out, err = run_cli(verb, "--f", f, "--g", "t", "--prec", prec)
                assert (code, err) == (1, "")
                assert json.loads(out)["error"] == "precision"


def test_format_flag_is_rejected():
    """Output is JSON only: --format is not an option."""
    code, out, err = run_cli("--format", "text", "residue", "--f", "1/t", "--g", "t")
    assert code == 2 and out == "" and err.startswith("usage: finpot")
