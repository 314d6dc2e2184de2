import csv
import hashlib
import io
import json
import time

import pytest

from drinfeld import cli, closedform, curve, modrep
from drinfeld.cli import build_parser, main, run
from drinfeld.ff import make_field

GOLDEN_B32 = (
    '{"summands":[{"a":0,"b":1,"mult":1},{"a":1,"b":2,"mult":1},'
    '{"a":0,"b":3,"mult":1}]}\n'
)


def _capture(argv):
    buf = io.StringIO()
    status = run(build_parser().parse_args(argv), stream=buf)
    return status, buf.getvalue()


# -- golden outputs ------------------------------------------------------------


def test_decompose_json_golden_bytes():
    status, out = _capture(["decompose", "--p", "3", "--m", "2", "--format", "json"])
    assert status == 0
    assert out == GOLDEN_B32


def test_factors_text_golden():
    status, out = _capture(["factors", "--p", "5", "--m", "2"])
    assert status == 0
    assert out == "d = [1,2,3,2,1]\n"


def test_basis_text_header_and_rows():
    status, out = _capture(["basis", "--p", "3", "--m", "2"])
    assert status == 0
    lines = out.splitlines()
    assert lines[0] == "q=3 m=2 dim=6"
    assert lines[1] == "w(0,0)  degree 0"
    assert len(lines) == 7


# sha256 of stdout for `action` over GF(9) and GF(27), in every format
GOLDEN_ACTION_EXT_SHA256 = {
    ("--p 3 --r 2 --m 2 --element 0,1 1 1 0,1", "json"):
        "6424b4530c83c1e57beeed0ec78f9677caceed01f6e3b7e576076aea44d63b3c",
    ("--p 3 --r 3 --m 2 --element 0,1,0 1 1 0,2,1", "json"):
        "6d710ebbcb3f0050a24f52636a338d125df2a8279816ff96f902f4ec6d150f69",
    ("--p 3 --r 2 --m 2 --element 0,1 1 1 0,1", "csv"):
        "8cc8a4ebb04c8fdf6c6b60640e2277c3e3fd3680a556606fe04209edd2b05a07",
    ("--p 3 --r 3 --m 2 --element 0,1,0 1 1 0,2,1", "csv"):
        "78d97100bd1f9f5b4cc68121fa502c885c5bc10c3c5fe74a480d89d1a98dc1b3",
    ("--p 3 --r 2 --m 2 --element 0,1 1 1 0,1", "text"):
        "6cd35faf09e3f2aa8c42e40925a11cc61d31e96a831be69d38a6ed9bd39b12e2",
    ("--p 3 --r 3 --m 2 --element 0,1,0 1 1 0,2,1", "text"):
        "477dc8b9e3c648a063b7ac75ed8cf65417ed6a43451ca5b41918e2d1e8eca484",
}


@pytest.mark.parametrize("args,fmt", sorted(GOLDEN_ACTION_EXT_SHA256))
def test_action_extension_field_golden_sha256(args, fmt):
    status, out = _capture(["action", *args.split(), "--format", fmt])
    assert status == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN_ACTION_EXT_SHA256[(args, fmt)]


# sha256 of stdout for `action` with multi-character cells: two-digit
# residues over GF(13), and coefficient vectors over GF(25) (dim 300)
GOLDEN_ACTION_WIDE_SHA256 = {
    ("--p 13 --m 2 --element 1 1 0 1", "json"):
        "ee6ee761b56e1f9663bef74b65b700d4f26cc2a07440e2a40b5c40ebc6165e03",
    ("--p 13 --m 2 --element 1 1 0 1", "csv"):
        "ce6e98cde0f925385ba4d615f60010fe92665c40e4fe6311e571264d08f4f36f",
    ("--p 13 --m 2 --element 1 1 0 1", "text"):
        "8ab814c509aaf52dca524f10e90261e4f94203f82ec321c6f37fd64ed69343cf",
    ("--p 5 --r 2 --m 1 --element 0,1 1 1 3,3", "json"):
        "ee1e7f26e65c313ef3a704081f1f460cfee4f5c1e2ff35ded3e5744887230a02",
    ("--p 5 --r 2 --m 1 --element 0,1 1 1 3,3", "csv"):
        "198e717d87c02fb71c0a6e49dcad56f8153edca5175a6f15867707e8dc28e00b",
    ("--p 5 --r 2 --m 1 --element 0,1 1 1 3,3", "text"):
        "e91c9da36533f1b9e3d7d0e98861a4c47fdf5749ae60420e2eb5228b64e6ae32",
}


@pytest.mark.parametrize("args,fmt", sorted(GOLDEN_ACTION_WIDE_SHA256))
def test_action_wide_cells_golden_sha256(args, fmt):
    status, out = _capture(["action", *args.split(), "--format", fmt])
    assert status == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN_ACTION_WIDE_SHA256[(args, fmt)]



# sha256 of stdout for `decompose --oracle`, in every format
GOLDEN_ORACLE_SHA256 = {
    ("5", "2", "json"): "90aec5a69fc9c799836f16af69492490fef41289cba730b82a2182f4e23b00c9",
    ("5", "2", "csv"): "33cf2534857e06c1ee09b6bfd5407ddf23826322cd6e1af5840f589df8f218ab",
    ("5", "2", "text"): "3a758690824524433c0e99b1d21cb214a3ae42f02fe114203ce250ba0a36195b",
    ("7", "4", "json"): "8a4e00ef9cadd346c2852b0b3d3e435a8cfd890034ddb25d51eeadcbfcb27e77",
    ("7", "4", "csv"): "b123f6af0d68aa24dde248d08bd30a89f26d1922d80e536136ecc78d4d5a1b94",
    ("7", "4", "text"): "fcdca6fbcf71b313c42ce4c7b78080e5b81a4446a030f4c05f7e61f2e1c84c36",
    ("11", "4", "json"): "92aebcefb001ee2f42ee20a013ab1ce7124fcab43ab0116c53352f8eb456dab5",
    ("11", "4", "csv"): "cee56ac900b5f283de925188753b6ec99e3743cfaf4395b162272506501f0358",
    ("11", "4", "text"): "64ef99179e9714e4d9b9cd77115151f2923c32815c2c7e9c3b63495166d7477e",
}


@pytest.mark.parametrize("p,m,fmt", sorted(GOLDEN_ORACLE_SHA256))
def test_decompose_oracle_builds_no_w_and_keeps_its_golden_sha256(monkeypatch, p, m, fmt):
    # the B-oracle reads rho(u) and rho(t) alone, so no block builds rho(w)
    seen = []
    real = curve.linear_form_powers

    def recorded(sigma, top):
        seen.append(sigma)
        return real(sigma, top)

    monkeypatch.setattr(curve, "linear_form_powers", recorded)
    status, out = _capture(["decompose", "--p", p, "--m", m, "--oracle", "--format", fmt])
    assert status == 0
    ctx = make_field(int(p))
    assert seen == [modrep.u_gen(ctx), modrep.t_gen(ctx)]
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ORACLE_SHA256[(p, m, fmt)]


# -- JSON structure -------------------------------------------------------------


def test_basis_json_round_trip():
    status, out = _capture(["basis", "--p", "5", "--m", "2", "--format", "json"])
    doc = json.loads(out)
    assert status == 0
    assert doc["q"] == 5 and doc["m"] == 2 and doc["dim"] == 27
    assert len(doc["basis"]) == 27
    assert set(doc["basis"][0]) == {"i", "j", "degree"}
    assert json.loads(json.dumps(doc)) == doc


def test_action_json_identity():
    status, out = _capture(
        ["action", "--p", "3", "--m", "2", "--element", "1", "0", "0", "1",
         "--format", "json"]
    )
    doc = json.loads(out)
    assert status == 0
    n = len(doc["matrix"])
    assert n == 6
    assert doc["element"] == [[1, 0], [0, 1]]
    for i, row in enumerate(doc["matrix"]):
        assert row == [1 if j == i else 0 for j in range(n)]


def test_action_r2_coefficient_vectors():
    # diag(x, 2x) over GF(9) has determinant 2x^2 = 1 since x^2 = -1
    status, out = _capture(
        ["action", "--p", "3", "--r", "2", "--m", "1",
         "--element", "0,1", "0", "0", "0,2", "--format", "json"]
    )
    doc = json.loads(out)
    assert status == 0
    assert doc["q"] == 9
    assert doc["element"][0][0] == [0, 1]
    assert len(doc["matrix"]) == 36
    assert all(isinstance(cell, list) for row in doc["matrix"] for cell in row)


def test_decompose_g_json_keys():
    status, out = _capture(
        ["decompose", "--p", "5", "--m", "2", "--group", "G", "--format", "json"]
    )
    doc = json.loads(out)
    assert status == 0
    assert set(doc) == {"summands", "projectives", "factors"}
    assert {(r["a"], r["b"]) for r in doc["summands"]} == {
        (1, 1),
        (0, 2),
        (3, 2),
        (2, 3),
        (1, 4),
    }
    assert doc["projectives"] == [{"t": 5, "n": 1}]
    assert [r["d"] for r in doc["factors"]] == [1, 2, 3, 2, 1]


def test_decompose_g_text_factor_line():
    status, out = _capture(["decompose", "--p", "5", "--m", "2", "--group", "G"])
    assert status == 0
    assert "factors: d = [1,2,3,2,1]" in out
    assert "P(V_5) x 1" in out


def test_verify_json_and_exit_status():
    status, out = _capture(["verify", "--p", "3", "--m", "2", "--format", "json"])
    doc = json.loads(out)
    assert status == 0
    assert doc["all_passed"] is True
    assert [c["name"] for c in doc["checks"]] == [
        "B-decomposition",
        "composition factors",
        "G-decomposition dimension",
        "implied factors",
    ]
    assert all(c["passed"] for c in doc["checks"])


def test_verify_text():
    status, out = _capture(["verify", "--p", "3", "--m", "2"])
    assert status == 0
    assert out.startswith("verify p=3 m=2\n")
    assert "result: all checks passed" in out


def test_decompose_oracle_agrees():
    status, out = _capture(
        ["decompose", "--p", "5", "--m", "2", "--oracle", "--format", "json"]
    )
    doc = json.loads(out)
    assert status == 0
    assert doc["diff"] == []
    assert doc["oracle"] == doc["summands"]
    status, out = _capture(["decompose", "--p", "3", "--m", "2", "--oracle"])
    assert status == 0
    assert "diff: none (oracle agrees)" in out


def test_sweep_default_grid():
    status, out = _capture(["sweep", "--format", "json"])
    doc = json.loads(out)
    assert status == 0
    assert doc["all_passed"] is True
    assert [(rec["p"], rec["m"]) for rec in doc["grid"]] == [
        (3, 2),
        (3, 3),
        (5, 2),
        (5, 3),
        (7, 2),
        (7, 3),
    ]


def test_sweep_custom_grid_text():
    status, out = _capture(["sweep", "--p-values", "3", "--m-values", "2"])
    assert status == 0
    assert out.rstrip().endswith("sweep: all passed")


# -- CSV projections --------------------------------------------------------------


def _parse_csv(out):
    return list(csv.reader(io.StringIO(out)))


def test_csv_headers():
    cases = {
        ("basis", "--p", "3", "--m", "2"): ["i", "j", "degree"],
        ("decompose", "--p", "3", "--m", "2"): ["a", "b", "mult"],
        ("factors", "--p", "3", "--m", "2"): ["t", "d"],
        ("verify", "--p", "3", "--m", "2"): ["p", "m", "check", "passed", "detail"],
    }
    for argv, header in cases.items():
        status, out = _capture(list(argv) + ["--format", "csv"])
        rows = _parse_csv(out)
        assert status == 0
        assert rows[0] == header


def test_csv_decompose_values():
    _, out = _capture(["decompose", "--p", "3", "--m", "2", "--format", "csv"])
    rows = _parse_csv(out)
    assert rows[1:] == [["0", "1", "1"], ["1", "2", "1"], ["0", "3", "1"]]


def test_csv_decompose_oracle_columns():
    _, out = _capture(
        ["decompose", "--p", "3", "--m", "2", "--oracle", "--format", "csv"]
    )
    rows = _parse_csv(out)
    assert rows[0] == ["a", "b", "closed", "oracle"]
    assert all(r[2] == r[3] for r in rows[1:])


def test_csv_action_flat_cells():
    _, out = _capture(
        ["action", "--p", "3", "--r", "2", "--m", "1",
         "--element", "0,1", "0", "0", "0,2", "--format", "csv"]
    )
    rows = _parse_csv(out)
    assert rows[0] == ["row", "col", "value"]
    assert len(rows) == 1 + 36 * 36
    assert all(";" in r[2] or r[2].isdigit() for r in rows[1:])


# -- error handling ----------------------------------------------------------------


def test_exit_2_on_invalid_inputs(capsys):
    cases = [
        ["basis", "--p", "4", "--m", "1"],
        ["decompose", "--p", "3", "--r", "2", "--m", "2"],
        ["decompose", "--p", "3", "--m", "1"],
        ["decompose", "--p", "3", "--m", "2", "--group", "G", "--oracle"],
        ["factors", "--p", "9", "--m", "2"],
        ["action", "--p", "3", "--m", "1", "--element", "1", "0", "0", "2"],
        ["verify", "--p", "3", "--r", "2", "--m", "2"],
        ["sweep", "--p-values", "3,x"],
        ["sweep", "--m-values", "2,y"],
        ["action", "--p", "3", "--r", "7", "--m", "1", "--element", "1", "0", "0", "1"],
        ["action", "--p", "5", "--r", "3", "--m", "2", "--element", "1", "0", "0", "1"],
        ["verify", "--p", "251", "--m", "4"],
        ["action", "--p", "3", "--m", "2", "--element", "1", "0", "0", "1",
         "--out", "/nonexistent/x.json"],
        ["basis", "--p", "9", "--r", "2", "--m", "2"],
        ["decompose", "--p", "251", "--m", "4", "--oracle"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ")


def test_basis_checks_r_as_action_does(capsys):
    # r is checked with p, before q = p^r reaches genus
    for r in ("0", "-1"):
        for cmd in (["basis"], ["action", "--element", "1", "0", "0", "1"]):
            assert main([*cmd, "--p", "3", "--r", r, "--m", "2"]) == 2
            assert capsys.readouterr().err == f"error: r must be >= 1, got {r}\n"


def test_argparse_rejects_missing_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_out_writes_file(tmp_path, capsys):
    path = tmp_path / "table.json"
    status = main(
        ["decompose", "--p", "3", "--m", "2", "--format", "json", "--out", str(path)]
    )
    assert status == 0
    assert path.read_text() == GOLDEN_B32
    assert capsys.readouterr().out == ""


def test_parser_sweep_defaults():
    args = build_parser().parse_args(["sweep"])
    assert (args.p_values, args.m_values) == ("3,5,7", "2,3")
    assert (args.format, args.out, args.force) == ("text", None, False)
    buf = io.StringIO()
    assert run(build_parser().parse_args(["factors", "--p", "3", "--m", "2"]), stream=buf) == 0
    assert buf.getvalue() == "d = [1,1,1]\n"


def test_table_commands_refuse_r_above_1(capsys):
    for command in ("decompose", "factors", "verify"):
        assert main([command, "--p", "3", "--r", "2", "--m", "2"]) == 2
        assert capsys.readouterr().err == (
            f"error: {command} requires r = 1 (tables exist only for q = p)\n"
        )


def test_decompose_oracle_takes_force():
    argv = ["decompose", "--p", "5", "--m", "2", "--oracle", "--format", "json"]
    assert build_parser().parse_args(argv + ["--force"]).force
    assert _capture(argv + ["--force"]) == _capture(argv)
    assert _capture(argv)[0] == 0


def test_oracle_commands_refuse_a_bad_m_before_any_basis(monkeypatch, capsys):
    def fail(q, m):
        raise AssertionError("BasisSet must not be built for a bad m")

    monkeypatch.setattr(modrep, "BasisSet", fail)
    for argv in (["verify", "--p", "127", "--m", "1"], ["verify", "--p", "251", "--m", "1"],
                 ["decompose", "--p", "61", "--m", "1", "--oracle"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "error: m must be an integer >= 2, got 1\n", argv


def test_decompose_oracle_refuses_before_the_closed_form(monkeypatch, capsys):
    def fail(m, p):
        raise AssertionError("the size guard must refuse before the closed form")

    monkeypatch.setattr(closedform, "b_decomposition", fail)
    assert main(["decompose", "--p", "251", "--m", "4", "--oracle"]) == 2
    assert capsys.readouterr().err == (
        "error: the oracle at p=251, m=4 (dim H0 = 219618) is estimated at 4.2e+13 "
        "multiply-adds, above the limit 6e+10; pass --force (force=True) to override\n"
    )



def test_action_refuses_an_oversize_matrix_before_any_basis(monkeypatch, capsys):
    # dim H0 is a closed form, so the cell limit needs no basis enumeration
    def fail(q, m):
        raise AssertionError("BasisSet must not be built for an oversize action matrix")

    monkeypatch.setattr(cli, "BasisSet", fail)
    for p, n in ((1009, 1525605), (30011, 1350945162)):
        assert main(["action", "--p", str(p), "--m", "2", "--element", "1", "1", "0", "1"]) == 2
        assert capsys.readouterr().err == f"error: action matrix of dimension {n} exceeds 33554432 cells\n"


def test_a_large_prime_is_refused_at_once(capsys):
    # the field and dim H0 take about sqrt(p) trial divisions, then a guard refuses
    guard = (
        "error: the oracle at p=1000000007, m=2 (dim H0 = 1500000019500000060) is estimated "
        "at 3.4e+45 multiply-adds, above the limit 6e+10; pass --force (force=True) to override\n"
    )
    cases = [
        (["verify", "--p", "1000000007", "--m", "2"], guard),
        (["decompose", "--p", "1000000007", "--m", "2", "--oracle"], guard),
        (["action", "--p", "1000000007", "--m", "2", "--element", "1", "1", "0", "1"],
         "error: action matrix of dimension 1500000019500000060 exceeds 33554432 cells\n"),
    ]
    for argv, err in cases:
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 2, argv
        assert capsys.readouterr().err == err, argv


def test_closed_form_commands_refuse_a_large_prime_at_once(capsys):
    # basis, decompose and factors refuse from the closed-form size of their
    # table, before any per-cell loop or basis enumeration
    table = "the decompose table at q=1000000007, m=2 has 1000000013000000042 cells"
    cases = [
        (["factors", "--p", "1000000007", "--m", "2"],
         "the factors table at q=1000000007, m=2 has 1000000007 cells"),
        (["decompose", "--p", "1000000007", "--m", "2"], table),
        (["decompose", "--p", "1000000007", "--m", "2", "--group", "G"], table),
        (["basis", "--p", "1000000007", "--m", "2"],
         "the basis table at q=1000000007, m=2 has 1500000019500000060 cells"),
    ]
    for argv, err in cases:
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 2, argv
        assert capsys.readouterr().err == f"error: {err}, above the limit 1000000\n", argv



def test_a_huge_prime_or_prime_power_is_refused_at_once(capsys):
    # primality by Miller-Rabin, q's prime from an integer root, and action's
    # closed-form size before the field's modulus search
    P = "1000000000000000003"
    int64 = f"p must be below 2^31 for int64 arithmetic, got {P}"
    action = "action matrix of dimension {} exceeds 33554432 cells"
    cases = [
        (["verify", "--p", P, "--m", "2"], int64),
        (["factors", "--p", P, "--m", "2"],
         f"the factors table at q={P}, m=2 has {P} cells, above the limit 1000000"),
        (["basis", "--p", P, "--m", "2"], int64),
        (["decompose", "--p", P, "--m", "2"],
         f"the decompose table at q={P}, m=2 has 1000000000000000005000000000000000006 cells, "
         "above the limit 1000000"),
        (["action", "--p", P, "--m", "2", "--element", "1", "1", "0", "1"], int64),
        (["sweep", "--p-values", P, "--m-values", "2"], int64),
        (["basis", "--p", "1000000007", "--r", "2", "--m", "2"],
         "the basis table at q=1000000014000000049, m=2 has "
         "1500000042000000439500002037000003525 cells, above the limit 1000000"),
        (["action", "--p", "3", "--r", "40", "--m", "2", "--element", "1", "0", "0", "1"],
         action.format(221713244121518884955888317120989553197)),
        (["action", "--p", "1000000007", "--r", "2", "--m", "2", "--element", "1", "0", "0", "1"],
         action.format(1500000042000000439500002037000003525)),
        (["basis", "--p", "3", "--r", "30", "--m", "2"],
         "the basis table at q=205891132094649, m=2 has 63586737412823996434743507825 cells, "
         "above the limit 1000000"),
        (["action", "--p", "3", "--r", "7", "--m", "1", "--element", "1", "0", "0", "1"],
         action.format(2390391)),
    ]
    # at a huge r, dim H0 is the closed form of the checked p and r, and a
    # size too long for str is given as a power of ten, with q as p^r
    for r in ("5000", "20000"):
        cases += [
            (["basis", "--p", "3", "--r", r, "--m", "2"],
             f"the basis table at q=3^{r}, m=2 has at least 10^4300 cells, above the limit 1000000"),
            (["action", "--p", "3", "--r", r, "--m", "2", "--element", "1", "0", "0", "1"],
             action.format("at least 10^4300")),
        ]
    for argv, err in cases:
        start = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - start < 2, argv
        assert capsys.readouterr().err == f"error: {err}\n", argv


def test_a_huge_r_is_refused_before_any_power(capsys):
    # r alone decides that q = p^r has more digits than str writes, so q and
    # dim H0 are not computed, and the messages read as at a smaller huge r
    action = "action matrix of dimension at least 10^4300 exceeds 33554432 cells"
    for r in (3 * 10**6, 10**7):
        cases = [
            (["basis", "--p", "3", "--r", str(r), "--m", "2"],
             f"the basis table at q=3^{r}, m=2 has at least 10^4300 cells, above the limit 1000000"),
            (["action", "--p", "3", "--r", str(r), "--m", "2", "--element", "1", "0", "0", "1"], action),
        ]
        for argv, err in cases:
            start = time.perf_counter()
            assert main(argv) == 2, argv
            assert time.perf_counter() - start < 0.5, argv
            assert capsys.readouterr().err == f"error: {err}\n", argv


# -- goldens for every rendered document, failures included ---------------------


def _bump_longest_label(monkeypatch):
    """The B-oracle reports its longest summand U(a, b) as U(a, b + 1)."""
    labels_by_block = modrep.b_labels_by_block

    def bumped(blocks):
        labels = labels_by_block(blocks)
        lab = max(labels, key=lambda k: (k.b, k.a))
        labels[closedform.BLabel(lab.a, lab.b + 1)] = labels.pop(lab)
        return labels

    monkeypatch.setattr(modrep, "b_labels_by_block", bumped)


def _fail_one_check(monkeypatch, at):
    """verify_full reports its composition-factor check failed at (p, m) = at."""
    verify_full = modrep.verify_full

    def failing(p, m, force=False):
        report = verify_full(p, m, force=force)
        if (p, m) == at:
            report.checks[1] = modrep.CheckResult("composition factors", False, "d = (0,)")
        return report

    monkeypatch.setattr(modrep, "verify_full", failing)


GOLDEN_DECOMPOSE_G = {
    "json": (
        '{"summands":[{"a":1,"b":1,"mult":1},{"a":0,"b":2,"mult":1},{"a":3,"b":2,"mult":1},'
        '{"a":2,"b":3,"mult":1},{"a":1,"b":4,"mult":1}],"projectives":[{"t":5,"n":1}],'
        '"factors":[{"t":1,"d":1},{"t":2,"d":2},{"t":3,"d":3},{"t":4,"d":2},{"t":5,"d":1}]}\n'
    ),
    "csv": (
        "kind,a,b,t,value\n"
        "summand,1,1,,1\n"
        "summand,0,2,,1\n"
        "summand,3,2,,1\n"
        "summand,2,3,,1\n"
        "summand,1,4,,1\n"
        "projective,,,5,1\n"
        "factor,,,1,1\n"
        "factor,,,2,2\n"
        "factor,,,3,3\n"
        "factor,,,4,2\n"
        "factor,,,5,1\n"
    ),
    "text": (
        "summands:\n"
        "  U(1,1) x 1\n"
        "  U(0,2) x 1\n"
        "  U(3,2) x 1\n"
        "  U(2,3) x 1\n"
        "  U(1,4) x 1\n"
        "projective covers:\n"
        "  P(V_5) x 1\n"
        "factors: d = [1,2,3,2,1]\n"
    ),
}

GOLDEN_ORACLE_DIFF = {
    "json": (
        '{"summands":[{"a":1,"b":1,"mult":1},{"a":0,"b":2,"mult":1},{"a":3,"b":2,"mult":1},'
        '{"a":2,"b":3,"mult":1},{"a":1,"b":4,"mult":1},{"a":0,"b":5,"mult":1},'
        '{"a":2,"b":5,"mult":1},{"a":3,"b":5,"mult":1}],"oracle":[{"a":1,"b":1,"mult":1},'
        '{"a":0,"b":2,"mult":1},{"a":3,"b":2,"mult":1},{"a":2,"b":3,"mult":1},'
        '{"a":1,"b":4,"mult":1},{"a":0,"b":5,"mult":1},{"a":2,"b":5,"mult":1},'
        '{"a":3,"b":6,"mult":1}],"diff":[{"a":3,"b":5,"closed":1,"oracle":0},'
        '{"a":3,"b":6,"closed":0,"oracle":1}]}\n'
    ),
    "csv": (
        "a,b,closed,oracle\n"
        "1,1,1,1\n"
        "0,2,1,1\n"
        "3,2,1,1\n"
        "2,3,1,1\n"
        "1,4,1,1\n"
        "0,5,1,1\n"
        "2,5,1,1\n"
        "3,5,1,0\n"
        "3,6,0,1\n"
    ),
    "text": (
        "summands:\n"
        "  U(1,1) x 1\n"
        "  U(0,2) x 1\n"
        "  U(3,2) x 1\n"
        "  U(2,3) x 1\n"
        "  U(1,4) x 1\n"
        "  U(0,5) x 1\n"
        "  U(2,5) x 1\n"
        "  U(3,5) x 1\n"
        "oracle:\n"
        "  U(1,1) x 1\n"
        "  U(0,2) x 1\n"
        "  U(3,2) x 1\n"
        "  U(2,3) x 1\n"
        "  U(1,4) x 1\n"
        "  U(0,5) x 1\n"
        "  U(2,5) x 1\n"
        "  U(3,6) x 1\n"
        "diff:\n"
        "  (3,5): closed 1 != oracle 0\n"
        "  (3,6): closed 0 != oracle 1\n"
    ),
}

GOLDEN_VERIFY_FAILED = {
    "json": (
        '{"p":3,"m":2,"checks":[{"name":"B-decomposition",'
        '"passed":true,"detail":"3 summand labels match"},{"name":"composition factors",'
        '"passed":false,"detail":"d = (0,)"},{"name":"G-decomposition dimension",'
        '"passed":true,"detail":"6 == dim H0 = 6"},{"name":"implied factors",'
        '"passed":true,"detail":"claimed direct sum reproduces the oracle factors"}],'
        '"all_passed":false}\n'
    ),
    "csv": (
        "p,m,check,passed,detail\n"
        "3,2,B-decomposition,True,3 summand labels match\n"
        '3,2,composition factors,False,"d = (0,)"\n'
        "3,2,G-decomposition dimension,True,6 == dim H0 = 6\n"
        "3,2,implied factors,True,claimed direct sum reproduces the oracle factors\n"
    ),
    "text": (
        "verify p=3 m=2\n"
        "  [pass] B-decomposition: 3 summand labels match\n"
        "  [FAIL] composition factors: d = (0,)\n"
        "  [pass] G-decomposition dimension: 6 == dim H0 = 6\n"
        "  [pass] implied factors: claimed direct sum reproduces the oracle factors\n"
        "result: FAILED\n"
    ),
}

GOLDEN_SWEEP_FAILED = {
    "json": (
        '{"grid":[{"p":3,"m":2,"checks":[{"name":"B-decomposition",'
        '"passed":true,"detail":"3 summand labels match"},{"name":"composition factors",'
        '"passed":true,"detail":"d = (1, 1, 1)"},{"name":"G-decomposition dimension",'
        '"passed":true,"detail":"6 == dim H0 = 6"},{"name":"implied factors",'
        '"passed":true,"detail":"claimed direct sum reproduces the oracle factors"}],'
        '"all_passed":true},{"p":5,"m":2,"checks":[{"name":"B-decomposition",'
        '"passed":true,"detail":"8 summand labels match"},{"name":"composition factors",'
        '"passed":false,"detail":"d = (0,)"},{"name":"G-decomposition dimension",'
        '"passed":true,"detail":"27 == dim H0 = 27"},{"name":"implied factors",'
        '"passed":true,"detail":"claimed direct sum reproduces the oracle factors"}],'
        '"all_passed":false}],"all_passed":false}\n'
    ),
    "csv": (
        "p,m,check,passed,detail\n"
        "3,2,B-decomposition,True,3 summand labels match\n"
        '3,2,composition factors,True,"d = (1, 1, 1)"\n'
        "3,2,G-decomposition dimension,True,6 == dim H0 = 6\n"
        "3,2,implied factors,True,claimed direct sum reproduces the oracle factors\n"
        "5,2,B-decomposition,True,8 summand labels match\n"
        '5,2,composition factors,False,"d = (0,)"\n'
        "5,2,G-decomposition dimension,True,27 == dim H0 = 27\n"
        "5,2,implied factors,True,claimed direct sum reproduces the oracle factors\n"
    ),
    "text": (
        "verify p=3 m=2\n"
        "  [pass] B-decomposition: 3 summand labels match\n"
        "  [pass] composition factors: d = (1, 1, 1)\n"
        "  [pass] G-decomposition dimension: 6 == dim H0 = 6\n"
        "  [pass] implied factors: claimed direct sum reproduces the oracle factors\n"
        "result: all checks passed\n"
        "verify p=5 m=2\n"
        "  [pass] B-decomposition: 8 summand labels match\n"
        "  [FAIL] composition factors: d = (0,)\n"
        "  [pass] G-decomposition dimension: 27 == dim H0 = 27\n"
        "  [pass] implied factors: claimed direct sum reproduces the oracle factors\n"
        "result: FAILED\n"
        "sweep: FAILED\n"
    ),
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_decompose_g_golden_bytes(fmt):
    argv = ["decompose", "--p", "5", "--m", "2", "--group", "G", "--format", fmt]
    assert _capture(argv) == (0, GOLDEN_DECOMPOSE_G[fmt])


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_decompose_oracle_diff_golden_bytes(monkeypatch, fmt):
    _bump_longest_label(monkeypatch)
    argv = ["decompose", "--p", "5", "--m", "2", "--oracle", "--format", fmt]
    assert _capture(argv) == (1, GOLDEN_ORACLE_DIFF[fmt])


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_failed_verify_golden_bytes(monkeypatch, fmt):
    _fail_one_check(monkeypatch, (3, 2))
    argv = ["verify", "--p", "3", "--m", "2", "--format", fmt]
    assert _capture(argv) == (1, GOLDEN_VERIFY_FAILED[fmt])


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_failed_sweep_golden_bytes(monkeypatch, fmt):
    _fail_one_check(monkeypatch, (5, 2))
    argv = ["sweep", "--p-values", "3,5", "--m-values", "2", "--format", fmt]
    assert _capture(argv) == (1, GOLDEN_SWEEP_FAILED[fmt])
