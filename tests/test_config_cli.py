"""Config grammar and the ats command line."""

import json
import subprocess
import sys

import pytest

from atsbench.cli import main, run
from atsbench.config import ConfigError, parse_config, parse_group
from atsbench.constructions import ConstraintError
from atsbench.groups import AbelianGroup

MINIMAL = """
[job]
command = construct
seed = 0

[group]
G = Z/2

[label]
case = simple_algebra
kappa0 = 1
gamma0 = (0)
kappa1 = 1
gamma1 = (0)
delta = 1
g = (0)
"""


def test_group_parsing():
    assert parse_group("Z/2 x Z/2") == AbelianGroup(0, (2, 2))
    assert parse_group("Z^2 x Z/4") == AbelianGroup(2, (4,))
    assert parse_group("Z x Z") == AbelianGroup(2, ())
    assert parse_group("trivial") == AbelianGroup(0, ())
    with pytest.raises(ConfigError):
        parse_group("Q/2", 3)


def test_minimal_config_valid():
    cfg = parse_config(MINIMAL)
    assert cfg.command == "construct"
    assert cfg.label is not None
    assert cfg.label.case == "simple_algebra"


def test_unknown_key_rejected_with_line():
    text = MINIMAL + "\nwhatever = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "whatever" in str(err.value) and "line" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("[nonsense]\nx = 1\n")
    assert "line 1" in str(err.value)


def test_exchange_delta_minus_one_cites_constraint():
    text = """
[group]
G = Z/2

[label]
case = exchange_division
t = (1)
kappa0 = 1
gamma0 = (0)
kappa1 = 1
gamma1 = (0)
delta = -1
g = (0)
"""
    with pytest.raises(ConstraintError) as err:
        parse_config(text)
    assert "sgn(B)" in str(err.value)


def test_non_alternating_beta_rejected():
    text = """
[group]
G = Z/2 x Z/2

[label]
case = simple_algebra
T = (1,0) (0,1)
beta = [[1,0],[0,1]]
kappa0 = 1
gamma0 = (0,0)
kappa1 = 1
gamma1 = (0,0)
delta = 1
g = (0,0)
"""
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "alternating" in str(err.value)


def test_element_coordinate_mismatch():
    text = MINIMAL.replace("gamma0 = (0)", "gamma0 = (0,1)")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "coordinates" in str(err.value)


def test_run_construct_report():
    cfg = parse_config(MINIMAL)
    report = run(cfg)
    assert report.status == "pass"
    data = report.to_dict()
    assert data["schema"] == "atsbench-report-v1"
    assert data["artifacts"]["dimension"] == 4


def test_cli_end_to_end(tmp_path):
    cfg_path = tmp_path / "job.cfg"
    cfg_path.write_text(MINIMAL)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["verify", str(cfg_path), "--json", str(out1)]) == 0
    assert main(["verify", str(cfg_path), "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()   # byte-identical reports
    data = json.loads(out1.read_text())
    assert data["status"] == "pass"
    assert data["seed"] == 0


def test_cli_decide_iso(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text(MINIMAL)
    b.write_text(MINIMAL.replace("gamma1 = (0)", "gamma1 = (1)"))
    code = main(["decide-iso", str(a), str(b), "--verify",
                 "--json", str(tmp_path / "d.json")])
    assert code == 0
    data = json.loads((tmp_path / "d.json").read_text())
    assert data["artifacts"]["verdict"] == "NO"
    assert data["checks"][-1]["name"] == "refutation"
    assert data["checks"][-1]["passed"]


def test_cli_envelope_and_triple(tmp_path):
    cfg = tmp_path / "env.cfg"
    cfg.write_text("""
[triple]
source = builtin
builtin = scalar
""")
    assert main(["envelope", str(cfg)]) == 0
    assert main(["check-at2", str(cfg)]) == 0


def test_cli_failure_exit_code(tmp_path):
    # a broken triple tensor read back from JSON must fail check-at2 with
    # a nonzero exit status
    from atsbench.omega import TRIPLE, OmegaAlgebra, algebra_to_dict
    from atsbench.scalars import CycloField
    F = CycloField(1)
    bad = OmegaAlgebra(F, 2, {TRIPLE: 3})
    for t in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]:
        bad.set_entry(TRIPLE, t, {0: F.one, 1: F.one})
    w_path = tmp_path / "w.json"
    w_path.write_text(json.dumps(algebra_to_dict(bad)))
    cfg = tmp_path / "at2.cfg"
    cfg.write_text(f"""
[triple]
source = json
file = {w_path}
""")
    assert main(["check-at2", str(cfg)]) == 1


@pytest.mark.parametrize("entry", [
    pytest.param(["triple", [0, 0, 5], 0, "1"], id="index0"),
    pytest.param(["triple", [0, 0], 0, "1"], id="index1"),
    pytest.param(["triple", 5, 0, "1"], id="index-not-a-list"),
    pytest.param(["triple", [0, 0, 1], "0", "1"], id="slot-not-an-int"),
    pytest.param(["triple", [0, 0, 1], 0, 1], id="scalar-not-a-string"),
    pytest.param(["triple", [0, 0, 1], 0, "1/0"], id="zero-denominator"),
    pytest.param(["triple", [0, 0, 1], 0], id="three-fields"),
])
def test_malformed_triple_json_is_input_error(tmp_path, capsys, entry):
    # a bad index, slot or scalar in a dim-2 triple tensor is an input
    # error (exit 2) naming the entry, not a failed round trip or a traceback
    from atsbench.omega import TRIPLE, OmegaAlgebra, algebra_to_dict
    from atsbench.scalars import CycloField
    F = CycloField(1)
    W = OmegaAlgebra(F, 2, {TRIPLE: 3})
    W.set_entry(TRIPLE, (0, 0, 0), {0: F.one})
    data = algebra_to_dict(W)
    data["tensor"].append(entry)
    w_path = tmp_path / "w.json"
    w_path.write_text(json.dumps(data))
    cfg = tmp_path / "env.cfg"
    cfg.write_text(f"""
[triple]
source = json
file = {w_path}
""")
    assert main(["envelope", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert f"tensor entry {entry}" in err and "Traceback" not in err


@pytest.mark.parametrize("error", ["VerificationError", "WitnessError"])
def test_internal_verification_error_exits_3(tmp_path, capsys, monkeypatch,
                                             error):
    # a check that contradicts the program itself is exit 3, not a traceback
    from atsbench import cli, classify, omega
    exc = {"VerificationError": omega.VerificationError,
           "WitnessError": classify.WitnessError}[error]

    def broken(*args, **kwargs):
        raise exc("involution check contradicted itself")
    monkeypatch.setattr(cli, "check_involution", broken)
    cfg = tmp_path / "env.cfg"
    cfg.write_text("""
[triple]
source = builtin
builtin = scalar
""")
    assert main(["envelope", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "internal error: involution check contradicted itself" in err


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "atsbench.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "census" in proc.stdout


DIVISION_CFG = """
[group]
G = Z/2 x Z/2

[division]
T = (1,0) (0,1)
beta = [[0,1],[1,0]]
tau = 1 1 1 -1
"""


def test_cli_division_verify(tmp_path):
    cfg = tmp_path / "div.cfg"
    cfg.write_text(DIVISION_CFG)
    out = tmp_path / "div.json"
    assert main(["verify", str(cfg), "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    names = [c["name"] for c in data["checks"]]
    assert "commutation-relation" in names and "simple" in names
    assert data["status"] == "pass"


def test_cli_census(tmp_path):
    cfg = tmp_path / "census.cfg"
    cfg.write_text("""
[group]
G = Z/2

[census]
max_dim = 4
""")
    out = tmp_path / "census.json"
    assert main(["census", str(cfg), "--json", str(out)]) == 0
    data = json.loads(out.read_text())
    census = data["artifacts"]["census"]
    assert census["inconclusive"] == 0
    assert census["yes"] == census["verified_witnesses"]
