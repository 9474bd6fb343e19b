"""Config grammar and the ats command line."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import atsbench
from atsbench.cli import CHUNK, main, run, write_report
from atsbench.config import ConfigError, parse_config, parse_group
from atsbench.constructions import ConstraintError
from atsbench.groups import AbelianGroup, GroupElement
from atsbench.omega import SimplicityUndecided
from helpers import GAUSSIAN_TRIPLE, ROTATED_SPLIT_TRIPLE, run_optimized

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


def test_direct_sum_without_dim_has_dim_2(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.cfg").write_text(
        "[triple]\nsource = builtin\nbuiltin = direct_sum\n")
    assert main(["triple", "t.cfg", "--json", "r.json"]) == 0
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["artifacts"]["triple_dim"] == 2


def test_envelope_of_a_triple_failing_at2_is_a_failed_check(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    # a triple that fails AT2 is bad input to the envelope, not an internal
    # error: the envelope steps are skipped with a note, the report is
    # written and the exit status is 1, as check-at2 gives on it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.json").write_text(json.dumps(
        {"conductor": 1, "dim": 2, "operators": {"triple": 3},
         "tensor": [["triple", [0, 0, 0], 1, "1"],
                    ["triple", [1, 1, 1], 0, "1"]]}))
    (tmp_path / "t.cfg").write_text(JSON_TRIPLE_CFG)
    assert main(["check-at2", "t.cfg"]) == 1
    assert main(["envelope", "t.cfg", "--json", "r.json"]) == 1
    out, err = capsys.readouterr()
    assert err == "" and "FAIL at2-axiom" in out
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["status"] == "fail"
    assert [c["name"] for c in data["checks"]] == ["at2-axiom"]
    assert not data["checks"][0]["passed"]
    assert data["artifacts"] == {"triple_dim": 2}
    assert data["notes"] == ["no envelope built: the triple fails "
                             "at2-axiom, so it is no associative triple "
                             "system"]


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


OPTIMIZED_CHECKS = """
import sys
import atsbench.classify as cl
import atsbench.cli as cli
import atsbench.constructions as c
import atsbench.scalars as sc
import atsbench.triples as tr
import helpers as h
from atsbench.groups import AbelianGroup, Bicharacter, Subgroup, trivial_subgroup
from atsbench.omega import (INVOLUTION, PRODUCT, TRIPLE, Grading, LinearMap,
                            OmegaAlgebra, VerificationError,
                            VerificationReport)
from atsbench.scalars import CycloField
F = CycloField(2)
one = F.one
Z, Z2, Z3 = AbelianGroup(1), AbelianGroup(0, (2,)), AbelianGroup(0, (3,))
e, T1 = Z2.identity, trivial_subgroup(Z2)
b1 = Bicharacter.from_generator_matrix(T1, (), [])
inv_params = c.InvolutionParams(group=Z2, T=T1, beta=b1, kappa0=(1,),
                                gamma0=(e,), kappa1=(1,), gamma1=(e,),
                                delta=1, g=e)
pair_params = c.ExchangePairParams(group=Z2, T=T1, beta=b1, kappa0=(1,),
                                   gamma0=(e,), kappa1=(1,), gamma1=(e,))
m2 = c.build_M_inv(inv_params, F)
label = cl.ClassLabel(inv_params)
G = AbelianGroup(0, (2, 2, 2))
a, b, t = (G.element(x) for x in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
T = Subgroup(G, (a, b))
beta = Bicharacter.from_generator_matrix(T, (a, b), [[0, 1], [1, 0]])
Dx1, Dx2 = (c.exchange_double_division(c.d_inv(T, beta, tau, F), t)
            for tau in h.all_quadratic_forms(beta)[:2])
D = Dx1.inner
(pa, pb, _), = c.symplectic_decomposition(T, beta)
real_phi, real_extend = c.phi_matrix, c.QuadraticForm.extend
cyclotomic = sc.cyclotomic_polynomial.__wrapped__


def z_graded(dim, degrees, products, involution):
    alg = OmegaAlgebra(F, dim, {PRODUCT: 2, INVOLUTION: 1})
    for idx, k in products.items():
        alg.set_entry(PRODUCT, idx, {k: one})
    for i, j in involution.items():
        alg.set_entry(INVOLUTION, (i,), {j: one})
    return alg, Grading(alg, Z, tuple(Z.element((d,)) for d in degrees))


def failing(*args, **kw):
    return VerificationReport("forced", ["forced"])


def two_entry_phi(*args):
    phi = real_phi(*args)
    (i, j), entry = next(iter(phi.items()))
    return {**phi, (i, -1): entry}


def negated_extend(q, s):
    return lambda u: -real_extend(q, s)(u)


def shifted(alg, op):
    return dict(alg.tensors, **{op: {
        idx: {(k + 1) % alg.dim: x for k, x in row.items()}
        for idx, row in alg.tensors[op].items()}})


real_morphism = tr.check_morphism
unpatched = (tr, "check_morphism", real_morphism)


def failing_with_involution(f, ops=None, gradings=None):
    return (failing() if INVOLUTION in ops
            else real_morphism(f, ops=ops, gradings=gradings))


# {x, y, z} = x phi(y) z leaves degree -1; phi(e2) stays in degree +1
leaky = z_graded(2, (-1, 1), {(0, 1): 0, (0, 0): 1}, {0: 1, 1: 0})
unflipped = z_graded(3, (-1, 1, 1), {}, {0: 1, 1: 0, 2: 2})
two_terms = dict(D.algebra.tensors, product={
    **D.algebra.tensors[PRODUCT], (0, 0): {0: one, 1: one}})
W3 = tr.TripleSystem(OmegaAlgebra(F, 2, {TRIPLE: 3}))
W3.grading = Grading(W3.algebra, Z3, (Z3.element((0,)), Z3.element((1,))))
swap = [{1: one}, {0: one}]
zero2 = [{}, {}]
cases = [
    (c, "check_t4_flip", failing, lambda: c.build_M_inv(inv_params, F)),
    (c, "check_t4_flip", failing,
     lambda: c.build_exchange_pair(pair_params, F)),
    (LinearMap, "is_bijective", lambda self: False,
     lambda: tr.reconstruct_iso(m2.algebra, m2.grading)),
    (tr, "check_morphism", failing,
     lambda: tr.reconstruct_iso(m2.algebra, m2.grading)),
    (tr, "is_simple", lambda alg: True,
     lambda: tr.reconstruct_iso(*unflipped)),
    (tr, "check_morphism", failing_with_involution,
     lambda: tr.extend_automorphism(tr.scalar_triple(F), h.identity_map(
         tr.scalar_triple(F).algebra))),
    (*unpatched, lambda: tr.triple_from(*leaky)),
    (*unpatched,
     lambda: tr._envelope_grading(W3, None, 1, 0, [(swap, zero2)], [], 2)),
    (Dx2.algebra, "tensors", dict(Dx2.algebra.tensors, product={}),
     lambda: h.removal_twist(Dx1, Dx2)),
    (Dx2.inner, "sign_form", lambda s: 2, lambda: h.removal_twist(Dx1, Dx2)),
    (Dx2.algebra, "tensors",
     dict(Dx2.algebra.tensors, involution=Dx1.algebra.tensors[INVOLUTION]),
     lambda: h.removal_twist(Dx1, Dx2)),
    (*unpatched, lambda: cl._cross_case_certificate(label, label, F)),
    (D.algebra, "tensors", two_terms, lambda: D.mu(0, 0)),
    (D, "index", dict.fromkeys(D.elements, 1), lambda: D.basis_inverse(0)),
    (beta, "table", {**beta.table, (pa, pb): 0},
     lambda: c.standard_realization(T, beta, F)),
    (c, "phi_matrix", two_entry_phi, lambda: c.build_M_inv(inv_params, F)),
    (Dx1.algebra, "tensors", shifted(Dx1.algebra, INVOLUTION),
     lambda: h.exchange_subgroup_transfer(Dx1, Subgroup(G, (a + t, b)))),
    (c.GradedDivision, "commutation", lambda self, i, j: None,
     lambda: c.exchange_double_division(D, t)),
    (D.algebra, "tensors", shifted(D.algebra, INVOLUTION),
     lambda: h.involution_sign(D, 0)),
    (sc, "cyclotomic_polynomial", lambda n: (1, 1), lambda: cyclotomic(6)),
]
for owner, name, fake, call in cases:
    real = getattr(owner, name)
    setattr(owner, name, fake)
    try:
        call()
        print("passed")
    except VerificationError as err:
        print(str(err).split()[0])
    setattr(owner, name, real)
print(issubclass(cl.WitnessError, VerificationError))
job, division, doubled = sys.argv[1:]
for owner, name, fake, argv in [
        (c, "check_commutation", failing, ["verify", division]),
        (c.QuadraticForm, "extend", negated_extend, ["verify", doubled]),
        (c, "phi_matrix", two_entry_phi, ["construct", job])]:
    real = getattr(owner, name)
    setattr(owner, name, fake)
    print("exit", cli.main(argv))
    setattr(owner, name, real)
c.check_t4_flip = failing
print("exit", cli.main(["construct", job]), "debug", __debug__)
"""


def test_verified_claims_survive_optimize_flag(tmp_path):
    # every verification loop and verified-claim check raises
    # VerificationError when forced to fail, also under python -O, and
    # the command line turns it into exit status 3
    cfg = tmp_path / "job.cfg"
    cfg.write_text(MINIMAL)
    division, doubled = tmp_path / "division.cfg", tmp_path / "doubled.cfg"
    division.write_text(DIVISION_CFG)
    doubled.write_text(DOUBLED_CFG)
    assert run_optimized(OPTIMIZED_CHECKS, str(cfg), str(division),
                         str(doubled)) == [
        "forced", "forced", "reconstruction", "reconstruction", "involution",
        "extension", "triple", "L", "Y-basis", "no", "Int(Y_t')",
        "cross-case", "product", "inverse:", "realization:", "Phi",
        "involution:", "commutation", "involution:",
        "cyclotomic", "True", "exit", "3", "exit", "3", "exit", "3",
        "exit", "3", "debug", "False"]


def test_console_script_installed():
    # the package's src directory first on the path, so the subprocess
    # imports the package under test however pytest was started
    src = str(Path(atsbench.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "atsbench.cli", "--help"],
                          capture_output=True, text=True, env=env)
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
DOUBLED_CFG = """
[group]
G = Z/2 x Z/2 x Z/2

[division]
T = (1,0,0) (0,1,0)
beta = [[0,1],[1,0]]
tau = 1 1 1 -1
t = (0,0,1)
"""

CUBIC_TAU_CFG = """
[group]
G = Z/2 x Z/2 x Z/2 x Z/2

[division]
T = (1,0,0,0) (0,1,0,0) (0,0,1,0) (0,0,0,1)
beta = [[0,1,0,0],[1,0,0,0],[0,0,0,1],[0,0,1,0]]
tau = 1 1 1 1 1 1 1 1 1 1 1 1 1 1 -1 -1
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


def test_census_max_dim_defaults_to_8_only_when_absent():
    default = parse_config("[group]\nG = Z/2\n")
    default.command = "census"
    eight = parse_config("[group]\nG = Z/2\n[census]\nmax_dim = 8\n")
    eight.command = "census"
    census = run(default).artifacts["census"]
    assert census == run(eight).artifacts["census"]
    assert census["labels"]
    zero = parse_config("[group]\nG = Z/2\n[census]\nmax_dim = 0\n")
    zero.command = "census"
    with pytest.raises(ConfigError, match="max_dim = 0"):
        run(zero)


GRADED_TRIPLE ={"conductor": 1, "dim": 1, "operators": {"triple": 3},
                 "basis": ["w"], "tensor": [["triple", [0, 0, 0], 0, "1"]],
                 "group": {"free_rank": 0, "torsion": [2]}, "degrees": [[0]],
                 "graded_ops": ["triple"]}
JSON_TRIPLE_CFG = "[triple]\nsource = json\nfile = w.json\n"
# the rotated F + F with Z/3 degrees 0, 1: {f_0, f_1, f_1} = f_0 lies in
# degree 0, not 0 + 1 + 1 = 2, so the degrees grade no triple product
MISGRADED_TRIPLE = dict(ROTATED_SPLIT_TRIPLE, degrees=[[0], [1]],
                        group={"free_rank": 0, "torsion": [3]},
                        graded_ops=["triple"])


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new)


@pytest.mark.parametrize("argv, files, named", [
    pytest.param(["census", "missing.cfg"], {}, "missing.cfg",
                 id="missing-config"),
    pytest.param(["decide-iso", "a.cfg", "missing.cfg"], {"a.cfg": MINIMAL},
                 "missing.cfg", id="missing-second-config"),
    pytest.param(["decide-iso", "a.cfg", "b.cfg", "--verify"],
                 {"a.cfg": MINIMAL,
                  "b.cfg": _edit(MINIMAL, "G = Z/2", "G = Z/4")},
                 "a.cfg grades by Z/2 but b.cfg by Z/4",
                 id="decide-iso-two-groups"),
    pytest.param(["envelope", "t.cfg"], {"t.cfg": JSON_TRIPLE_CFG},
                 "w.json", id="missing-triple-file"),
    pytest.param(["construct", "j.cfg"],
                 {"j.cfg": _edit(MINIMAL, "seed = 0", "seed = x")},
                 "seed", id="seed"),
    pytest.param(["census", "j.cfg"],
                 {"j.cfg": "[group]\nG = Z/2\n[census]\nmax_dim = x\n"},
                 "max_dim", id="max-dim"),
    pytest.param(["census", "j.cfg"],
                 {"j.cfg": "[group]\nG = Z/2\n[census]\nmax_support = x\n"},
                 "max_support", id="max-support"),
    pytest.param(["construct", "j.cfg"], {"j.cfg": MINIMAL + "m0 = x\n"},
                 "m0", id="m0"),
    pytest.param(["construct", "j.cfg"], {"j.cfg": MINIMAL + "t = (1)\n"},
                 "line 17: t does not apply", id="simple-algebra-t"),
    # t_i = -(2 gamma_i + g) is derived, so no key supplies it
    pytest.param(["construct", "j.cfg"],
                 {"j.cfg": MINIMAL + "t_values0 = (0)\n"},
                 "line 17: unknown key 't_values0' in [label]",
                 id="label-t-values0"),
    pytest.param(["construct", "j.cfg"],
                 {"j.cfg": _edit(DIVISION_CFG, "tau = 1 1 1 -1",
                                 "tau = 1 1 x 1")}, "tau", id="tau"),
    # tau(x) = (-1)^(x1 x2 x3) is cubic: its polar form is no bicharacter
    pytest.param(["verify", "j.cfg"], {"j.cfg": CUBIC_TAU_CFG}, "tau",
                 id="tau-cubic"),
    pytest.param(["construct", "j.cfg"], {"j.cfg": MINIMAL + "gamma1 = (1)\n"},
                 "line 17: key 'gamma1' in [label] repeats line 14",
                 id="repeated-key"),
    pytest.param(["construct", "j.cfg"],
                 {"j.cfg": MINIMAL + "[group]\nG = Z/4\n"},
                 "line 17: section [group] repeats line 6",
                 id="repeated-section"),
    pytest.param(["envelope", "t.cfg"],
                 {"t.cfg": "[triple]\nsource = builtin\nbuiltin = zero\n"
                           "dim = two\n"}, "dim", id="triple-dim"),
    pytest.param(["envelope", "t.cfg"],
                 {"t.cfg": "[triple]\nsource = builtin\nbuiltin = zero\n"
                           "dim = 0\n"}, "dim = 0", id="zero-triple-dim-0"),
    pytest.param(["envelope", "t.cfg"],
                 {"t.cfg": "[triple]\nsource = builtin\nbuiltin = zero\n"
                           "dim = -1\n"}, "dim = -1",
                 id="zero-triple-dim-negative"),
    *(pytest.param(["envelope", "t.cfg"],
                   {"t.cfg": "[triple]\nsource = builtin\nbuiltin = "
                             f"direct_sum\ndim = {dim}\n"},
                   f"direct_sum triple needs dim >= 2, got dim = {dim}",
                   id=f"direct-sum-dim-{dim}") for dim in (0, 1, -3)),
    *(pytest.param([command, "t.cfg"],
                   {"t.cfg": "[triple]\nsource = builtin\nbuiltin = "
                             f"scalar\ndim = {dim}\n"},
                   f"scalar triple has dim 1 and takes no dim key, "
                   f"got dim = {dim}", id=f"scalar-dim-{dim}-{command}")
      for dim, command in ((7, "envelope"), (1, "check-at2"))),
    pytest.param(["census", "j.cfg"],
                 {"j.cfg": "[group]\nG = Z/2\n[census]\nmax_dim = 1\n"},
                 "Z/2 with max_dim = 1", id="census-max-dim-1"),
    pytest.param(["census", "j.cfg"],
                 {"j.cfg": "[group]\nG = Z/2\n[census]\nmax_dim = 0\n"},
                 "Z/2 with max_dim = 0", id="census-max-dim-0"),
    pytest.param(["census", "j.cfg", "--max-dim", "-1"],
                 {"j.cfg": "[group]\nG = Z/2\n"},
                 "Z/2 with max_dim = -1", id="census-max-dim-flag"),
    # only census reads max_dim, from [census]: other commands never see it
    pytest.param(["verify", "j.cfg"],
                 {"j.cfg": _edit(MINIMAL, "seed = 0", "seed = 0\nmax_dim = 4")},
                 "line 5: unknown key 'max_dim' in [job]", id="job-max-dim"),
    # a census key that admits no label is named, not blamed on max_dim
    *(pytest.param(["census", "j.cfg"],
                   {"j.cfg": f"[group]\nG = Z/4\n[census]\n{line}\n"},
                   named, id=f"census-{ident}")
      for line, named, ident in (
          ("max_support = -3", "line 4: max_support must be at least 1, "
           "got max_support = -3", "max-support-negative"),
          ("max_support = 0", "line 4: max_support must be at least 1, "
           "got max_support = 0", "max-support-0"),
          ("cases =", "line 4: cases must name at least one census case",
           "cases-empty"),
          ("cases = exchange_pair pairs", "line 4: unknown census case "
           "'pairs'", "cases-unknown"))),
    pytest.param(["census", "j.cfg"],
                 {"j.cfg": "[job]\ncommand = census\n[group]\nG = Z\n"},
                 "census over Z needs a finite group, but it has free "
                 "rank 1", id="census-infinite-group"),
    pytest.param(["construct", "j.cfg"],
                 {"j.cfg": _edit(MINIMAL, "gamma0 = (0)", "gamma0 = (a)")},
                 "coordinate", id="element"),
    pytest.param(["construct", "j.cfg"],
                 {"j.cfg": _edit(MINIMAL, "G = Z/2", "G = Z/1")},
                 "torsion orders", id="group-order-one"),
    pytest.param(["envelope", "t.cfg"],
                 {"t.cfg": JSON_TRIPLE_CFG, "w.json": json.dumps(
                     {k: v for k, v in GRADED_TRIPLE.items()
                      if k != "conductor"})},
                 "'conductor'", id="json-without-conductor"),
    pytest.param(["envelope", "t.cfg"],
                 {"t.cfg": JSON_TRIPLE_CFG, "w.json": json.dumps(
                     dict(GRADED_TRIPLE, group={"free_rank": 0}))},
                 "'group.torsion'", id="json-without-torsion"),
    pytest.param(["verify", "j.cfg"],
                 {"j.cfg": _edit(DIVISION_CFG, "beta = [[0,1],[1,0]]",
                                 "beta = [[0]]")}, "line 7: beta",
                 id="beta-too-small"),
    # a beta under a trivial T, once silently ignored: it must be empty
    *(pytest.param(["verify", "j.cfg"], {"j.cfg": text},
                   f"line {line}: beta must be a list of 0 lists", id=ident)
      for text, line, ident in (
          (MINIMAL + "T =\nbeta = [[0,1],[1,0]]\n", 18,
           "beta-under-empty-T"),
          (MINIMAL + "beta = [[0,1],[1,0]]\n", 17, "beta-without-T"),
          (_edit(DIVISION_CFG, "T = (1,0) (0,1)", "T ="), 7,
           "division-beta-under-empty-T"))),
    pytest.param(["verify", "j.cfg"],
                 {"j.cfg": _edit(DIVISION_CFG, "beta = [[0,1],[1,0]]",
                                 "beta = [[0,1],[1]]")}, "line 7: beta",
                 id="beta-ragged"),
    pytest.param(["verify", "j.cfg"],
                 {"j.cfg": _edit(DIVISION_CFG, "beta = [[0,1],[1,0]]",
                                 "beta = 5")}, "line 7: beta",
                 id="beta-not-a-matrix"),
    pytest.param(["verify", "j.cfg"],
                 {"j.cfg": _edit(DIVISION_CFG, "beta = [[0,1],[1,0]]",
                                 'beta = [[0,"1"],[1,0]]')}, "line 7: beta",
                 id="beta-not-ints"),
    pytest.param(["verify", "j.cfg"],
                 {"j.cfg": b"\xff\xfe" + DIVISION_CFG.encode("utf-16-le")},
                 "j.cfg", id="not-utf8"),
    pytest.param(["verify", "j.cfg", "--json", "missing/x.json"],
                 {"j.cfg": MINIMAL}, "missing/x.json: No such file",
                 id="json-out-unwritable"),
    *(pytest.param(["triple", "t.cfg"],
                   {"t.cfg": JSON_TRIPLE_CFG,
                    "w.json": json.dumps(dict(GRADED_TRIPLE, **{key: value}))},
                   f"'{key}'", id=f"json-{key}-{value!r}")
      for key, value in (("conductor", "abc"), ("conductor", 2.5),
                         ("conductor", "2"), ("dim", "1"), ("dim", 1.0),
                         ("operators", {"triple": "x"}),
                         ("graded_ops", "triple"),
                         ("graded_ops", ["product"]))),
    # malformed values that once escaped as a TypeError traceback
    *(pytest.param(["check-at2", "t.cfg"],
                   {"t.cfg": JSON_TRIPLE_CFG,
                    "w.json": json.dumps(dict(GRADED_TRIPLE, **{key: value}))},
                   named, id=f"json-{key}-{value!r}")
      for key, value, named in (
          ("degrees", [0], "'degrees'"), ("degrees", 5, "'degrees'"),
          ("group", {"free_rank": "0", "torsion": [2]}, "'group.free_rank'"),
          ("group", {"free_rank": 0, "torsion": 2}, "'group.torsion'"),
          ("basis", 5, "'basis'"), ("tensor", 5, "'tensor'"))),
    pytest.param(["triple", "t.cfg"],
                 {"t.cfg": JSON_TRIPLE_CFG, "w.json": json.dumps(dict(
                     GRADED_TRIPLE, operators={"product": 2},
                     tensor=[["product", [0, 0], 0, "1"]],
                     graded_ops=["product"]))},
                 "exactly the operator {'triple': 3}", id="json-no-triple"),
    pytest.param(["triple", "t.cfg"],
                 {"t.cfg": JSON_TRIPLE_CFG, "w.json": json.dumps(dict(
                     GRADED_TRIPLE, operators={"triple": 3, "product": 2}))},
                 "exactly the operator {'triple': 3}",
                 id="json-extra-product"),
    # degrees that do not grade the triple product, whatever graded_ops
    # lists: once exit 3 from envelope (an envelope row mixing degrees) and
    # exit 0 from triple and check-at2
    *(pytest.param([command, "t.cfg"],
                   {"t.cfg": JSON_TRIPLE_CFG, "w.json": json.dumps(dict(
                       MISGRADED_TRIPLE, graded_ops=graded_ops))},
                   "w.json: the degrees do not grade the triple product: "
                   "triple(0, 1, 1) -> index 0",
                   id=f"json-misgraded-{command}-{len(graded_ops)}-ops")
      for command in ("envelope", "triple", "check-at2")
      for graded_ops in (["triple"], [])),
    # a basis of another length than dim, once written out or replaced
    *(pytest.param(["triple", "t.cfg"],
                   {"t.cfg": JSON_TRIPLE_CFG, "w.json": json.dumps(dict(
                       ROTATED_SPLIT_TRIPLE, basis=basis))},
                   f"'basis' lists {len(basis)} labels for dim 2",
                   id=f"json-basis-{basis!r}")
      for basis in (["only"], [])),
    # [triple] keys the source does not read, once silently ignored
    pytest.param(["check-at2", "t.cfg"],
                 {"t.cfg": JSON_TRIPLE_CFG + "dim = 7\n",
                  "w.json": json.dumps(GRADED_TRIPLE)},
                 "triple source json does not read the [triple] key(s) dim",
                 id="json-with-dim"),
    pytest.param(["check-at2", "t.cfg"],
                 {"t.cfg": "[triple]\nsource = builtin\nfile = w.json\n",
                  "w.json": json.dumps(GRADED_TRIPLE)},
                 "triple source builtin does not read the [triple] key(s) "
                 "file", id="builtin-with-file"),
    pytest.param(["envelope", "j.cfg"],
                 {"j.cfg": MINIMAL + "[triple]\nbuiltin = zero\ndim = 3\n"},
                 "triple source grw does not read the [triple] key(s) "
                 "builtin, dim", id="grw-with-builtin-keys"),
    pytest.param(["verify", "j.cfg"],
                 {"j.cfg": _edit(DOUBLED_CFG, "G = Z/2 x Z/2 x Z/2",
                                 "G = Z/2 x Z/2 x Z/4")},
                 "doubling element must have order 2", id="t-of-order-4"),
    pytest.param(["verify", "j.cfg"],
                 {"j.cfg": _edit(DOUBLED_CFG, "t = (0,0,1)", "t = (1,0,0)")},
                 "doubling element must avoid the support", id="t-inside-T"),
    pytest.param(["verify", "j.cfg"],
                 {"j.cfg": _edit(DOUBLED_CFG, "tau = 1 1 1 -1\n", "")},
                 "exchange double needs an involution on D", id="t-without-tau"),
])
def test_bad_input_exits_2_with_named_error(tmp_path, monkeypatch, capsys,
                                            argv, files, named):
    # a missing file or a malformed value is bad input: exit 2 and an
    # error naming the file, key or line, never a traceback
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        if isinstance(text, bytes):
            (tmp_path / name).write_bytes(text)
        else:
            (tmp_path / name).write_text(text)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("command", ["construct", "verify", "envelope",
                                     "triple", "check-at2"])
def test_max_dim_is_a_census_flag(capsys, command):
    # only census reads max_dim: the other commands reject the flag
    # as bad input, exit 2, where they used to ignore it
    with pytest.raises(SystemExit) as exc:
        main([command, "j.cfg", "--max-dim", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-dim 4" in capsys.readouterr().err


def test_well_formed_json_triple_is_accepted(tmp_path, monkeypatch):
    # the graded triple the missing-key cases start from is valid
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.json").write_text(json.dumps(GRADED_TRIPLE))
    (tmp_path / "t.cfg").write_text(JSON_TRIPLE_CFG)
    assert main(["check-at2", "t.cfg"]) == 0


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# the sha256 of each shipped config's report: a change to any report's
# bytes must change these on purpose
REPORT_SHA256 = {
    "census_v4.cfg": "857da1ef1164841e6f4d6607b2b03ac96f6d5c5eb977fc6b8efcb8d6676d0e63",
    "census_z2.cfg": "1cdbb2d5bc6442de0c72c7c5d82d94a2dd617ba86f76eb618871119ff590b84e",
    "census_z4.cfg": "ee9194a6b9ee7ffbf46afc4cfeb57948cac6354e94e7b90ce8c5b512fbc53725",
    "division_z22.cfg": "4602c696389397b5509766a0fed189888dc46440304661ca21e7c93e7b0ceffa",
    "envelope_scalar.cfg": "5a9385323a49149caba273bb42f6b9359f25705747924d5db9d7819be6723141",
    "exchange_pair_z4.cfg": "bf918df7dcf8dec3797016bb046987fc375b2be989dcbb9b8873ba1630cb5b86",
    "exdouble.cfg": "79da10459974b5331b647059ec0075caba32608bb547b823b01e4a0eb25c61e6",
    "m2_delta_minus.cfg": "c2532c1a41c028c1683634317d552e5983f579b45317f4101be15a5774a243c2",
    "m2_transpose.cfg": "e5da049461a8e2c6c645455e7df046578bb6354a6e2aa54e5e7cdc813fd54039",
}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.cfg")))
def test_report_json_matches_indented_dump(name, tmp_path):
    # the file main writes, chunked census records included, is the
    # indented dump of its data and a newline, and its bytes are pinned
    command = parse_config((CONFIGS / name).read_text()).command or "verify"
    out = tmp_path / "r.json"
    assert main([command, str(CONFIGS / name), "--json", str(out)]) == 0
    raw = out.read_bytes()
    assert raw.decode() == json.dumps(json.loads(raw), indent=2,
                                      sort_keys=True) + "\n"
    assert hashlib.sha256(raw[:-1]).hexdigest() == REPORT_SHA256[name]


def test_census_never_solves_for_a_unit(monkeypatch):
    # simplicity step (c) reads u c = c off the center part instead of
    # solving for the unit u: the Z/4 census, which reaches step (c) with
    # a center part of dimension > 1, makes no linalg.solve call
    from atsbench import linalg

    def no_solve(*args, **kwargs):
        raise AssertionError("linalg.solve called")
    monkeypatch.setattr(linalg, "solve", no_solve)
    report = run(parse_config((CONFIGS / "census_z4.cfg").read_text()))
    assert report.status == "pass"


def test_census_makes_each_degree_once(monkeypatch):
    # group elements are interned: the Z/4 census makes one element object
    # per distinct degree it touches, of G and of Z x G (whose degrees in
    # a 3-graded algebra have their Z slot in {-1, 0, 1}), however many
    # labels, gradings and sums it runs through; it starts from an empty
    # group registry, so that the count is the census's own
    monkeypatch.setattr(AbelianGroup, "_groups", {})
    made = []
    init = GroupElement.__init__

    def recording(self, group, coords, code):
        made.append((group.free_rank, group.torsion, coords))
        init(self, group, coords, code)
    monkeypatch.setattr(GroupElement, "__init__", recording)
    report = run(parse_config((CONFIGS / "census_z4.cfg").read_text()))
    assert report.status == "pass"
    assert len(made) == len(set(made)) <= 4 + 3 * 4
    assert {(r, t) for r, t, _ in made} == {(0, (4,)), (1, (4,))}


def _writes(data):
    writes = []
    write_report(SimpleNamespace(write=writes.append), data)
    return writes


def test_report_json_escapes_like_the_indented_dump():
    # the census records are written CHUNK at a time, never all at once
    decisions = [{"left": 0, "right": k, "verdict": "NO",
                  "detail": detail} for k, detail in enumerate(
                      ['say "no"', "tab\there\nnewline", "\u00e9\u2260",
                       "\0decisions", "back\\slash", ""])]
    data = {"artifacts": {"census": {"decisions": decisions, "labels": ["x"]},
                          "other": [1, {"a": None}]},
            "checks": [], "notes": ["\0decisions"]}
    chunked = {"artifacts": {"census": {"decisions": [
        {"left": k, "right": k, "verdict": "YES", "detail": "direct"}
        for k in range(2 * CHUNK + 1)]}}}
    for d in (data, {**data, "notes": []}, chunked,
              {"artifacts": {"census": {"decisions": []}}}, {"artifacts": {}}):
        assert "".join(_writes(d)) == json.dumps(d, indent=2, sort_keys=True)
    assert not any('"left": 0,' in w and f'"left": {2 * CHUNK},' in w
                   for w in _writes(chunked))


def _write_triple(tmp_path, name, data):
    (tmp_path / f"{name}.json").write_text(json.dumps(data))
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(f"[triple]\nsource = json\nfile = {name}.json\n")
    return cfg


def test_envelope_decides_triple_simplicity_on_the_envelope(
        tmp_path, monkeypatch, capsys):
    # every basis vector of the rotated F + F generates W; the envelope's
    # verdict stands, and no transfer contradiction is claimed
    monkeypatch.chdir(tmp_path)
    _write_triple(tmp_path, "rot", ROTATED_SPLIT_TRIPLE)
    assert main(["envelope", "rot.cfg", "--json", "r.json"]) == 0
    assert capsys.readouterr().err == ""
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["checks"][-1] == {
        "name": "simplicity-transfer-agrees", "passed": True, "checked": 1,
        "detail": "triple simple = False"}


def test_undecided_envelope_simplicity_is_inconclusive(tmp_path, monkeypatch,
                                                       capsys):
    # Q(i) over Q: a failed check with the undecided verdict quoted, the
    # report written and exit 1, not a traceback
    monkeypatch.chdir(tmp_path)
    _write_triple(tmp_path, "qi", GAUSSIAN_TRIPLE)
    assert main(["envelope", "qi.cfg", "--json", "r.json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["status"] == "fail"
    assert [c["name"] for c in data["checks"] if not c["passed"]] == [
        "simplicity-transfer-agrees"]
    assert data["checks"][-1]["detail"] == (
        "INCONCLUSIVE: no zero divisor found in a center part of dimension 2")
    assert "FAIL simplicity-transfer-agrees (1 checks) -- INCONCLUSIVE" in out


@pytest.mark.parametrize("text, checks", [
    pytest.param(DIVISION_CFG, ["simple"], id="division"),
    pytest.param(MINIMAL, ["simple-with-involution", "simplicity-pattern"],
                 id="label"),
])
def test_undecided_verify_simplicity_is_inconclusive(tmp_path, monkeypatch,
                                                     capsys, text, checks):
    from atsbench import classify, cli

    def undecided(*args, **kwargs):
        raise SimplicityUndecided("stub verdict")
    monkeypatch.setattr(cli, "is_simple", undecided)
    monkeypatch.setattr(classify, "is_simple", undecided)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "j.cfg").write_text(text)
    assert main(["verify", "j.cfg", "--json", "r.json"]) == 1
    assert capsys.readouterr().err == ""
    data = json.loads((tmp_path / "r.json").read_text())
    failed = {c["name"]: c["detail"] for c in data["checks"]
              if not c["passed"]}
    assert failed == {name: "INCONCLUSIVE: stub verdict" for name in checks}


@pytest.mark.parametrize("argv, files", [
    pytest.param(["census", "a.cfg"],
                 {"a.cfg": "[group]\nG = Z/2\n[census]\nmax_dim = 8\n"},
                 id="census"),
    pytest.param(["decide-iso", "a.cfg", "b.cfg", "--verify"],
                 {"a.cfg": MINIMAL,
                  "b.cfg": MINIMAL.replace("gamma1 = (0)", "gamma1 = (1)")},
                 id="decide-iso"),
])
def test_undecided_intrinsic_simplicity_is_inconclusive(tmp_path, monkeypatch,
                                                        capsys, argv, files):
    # the intrinsic invariants of census and of a refutation need a
    # simplicity verdict: an undecided one fails the job as INCONCLUSIVE,
    # with the report written and exit 1, not a traceback
    from atsbench import classify

    def undecided(*args, **kwargs):
        raise SimplicityUndecided("stub verdict")
    monkeypatch.setattr(classify, "is_simple", undecided)
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv + ["--json", "r.json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    data = json.loads((tmp_path / "r.json").read_text())
    assert data["status"] == "fail"
    failed = {c["name"]: c["detail"] for c in data["checks"]
              if not c["passed"]}
    assert failed == {"simplicity-decided": "INCONCLUSIVE: stub verdict"}
    assert "FAIL simplicity-decided (1 checks) -- INCONCLUSIVE" in out


SWEEP_COMMANDS = ("construct", "verify", "envelope", "triple", "check-at2",
                  "census")


def test_no_config_command_escapes_with_a_traceback(tmp_path, monkeypatch,
                                                    capsys):
    # every config command on every shipped config and on the three JSON
    # triples: main returns an exit status, and a 2 or a 3 says why
    monkeypatch.chdir(tmp_path)
    configs = sorted(CONFIGS.glob("*.cfg")) + [
        _write_triple(tmp_path, name, data) for name, data in (
            ("rot", ROTATED_SPLIT_TRIPLE), ("qi", GAUSSIAN_TRIPLE),
            ("mis", MISGRADED_TRIPLE))]
    statuses = {}
    for cfg in configs:
        for command in SWEEP_COMMANDS:
            status = main([command, str(cfg), "--json", "r.json"])
            err = capsys.readouterr().err
            assert status in (0, 1, 2, 3), (cfg.name, command)
            if status in (2, 3):
                assert err.startswith(("error: ", "internal error: ")), \
                    (cfg.name, command, err)
            statuses[cfg.name, command] = status
    assert len(statuses) == 6 * (len(REPORT_SHA256) + 3)
    assert statuses["qi.cfg", "envelope"] == 1
    assert statuses["rot.cfg", "envelope"] == 0
    assert {statuses["mis.cfg", command] for command in SWEEP_COMMANDS} == {2}
