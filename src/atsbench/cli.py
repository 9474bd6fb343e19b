"""The `ats` command line front end.

One job per invocation: parse a config, run the pipeline, print a
human-readable summary, optionally write a machine-readable JSON report
(byte-identical across runs with the same config and seed), and exit 0
exactly when every check passed.  Exit status 1 means a check failed, 2
bad input (an unwritable report path included), and 3 an internal
verification error (a VerificationError or WitnessError: the program
contradicted itself, not the input).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .classify import (ClassLabel, CycloField, WitnessError,
                       classify_conductor, decide_iso, refute_isomorphism,
                       run_census, witness_isomorphism)
from .config import TRIPLE_SOURCE_KEYS, ConfigError, JobConfig, parse_config
from .constructions import ConstraintError
from .omega import (TRIPLE, SimplicityUndecided, VerificationError,
                    _misgraded, algebra_from_dict, algebra_to_dict,
                    check_grading, check_involution, is_simple)
from .triples import (TripleSystem, check_associative, check_at2,
                      direct_sum_triple, loos_envelope, recover_triple,
                      scalar_triple, triple_from, triple_is_simple,
                      zero_triple)

SCHEMA = "atsbench-report-v1"


class Report:
    def __init__(self, command: str, seed: int):
        self.command = command
        self.seed = seed
        self.checks = []
        self.artifacts = {}
        self.work = {"checks_run": 0}
        self.notes = []

    def add_check(self, name: str, passed: bool, detail=None, checked: int = 0):
        self.checks.append({"name": name, "passed": bool(passed),
                            "checked": checked,
                            "detail": detail if detail else ""})
        self.work["checks_run"] += 1

    def add_report(self, rep):
        self.add_check(rep.name, rep.passed,
                       "; ".join(rep.violations[:5]), rep.checked)

    def add_decision(self, name: str, decide, checked: int = 1):
        """add_check(name, *decide(), checked) for a decide() returning
        (passed, detail); an undecided simplicity verdict fails the check
        as INCONCLUSIVE instead of escaping the job."""
        try:
            passed, detail = decide()
        except SimplicityUndecided as err:
            passed, detail = False, f"INCONCLUSIVE: {err}"
        self.add_check(name, passed, detail, checked)

    @property
    def status(self) -> str:
        return "pass" if all(c["passed"] for c in self.checks) else "fail"

    def to_dict(self) -> dict:
        return {"schema": SCHEMA, "command": self.command, "seed": self.seed,
                "status": self.status, "checks": self.checks,
                "artifacts": self.artifacts, "work": self.work,
                "notes": self.notes}

    def summary(self) -> str:
        lines = [f"[{self.command}] status: {self.status}"]
        for c in self.checks:
            mark = "ok " if c["passed"] else "FAIL"
            extra = f" -- {c['detail']}" if c["detail"] and not c["passed"] else ""
            lines.append(f"  {mark} {c['name']} ({c['checked']} checks){extra}")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)


CHUNK = 4096     # census decision records per C-encoder call


def write_report(fh, data: dict):
    """Write json.dumps(data, indent=2, sort_keys=True) to fh, byte for
    byte, without building the whole text.

    With an indent, json encodes in pure Python, which takes a large
    census a noticeable share of its time.  So the census's decision
    records (flat dicts of strings and ints) are encoded CHUNK at a time
    by the C encoder, with separators that reproduce the indented layout
    inside a record, and written at the indent of their list.  The record
    boundaries are rewritten per chunk: a boundary is "}" + separator +
    "{", which cannot occur inside a flat record, because an encoded
    string escapes its newlines."""
    census = data["artifacts"].get("census")
    marker = "\0decisions"
    token = json.dumps(marker)
    text = census and census["decisions"] and json.dumps(
        {**data, "artifacts": {**data["artifacts"],
                               "census": {**census, "decisions": marker}}},
        indent=2, sort_keys=True)
    if not text or text.count(token) != 1:
        fh.write(json.dumps(data, indent=2, sort_keys=True))
        return
    at = text.index(token)
    line = text[text.rindex("\n", 0, at) + 1:at]
    pad = line[:len(line) - len(line.lstrip(" "))]
    item, field = pad + "  ", pad + "    "
    sep = ",\n" + field
    boundary = f"\n{item}}},\n{item}{{\n{field}"
    encode = json.JSONEncoder(sort_keys=True, separators=(sep, ": ")).encode
    records = census["decisions"]
    fh.write(f"{text[:at]}[\n{item}{{\n{field}")
    for k in range(0, len(records), CHUNK):
        body = encode(records[k:k + CHUNK])[2:-2].replace(
            "}" + sep + "{", boundary)
        fh.write(boundary + body if k else body)
    fh.write(f"\n{item}}}\n{pad}]{text[at + len(token):]}")


def _field_for(label: ClassLabel) -> CycloField:
    # construction jobs run at the session conductor: the exponent of the
    # support (classification jobs double it themselves)
    return CycloField(label.params.full_support.exponent)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror}") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err.reason})") from None


def _build_triple(cfg: JobConfig) -> TripleSystem:
    spec = cfg.triple_spec
    source = spec.get("source", "grw" if cfg.label else "builtin")
    if source not in TRIPLE_SOURCE_KEYS:
        raise ConfigError(f"unknown triple source {source!r}")
    unread = sorted(spec.keys() - {"source", *TRIPLE_SOURCE_KEYS[source]})
    if unread:
        raise ConfigError(f"triple source {source} does not read the "
                          f"[triple] key(s) {', '.join(unread)}")
    if source == "grw":
        if cfg.label is None:
            raise ConfigError("triple source grw needs a [label] section")
        ca = cfg.label.build(_field_for(cfg.label))
        W, _ = triple_from(ca.algebra, ca.grading, label=cfg.label.name)
        return W
    if source == "builtin":
        kind = spec.get("builtin", "scalar")
        dim = spec.get("dim", 1)
        field = CycloField(1)
        if kind == "scalar":
            if "dim" in spec:
                raise ConfigError(f"builtin scalar triple has dim 1 and "
                                  f"takes no dim key, got dim = {dim}")
            return scalar_triple(field)
        if kind == "zero":
            if dim < 1:
                raise ConfigError(f"builtin zero triple needs dim >= 1, "
                                  f"got dim = {dim}")
            return zero_triple(field, dim)
        if kind == "direct_sum":
            dim = spec.get("dim", 2)
            if dim < 2:
                raise ConfigError(f"builtin direct_sum triple needs "
                                  f"dim >= 2, got dim = {dim}")
            return direct_sum_triple(field, dim)
        raise ConfigError(f"unknown builtin triple {kind!r}")
    if "file" not in spec:
        raise ConfigError("triple source json needs a file")
    text = _read(spec["file"])
    try:
        alg, grading = algebra_from_dict(json.loads(text))
    except ValueError as err:
        raise ConfigError(f"{spec['file']}: {err}") from err
    if alg.operators != {TRIPLE: 3}:
        raise ConfigError(f"{spec['file']}: a triple system has exactly "
                          f"the operator {{'triple': 3}}, not "
                          f"{alg.operators}")
    # whatever graded_ops lists, the envelope needs graded triple products
    misgraded = grading and _misgraded(grading, [TRIPLE])
    if misgraded:
        raise ConfigError(f"{spec['file']}: the degrees do not grade the "
                          f"triple product: {misgraded[0]}")
    return TripleSystem(alg, grading, label=spec["file"])


def _run_division(cfg: JobConfig, report: Report, full: bool):
    from .constructions import (check_commutation, d_inv,
                                exchange_double_division, standard_realization)
    spec = cfg.division_spec
    T, beta, tau, t = spec["T"], spec["beta"], spec["tau"], spec["t"]
    field = CycloField(T.exponent)
    if tau is not None:
        D = d_inv(T, beta, tau, field)
    else:
        D = standard_realization(T, beta, field)
    if t is not None:
        D = exchange_double_division(D, t)
    report.artifacts["dimension"] = D.dim
    report.add_check("dimension-equals-support", D.dim == len(D.support),
                     f"dim {D.dim}", 1)
    report.add_report(check_commutation(D))
    report.add_report(check_grading(D.grading))
    if D.has_involution():
        report.add_report(check_involution(D.algebra))
    if full:
        report.add_decision("simple", lambda: (is_simple(D.algebra), ""))
        invertible = True
        for i in range(D.dim):
            try:
                D.basis_inverse(i)
            except (VerificationError, ZeroDivisionError):
                invertible = False
        report.add_check("homogeneous-elements-invertible", invertible,
                         "", D.dim)
    report.artifacts["algebra"] = algebra_to_dict(D.algebra, D.grading)


def _run_construct(cfg: JobConfig, report: Report, full: bool):
    if cfg.division_spec is not None and cfg.label is None:
        _run_division(cfg, report, full)
        return
    label = cfg.label
    if label is None:
        raise ConfigError("construct/verify needs a [label] or [division] section")
    field = _field_for(label)
    ca = label.build(field)
    report.artifacts["label"] = label.name
    report.artifacts["dimension"] = ca.algebra.dim
    report.artifacts["conductor"] = ca.field.conductor
    for rep in ca.verify():
        report.add_report(rep)
    if full:
        expected = {
            "exchange_pair": (False, False),
            "simple_algebra": (True, True),
            "exchange_division": (False, True),
        }[label.case]

        def pattern():
            inv = label.intrinsics(field)
            return ((inv.simple, inv.graded_simple) == expected,
                    f"simple={inv.simple} graded_simple={inv.graded_simple}, "
                    f"expected {expected}")
        report.add_decision("simple-with-involution",
                            lambda: (is_simple(ca.algebra), ""))
        report.add_decision("simplicity-pattern", pattern, 2)
    report.artifacts["algebra"] = algebra_to_dict(ca.algebra, ca.grading)


def _run_envelope(cfg: JobConfig, report: Report):
    W = _build_triple(cfg)
    report.artifacts["triple_dim"] = W.dim
    rep = check_at2(W, seed=cfg.seed)
    report.add_report(rep)
    if not rep.passed:
        report.notes.append("no envelope built: the triple fails "
                            f"{rep.name}, so it is no associative triple "
                            "system")
        return
    env = loos_envelope(W)
    report.artifacts["envelope_dim"] = env.algebra.dim
    report.add_report(check_associative(env.algebra))
    report.add_report(check_involution(env.algebra))
    report.add_report(check_grading(env.grading))
    W2 = recover_triple(env)
    report.add_check("round-trip-recovers-triple",
                     W2.algebra.tensors[TRIPLE] == W.algebra.tensors[TRIPLE],
                     "", 1)
    report.add_decision("simplicity-transfer-agrees", lambda: (
        True, f"triple simple = {triple_is_simple(W, env)}"))
    report.artifacts["envelope"] = algebra_to_dict(env.algebra, env.grading)


def _run_triple(cfg: JobConfig, report: Report, at2_only: bool):
    W = _build_triple(cfg)
    report.artifacts["triple_dim"] = W.dim
    rep = check_at2(W, seed=cfg.seed)
    report.add_report(rep)
    if not at2_only:
        report.artifacts["triple"] = algebra_to_dict(W.algebra, W.grading)


def _run_decide(path1: str, path2: str, verify: bool, report: Report):
    labels = []
    for path in (path1, path2):
        sub = parse_config(_read(path))
        if sub.label is None:
            raise ConfigError(f"{path}: decide-iso configs need a [label]")
        labels.append(sub.label)
    l1, l2 = labels
    if l1.params.group is not l2.params.group:
        raise ConfigError(f"{path1} grades by {l1.params.group} but {path2} "
                          f"by {l2.params.group}: decide-iso compares labels "
                          "over one group")
    field = CycloField(classify_conductor(l1, l2))
    decision = decide_iso(l1, l2, field)
    cert = {k: str(v) for k, v in decision.certificate.items()}
    report.artifacts["verdict"] = decision.verdict
    report.artifacts["certificate"] = cert
    report.add_check("decision-computed", True, decision.verdict, 1)
    if verify:
        if decision.is_yes:
            witness_isomorphism(l1, l2, decision.certificate, field)
            report.add_check("witness-verified", True, "", 1)
        else:
            ref = refute_isomorphism(l1, l2, field)
            report.add_check("refutation", ref.refuted,
                             f"{ref.method}: {ref.details}", 1)


def _run_census(cfg: JobConfig, report: Report):
    if cfg.group is None:
        raise ConfigError("census needs a [group] section")
    if not cfg.group.is_finite():
        raise ConfigError(f"census over {cfg.group} needs a finite group, "
                          f"but it has free rank {cfg.group.free_rank}")
    max_dim = 8 if cfg.max_dim is None else cfg.max_dim
    res = run_census(cfg.group, max_dim, cases=cfg.census_cases,
                     max_support=cfg.max_support)
    if not res.labels:
        raise ConfigError(f"census over {cfg.group} with max_dim = {max_dim} "
                          "enumerates no label")
    report.artifacts["census"] = res.to_dict()
    report.add_check("all-yes-witnessed",
                     res.verified_witnesses == res.yes_count,
                     f"{res.verified_witnesses}/{res.yes_count}",
                     res.yes_count)
    report.add_check("all-no-refuted", res.refutations == res.no_count,
                     f"{res.refutations}/{res.no_count}", res.no_count)
    report.add_check("zero-inconclusive", res.inconclusive == 0,
                     str(res.inconclusive), 1)


def run(cfg: JobConfig, *, decide_paths=None, verify_flag=False) -> Report:
    report = Report(cfg.command, cfg.seed)
    try:
        if cfg.command == "construct":
            _run_construct(cfg, report, full=False)
        elif cfg.command == "verify":
            _run_construct(cfg, report, full=True)
        elif cfg.command == "envelope":
            _run_envelope(cfg, report)
        elif cfg.command == "triple":
            _run_triple(cfg, report, at2_only=False)
        elif cfg.command == "check-at2":
            _run_triple(cfg, report, at2_only=True)
        elif cfg.command == "decide-iso":
            _run_decide(decide_paths[0], decide_paths[1], verify_flag, report)
        elif cfg.command == "census":
            _run_census(cfg, report)
        else:
            raise ConfigError("no command given (job.command or subcommand)")
    except SimplicityUndecided as err:
        # a verdict the job needs whole (the intrinsic invariants of census
        # and decide-iso) fails it as INCONCLUSIVE, like add_decision
        report.add_check("simplicity-decided", False, f"INCONCLUSIVE: {err}",
                         1)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ats",
        description="Exact workbench for graded algebras with involution "
                    "and associative triple systems")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("construct", "verify", "envelope", "triple", "check-at2",
                 "census"):
        p = sub.add_parser(name)
        p.add_argument("config", help="path to the job config")
        p.add_argument("--json", dest="json_out", metavar="PATH",
                       help="write the JSON report here")
        p.add_argument("--seed", type=int, default=None)
        if name == "census":
            p.add_argument("--max-dim", type=int, default=None)
    p = sub.add_parser("decide-iso")
    p.add_argument("config", help="config of the first label")
    p.add_argument("config2", help="config of the second label")
    p.add_argument("--verify", action="store_true",
                   help="back the decision with a witness or refutation")
    p.add_argument("--json", dest="json_out", metavar="PATH")
    p.add_argument("--seed", type=int, default=None)
    args = parser.parse_args(argv)

    t0 = time.time()
    try:
        cfg = parse_config(_read(args.config))
        cfg.command = args.command
        if args.seed is not None:
            cfg.seed = args.seed
        if getattr(args, "max_dim", None) is not None:
            cfg.max_dim = args.max_dim
        decide_paths = (args.config, args.config2) \
            if args.command == "decide-iso" else None
        report = run(cfg, decide_paths=decide_paths,
                     verify_flag=getattr(args, "verify", False))
    except (ConfigError, ConstraintError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (VerificationError, WitnessError) as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    print(report.summary())
    print(f"(wall time {time.time() - t0:.2f}s; not part of the JSON report)")
    out_path = args.json_out or cfg.output
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                write_report(fh, report.to_dict())
                fh.write("\n")
        except OSError as err:
            print(f"error: {out_path}: {err.strerror}", file=sys.stderr)
            return 2
    return 0 if report.status == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
