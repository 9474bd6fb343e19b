"""Line-oriented config files for batch jobs.

Grammar: `[section]` headers, `key = value` lines, `#` comments.
Unknown sections or keys are rejected with their line number, as are
malformed values; constraint violations from the constructions keep
their equation-named messages.

    [job]
    command = verify
    seed = 0

    [group]
    G = Z/2 x Z/2

    [label]
    case = simple_algebra
    T = (1,0) (0,1)
    beta = [[0,1],[1,0]]
    kappa0 = 1
    gamma0 = (0,0)
    kappa1 = 1
    gamma1 = (1,0)
    delta = -1
    g = (1,1)

Elements of the grading group are integer tuples `(g1,...,gk)`;
bicharacters are exponent matrices over the listed generators of T;
scalars in JSON artifacts use the forms `a/b` and `z{N}^k`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

from .classify import EXCHANGE_DIVISION, EXCHANGE_PAIR, SIMPLE_ALGEBRA, ClassLabel
from .constructions import ExchangePairParams, InvolutionParams
from .groups import (AbelianGroup, Bicharacter, GroupElement, GroupError,
                     QuadraticForm, Subgroup)


class ConfigError(ValueError):
    """Malformed config; message carries the offending line number."""


# the [triple] keys each triple source reads besides `source`
TRIPLE_SOURCE_KEYS = {"grw": (), "builtin": ("builtin", "dim"),
                      "json": ("file",)}

_SECTIONS = {
    "job": {"command", "seed", "output", "max_dim"},
    "group": {"G"},
    "label": {"case", "T", "beta", "t", "kappa0", "gamma0", "kappa1",
              "gamma1", "delta", "g", "m0", "m1", "S_signs0", "S_signs1"},
    "division": {"T", "beta", "tau", "t"},
    "triple": {"source", *(key for keys in TRIPLE_SOURCE_KEYS.values()
                           for key in keys)},
    "census": {"max_dim", "max_support", "cases"},
}

_COMMANDS = ("construct", "verify", "envelope", "triple", "check-at2",
             "decide-iso", "census")


@dataclass
class JobConfig:
    command: str = None
    seed: int = 0
    output: str = None
    max_dim: int = None
    group: AbelianGroup = None
    label: ClassLabel = None
    division_spec: dict = None    # T gens, beta, optional tau signs, t
    triple_spec: dict = dc_field(default_factory=dict)
    max_support: int = None
    census_cases: tuple = (EXCHANGE_PAIR, SIMPLE_ALGEBRA, EXCHANGE_DIVISION)


def _raw_sections(text: str):
    """{section: {key: (value, lineno)}}; a repeated section or key is an
    error naming both lines."""
    sections, headers = {}, {}
    current = name = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            if name in headers:
                raise ConfigError(f"line {lineno}: section [{name}] repeats "
                                  f"line {headers[name]}")
            headers[name] = lineno
            current = sections[name] = {}
            continue
        if current is None:
            raise ConfigError(f"line {lineno}: key outside any section")
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SECTIONS[name]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{name}]")
        if key in current:
            raise ConfigError(f"line {lineno}: key {key!r} in [{name}] "
                              f"repeats line {current[key][1]}")
        current[key] = (value, lineno)
    return sections


def _int(text: str, lineno, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"line {lineno or '?'}: {key} must be an integer, "
                          f"got {text!r}") from None


def parse_group(text: str, lineno: int = 0) -> AbelianGroup:
    text = text.strip()
    if text in ("1", "trivial"):
        return AbelianGroup(0, ())
    free, torsion = 0, []
    for token in text.split("x"):
        token = token.strip()
        if token == "Z":
            free += 1
        elif token.startswith("Z^"):
            free += _int(token[2:], lineno, "a free rank")
        elif token.startswith("Z/"):
            torsion.append(_int(token[2:], lineno, "a torsion order"))
        else:
            raise ConfigError(
                f"line {lineno}: cannot parse group factor {token!r} "
                "(expected Z, Z^r, or Z/m)")
    try:
        return AbelianGroup(free, tuple(torsion))
    except GroupError as err:
        raise ConfigError(f"line {lineno}: {err}") from None


def _parse_element(G: AbelianGroup, token: str, lineno: int) -> GroupElement:
    token = token.strip()
    if not (token.startswith("(") and token.endswith(")")):
        raise ConfigError(f"line {lineno}: element must look like (g1,...,gk),"
                          f" got {token!r}")
    inner = token[1:-1].strip()
    coords = [_int(c, lineno, "a coordinate") for c in inner.split(",")] \
        if inner else []
    if len(coords) != G.ncoords:
        raise ConfigError(
            f"line {lineno}: element {token} has {len(coords)} coordinates, "
            f"group {G} needs {G.ncoords}")
    return G.element(tuple(coords))


def _parse_elements(G, value, lineno):
    value = value.strip()
    if not value:
        return ()
    parts = []
    depth, cur = 0, ""
    for ch in value:
        if ch == "(":
            depth += 1
        if ch == ")":
            depth -= 1
        cur += ch
        if depth == 0 and ch == ")":
            parts.append(cur.strip())
            cur = ""
    if cur.strip():
        raise ConfigError(f"line {lineno}: dangling element text {cur!r}")
    return tuple(_parse_element(G, p, lineno) for p in parts)


def _parse_ints(value, lineno, key):
    return tuple(_int(tok, lineno, key) for tok in value.split())


def _get(section, key, default=None):
    if key in section:
        return section[key][0], section[key][1]
    return default, None


def _parse_support(G: AbelianGroup, section: dict):
    """(T, beta): the subgroup of the listed generators and the
    nondegenerate alternating bicharacter of its exponent matrix."""
    t_text, t_line = _get(section, "T", "")
    gens = _parse_elements(G, t_text or "", t_line or 0)
    beta_text, beta_line = _get(section, "beta")
    if gens and beta_text is None:
        raise ConfigError(f"line {t_line}: nontrivial T needs a beta "
                          "exponent matrix")
    try:
        matrix = json.loads(beta_text) if gens else []
    except json.JSONDecodeError:
        raise ConfigError(f"line {beta_line}: beta must be a JSON matrix")
    n = len(gens)
    if not (type(matrix) is list and len(matrix) == n and all(
            type(row) is list and len(row) == n
            and all(type(k) is int for k in row) for row in matrix)):
        raise ConfigError(f"line {beta_line}: beta must be a list of {n} "
                          f"lists of {n} ints, one per generator of T")
    try:
        T = Subgroup(G, gens)
        beta = Bicharacter.from_generator_matrix(T, gens, matrix)
    except GroupError as err:
        raise ConfigError(f"line {beta_line or t_line}: {err}") from None
    if not beta.is_nondegenerate_alternating():
        raise ConfigError(
            f"line {beta_line or '?'}: beta must be a nondegenerate "
            "alternating bicharacter on T")
    return T, beta


def parse_label(G: AbelianGroup, section: dict) -> ClassLabel:
    case, lineno = _get(section, "case")
    if case not in (EXCHANGE_PAIR, SIMPLE_ALGEBRA, EXCHANGE_DIVISION):
        raise ConfigError(f"line {lineno or '?'}: case must be one of "
                          f"{EXCHANGE_PAIR}, {SIMPLE_ALGEBRA}, {EXCHANGE_DIVISION}")
    T, beta = _parse_support(G, section)

    kappa0, k0_line = _get(section, "kappa0")
    kappa1, k1_line = _get(section, "kappa1")
    gamma0, g0_line = _get(section, "gamma0")
    gamma1, g1_line = _get(section, "gamma1")
    for nm, v, ln in (("kappa0", kappa0, k0_line), ("kappa1", kappa1, k1_line),
                      ("gamma0", gamma0, g0_line), ("gamma1", gamma1, g1_line)):
        if v is None:
            raise ConfigError(f"label is missing {nm}")
    kappa0 = _parse_ints(kappa0, k0_line, "kappa0")
    kappa1 = _parse_ints(kappa1, k1_line, "kappa1")
    gamma0 = _parse_elements(G, gamma0, g0_line)
    gamma1 = _parse_elements(G, gamma1, g1_line)

    if case == EXCHANGE_PAIR:
        for key in ("delta", "g", "t", "m0", "m1", "S_signs0", "S_signs1"):
            if key in section:
                raise ConfigError(
                    f"line {section[key][1]}: {key} does not apply to "
                    "the exchange_pair case")
        params = ExchangePairParams(group=G, T=T, beta=beta, kappa0=kappa0,
                                    gamma0=gamma0, kappa1=kappa1, gamma1=gamma1)
        return ClassLabel(params)

    delta_text, delta_line = _get(section, "delta", "1")
    delta = _int(delta_text, delta_line, "delta")
    g_text, g_line = _get(section, "g")
    g = _parse_element(G, g_text, g_line) if g_text else G.identity
    tt, t_line2 = _get(section, "t")
    if case == SIMPLE_ALGEBRA and tt is not None:
        raise ConfigError(f"line {t_line2}: t does not apply to the "
                          "simple_algebra case")
    if case == EXCHANGE_DIVISION and tt is None:
        raise ConfigError("exchange_division needs the order-2 element t")
    t_el = _parse_element(G, tt, t_line2) if tt is not None else None
    kwargs = {}
    for which in ("0", "1"):
        m_text, m_line = _get(section, f"m{which}")
        if m_text is not None:
            kwargs[f"m{which}"] = _int(m_text, m_line, f"m{which}")
        s_text, s_line = _get(section, f"S_signs{which}")
        if s_text is not None:
            kwargs[f"S_signs{which}"] = _parse_ints(s_text, s_line,
                                                    f"S_signs{which}")
    params = InvolutionParams(group=G, T=T, beta=beta, kappa0=kappa0,
                              gamma0=gamma0, kappa1=kappa1, gamma1=gamma1,
                              delta=delta, g=g, t=t_el, **kwargs)
    return ClassLabel(params)


def parse_division(G: AbelianGroup, section: dict) -> dict:
    """A graded division algebra spec: support generators, bicharacter
    matrix, optional quadratic-form signs (over the enumerated support,
    sorted by coordinates) and optional doubling element."""
    T, beta = _parse_support(G, section)
    out = {"T": T, "beta": beta, "tau": None, "t": None}
    tau_text, tau_line = _get(section, "tau")
    if tau_text is not None:
        signs = _parse_ints(tau_text, tau_line, "tau")
        if len(signs) != len(T):
            raise ConfigError(
                f"line {tau_line}: tau needs one sign per element of T "
                f"({len(T)} values, sorted by coordinates)")
        try:
            out["tau"] = QuadraticForm(T, dict(zip(T.elements, signs)))
        except GroupError as err:
            raise ConfigError(f"line {tau_line}: tau: {err}") from None
    t_el_text, t_el_line = _get(section, "t")
    if t_el_text is not None:
        out["t"] = _parse_element(G, t_el_text, t_el_line)
    return out


def parse_config(text: str) -> JobConfig:
    """Parse and schema-validate a config; raises ConfigError with line
    positions on syntax errors and propagates equation-named constraint
    errors from label validation."""
    sections = _raw_sections(text)
    cfg = JobConfig()
    job = sections.get("job", {})
    if "command" in job:
        cfg.command, lineno = job["command"]
        if cfg.command not in _COMMANDS:
            raise ConfigError(
                f"line {lineno}: unknown command {cfg.command!r} "
                f"(expected one of {', '.join(_COMMANDS)})")
    if "seed" in job:
        cfg.seed = _int(*job["seed"], "seed")
    if "output" in job:
        cfg.output = job["output"][0]
    if "max_dim" in job:
        cfg.max_dim = _int(*job["max_dim"], "max_dim")
    if "group" in sections:
        g_text, g_line = sections["group"].get("G", (None, None))
        if g_text is None:
            raise ConfigError("[group] section needs G = ...")
        cfg.group = parse_group(g_text, g_line)
    if "label" in sections:
        if cfg.group is None:
            raise ConfigError("[label] needs a [group] section")
        cfg.label = parse_label(cfg.group, sections["label"])
    if "division" in sections:
        if cfg.group is None:
            raise ConfigError("[division] needs a [group] section")
        cfg.division_spec = parse_division(cfg.group, sections["division"])
    if "triple" in sections:
        cfg.triple_spec = {k: v for k, (v, _) in sections["triple"].items()}
        if "dim" in cfg.triple_spec:
            cfg.triple_spec["dim"] = _int(*sections["triple"]["dim"], "dim")
    if "census" in sections:
        census = sections["census"]
        if "max_dim" in census:
            cfg.max_dim = _int(*census["max_dim"], "max_dim")
        if "max_support" in census:
            cfg.max_support = _int(*census["max_support"], "max_support")
            if cfg.max_support < 1:
                raise ConfigError(
                    f"line {census['max_support'][1]}: max_support must be "
                    f"at least 1, got max_support = {cfg.max_support}")
        if "cases" in census:
            text, lineno = census["cases"]
            cases = tuple(text.split())
            if not cases:
                raise ConfigError(
                    f"line {lineno}: cases must name at least one census case")
            for c in cases:
                if c not in (EXCHANGE_PAIR, SIMPLE_ALGEBRA, EXCHANGE_DIVISION):
                    raise ConfigError(f"unknown census case {c!r}")
            cfg.census_cases = cases
    return cfg
