"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage/config errors.

Each command imports the modules it runs inside its handler, so a query
compiles and loads only those (the module calculus, the verify suite and
the character tables are not loaded by `omega`, say).
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, LimitExceeded, StringAlgError
from .gf import BAND_SCALARS
from .words import (
    Band,
    String,
    enumerate_bands,
    enumerate_strings,
    parse_word,
)

# Largest `chars --n-max`: time and output grow linearly in the levels
# (0.35 s and 0.7 MB of JSON at 4096).
_N_MAX_LIMIT = 4096


def _degree(args) -> int:
    return 1 if args.field == "gf2" else 2


def _emit(args, text: str):
    out = getattr(args, "out", None)
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out: {exc}")
    else:
        sys.stdout.write(text)


def _module_from_args(args):
    """The ModuleRep of the --string or --band arguments."""
    from .modules import band_module, string_module

    if bool(args.string) == bool(args.band):
        raise ConfigError("give exactly one of --string or --band")
    if args.string:
        if args.lam is not None or args.mult is not None:
            raise ConfigError("--lam and --mult need --band, not --string")
        return string_module(parse_word(args.string), _degree(args))
    lam, deg = BAND_SCALARS[args.lam or "1"]
    deg = max(deg, _degree(args))
    mult = 1 if args.mult is None else args.mult
    return band_module(Band.from_word(parse_word(args.band)), lam, mult, deg)


def cmd_classes(args):
    """`strings` and `bands`: the canonical classes up to a length."""
    enumerate_classes = enumerate_strings if args.command == "strings" else enumerate_bands
    classes = enumerate_classes(args.max_len)
    data = {"max_len": args.max_len, "count": len(classes), "classes": [c.text() for c in classes]}
    if args.format == "json":
        _emit(args, json.dumps(data, indent=2) + "\n")
    else:
        _emit(args, "".join(c + "\n" for c in data["classes"]) + f"# {data['count']} classes\n")


def cmd_module(args):
    from . import calculus as C

    M = _module_from_args(args)
    info = C.structure(M)
    if args.format == "json":
        payload = M.to_json_dict()
        payload["structure"] = info
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = [
            f"{M.label}: dim {M.dim} over {M.field}",
            f"radical layers: {info['radical_series']}",
            f"socle layers:   {info['socle_series']}",
            f"composition multiplicities: {info['multiplicities']}",
        ]
        _emit(args, "\n".join(lines) + "\n")


def cmd_hom(args):
    from . import calculus as C
    from .modules import string_hom_basis, string_module

    degree = _degree(args)
    S = parse_word(args.source)
    T = parse_word(args.target)
    basis = string_hom_basis(S, T, degree)
    matrix_dim = C.hom_dim(string_module(S, degree), string_module(T, degree))
    data = {
        "source": S.text(),
        "target": T.text(),
        "combinatorial_dim": len(basis),
        "matrix_dim": matrix_dim,
        "maps": [
            sorted([r, c] for r in range(h.nrows) for c in range(h.ncols) if h.entry(r, c))
            for h in basis
        ],
    }
    if args.format == "json":
        _emit(args, json.dumps(data, indent=2) + "\n")
    else:
        _emit(
            args,
            f"hom({S.text()} -> {T.text()}): dim {len(basis)} "
            f"(matrix engine: {matrix_dim})\n"
            + "".join(f"  map {i}: {m}\n" for i, m in enumerate(data["maps"])),
        )


def cmd_stable_end(args):
    from . import calculus as C

    M = _module_from_args(args)
    d = C.stable_end_dim(M)
    if args.format == "json":
        _emit(args, json.dumps({"module": M.label, "stable_end_dim": d}) + "\n")
    else:
        _emit(args, f"stable end dim of {M.label}: {d}\n")


def cmd_ext1(args):
    from . import calculus as C
    from .modules import string_module

    degree = _degree(args)
    M = string_module(parse_word(args.source), degree)
    N = string_module(parse_word(args.target), degree)
    d = C.ext1_dim(M, N)
    if args.format == "json":
        _emit(args, json.dumps({"source": M.label, "target": N.label, "ext1_dim": d}) + "\n")
    else:
        _emit(args, f"ext1({M.label}, {N.label}) = {d}\n")


def cmd_omega(args):
    from .arquiver import syzygy_string

    s = String.from_word(parse_word(args.string))
    t = syzygy_string(s, args.power)
    if args.format == "json":
        _emit(args, json.dumps({"string": s.text(), "power": args.power, "result": t.text()}) + "\n")
    else:
        _emit(args, f"omega^{args.power}({s.text()}) = {t.text()}\n")


def cmd_component(args):
    from .arquiver import component_json, component_window, export_dot

    if args.stable_end and args.format != "json":
        raise ConfigError(f"--stable-end needs --format json, not {args.format}")
    s = String.from_word(parse_word(args.string))
    comp = component_window(s, args.radius)
    if args.format == "dot":
        _emit(args, export_dot(comp))
    elif args.format == "json":
        data = component_json(comp)
        if args.stable_end:
            from .calculus import stable_end_dim
            from .modules import string_module

            for t, entry in zip(comp.node_list(), data["nodes"]):
                entry["stable_end_dim"] = stable_end_dim(string_module(t))
        _emit(args, json.dumps(data, indent=2) + "\n")
    else:
        lines = [f"component window of {s.text()} (radius {args.radius}):"]
        for t in comp.node_list():
            lines.append(f"  d={comp.nodes[t]}  dim={len(t.letters)+1:3d}  {t.text()}")
        _emit(args, "\n".join(lines) + "\n")


def cmd_taxonomy(args):
    from .arquiver import classify

    s = String.from_word(parse_word(args.string))
    family = classify(s, radius=args.radius)
    if args.format == "json":
        _emit(args, json.dumps({"string": s.text(), "family": family}) + "\n")
    else:
        _emit(args, f"{s.text()}: {family}\n")


def cmd_chars(args):
    from .chars import lift_characters, table_json

    if not 0 <= args.n_max <= _N_MAX_LIMIT:
        raise LimitExceeded(f"n_max {args.n_max} not in 0..{_N_MAX_LIMIT}")
    data = table_json()
    data["lift_characters"] = {
        f"n={n}": [list(c) for c in lift_characters(n)] for n in range(args.n_max + 1)
    }
    if args.format == "json":
        _emit(args, json.dumps(data, indent=2) + "\n")
    else:
        lines = ["classes: " + " ".join(data["classes"])]
        for i, row in enumerate(data["irreducibles"], 1):
            lines.append(f"chi{i}: {row}")
        lines.append(f"decomposition matrix: {data['decomposition_matrix']}")
        for key, val in data["lift_characters"].items():
            lines.append(f"lift {key}: {val}")
        _emit(args, "\n".join(lines) + "\n")


def cmd_verify(args):
    from .verify import SuiteConfig, config_from_dict, report_json, run_suite

    if args.config is not None:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ConfigError(f"config is not valid JSON: {exc}")
        cfg = config_from_dict(raw)
    else:
        cfg = SuiteConfig()
    if args.sections is not None:
        cfg.sections = tuple(args.sections.split(","))
    if args.max_len is not None:
        cfg.string_scan_len = args.max_len
    if args.band_len is not None:
        cfg.band_len = args.band_len
    if args.n_max is not None:
        cfg.tower_n = args.n_max
    if args.radius is not None:
        cfg.radius = args.radius
    if args.seed is not None:
        cfg.seed = args.seed
    if args.timings:
        cfg.include_timings = True
    report = run_suite(cfg)
    if args.format == "text":
        lines = []
        for rec in report["checks"]:
            mark = "ok " if rec["status"] == "pass" else "FAIL"
            lines.append(f"[{mark}] {rec['check_id']}")
        s = report["summary"]
        lines.append(f"pass {s['pass']}  fail {s['fail']}  undecided {s['undecided']}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, report_json(report))
    return 0 if report["summary"]["fail"] == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stringalg",
        description="exact string/band module calculus and verification suite",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fmt_choices=("text", "json"), field=False):
        sp.add_argument("--out", help="write output to this path")
        sp.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])
        if field:
            sp.add_argument("--field", choices=("gf2", "gf4"), default="gf2")

    def module_args(sp):
        """The one string or band module of `module` and `stable-end`."""
        sp.add_argument("--string")
        sp.add_argument("--band")
        sp.add_argument("--lam", choices=tuple(BAND_SCALARS), help="band parameter (default 1)")
        sp.add_argument("--mult", type=int, help="band multiplicity (default 1)")
        common(sp, field=True)

    for kind in ("strings", "bands"):
        sp = sub.add_parser(kind, help=f"enumerate {kind[:-1]} classes")
        sp.add_argument("--max-len", type=int, required=True)
        common(sp)
        sp.set_defaults(fn=cmd_classes)

    sp = sub.add_parser("module", help="build a string or band module")
    module_args(sp)
    sp.set_defaults(fn=cmd_module)

    sp = sub.add_parser("hom", help="hom space between string modules")
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    common(sp, field=True)
    sp.set_defaults(fn=cmd_hom)

    sp = sub.add_parser("stable-end", help="stable endomorphism dimension")
    module_args(sp)
    sp.set_defaults(fn=cmd_stable_end)

    sp = sub.add_parser("ext1", help="first extension dimension")
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    common(sp, field=True)
    sp.set_defaults(fn=cmd_ext1)

    sp = sub.add_parser("omega", help="syzygy of a string, as a string")
    sp.add_argument("--string", required=True)
    sp.add_argument("--power", type=int, default=1)
    common(sp)
    sp.set_defaults(fn=cmd_omega)

    sp = sub.add_parser("component", help="stable component window")
    sp.add_argument("--string", required=True)
    sp.add_argument("--radius", type=int, default=2)
    sp.add_argument("--stable-end", action="store_true", help="add each node's stable End (--format json only)")
    common(sp, ("text", "json", "dot"))
    sp.set_defaults(fn=cmd_component)

    sp = sub.add_parser("taxonomy", help="classification family of a string")
    sp.add_argument("--string", required=True)
    sp.add_argument("--radius", type=int, default=6)
    common(sp)
    sp.set_defaults(fn=cmd_taxonomy)

    sp = sub.add_parser("chars", help="character table and lift characters")
    sp.add_argument("--n-max", type=int, default=3)
    common(sp)
    sp.set_defaults(fn=cmd_chars)

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--config", help="JSON config file")
    sp.add_argument("--sections", help="comma-separated check ids")
    sp.add_argument("--max-len", type=int, default=None, help="string scan bound")
    sp.add_argument("--band-len", type=int, default=None, help="band scan bound")
    sp.add_argument("--n-max", type=int, default=None, help="tower bound")
    echoed = "only echoed into the report's config; no check reads it"
    sp.add_argument("--radius", type=int, default=None, help=echoed)
    sp.add_argument("--seed", type=int, default=None, help=echoed)
    sp.add_argument("--timings", action="store_true")
    common(sp, ("json", "text"))
    sp.set_defaults(fn=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StringAlgError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
