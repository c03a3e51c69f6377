"""Command-line interface.

Subcommands: validate, leafspace, decompose, canon, iso, realize, render.
JSON reports go to stdout.  Exit codes: 0 success (or isomorphic), 1
validation failure (or not isomorphic), 2 parse error, 3 usage error, 141
stdout closed before the output was written (a broken pipe, as ``| head``
makes).
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
from types import SimpleNamespace

from .core import SurfaceError, is_connected, validate_class_f
from .decomposition import (
    Mode,
    Shape,
    StripClass,
    canonical_code,
    canonicalize,
    check_cycle_components,
    classify_component,
    component_closures,
    decompose,
    is_isomorphic,
)
from .io import _NL, ParseError, _encode_str, _records, _strings, leafspace_json, parse, render, serialize
from .leafspace import build_leaf_space

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_PARSE = 2
EXIT_USAGE = 3
# 128 + SIGPIPE: the status a shell reports for a command that a broken pipe ended
EXIT_PIPE = 141


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        print(json.dumps({"error": "io", "message": str(e)}))
        raise SystemExit(EXIT_PARSE)
    except UnicodeDecodeError as e:
        print(json.dumps({"error": "parse", "message": f"not UTF-8: {e}"}))
        raise SystemExit(EXIT_PARSE)
    try:
        return parse(text)
    except ParseError as e:
        print(json.dumps({"error": "parse", "message": str(e)}))
        raise SystemExit(EXIT_PARSE)
    except SurfaceError as e:
        print(json.dumps({"error": "validation", "rule": e.rule, "message": e.message}))
        raise SystemExit(EXIT_INVALID)


def _refuse_disconnected(surface, **which) -> bool:
    """Print the DisconnectedSurface refusal unless ``surface`` is connected.

    ``which`` names the refused file for a command that reads two.
    """
    if is_connected(surface):
        return False
    print(json.dumps({"error": "validation", "rule": "DisconnectedSurface", **which}))
    return True


def _point_order(ls) -> dict:
    """Point id -> rank in first-incidence order: by strip position, side,
    interval place, the order in which build_leaf_space fills the incidence."""
    first = dict.fromkeys([pid for pids in ls.incidence.values() for pid in pids])
    return dict(zip(first, range(len(first))))


def _cmd_validate(args) -> int:
    # validate_class_f's dict is library API, so it is formatted, not rebuilt
    report = validate_class_f(_load(args.file))
    enc = _encode_str
    n1, n2, n3, n4, n5 = _NL[1:6]
    leaves = []
    for leaf in report["glued_leaves"]:
        collars = [f'{{{n5}"strip": {enc(c["strip"])},{n5}"side": {enc(c["side"])}{n4}}}' for c in leaf["collars"]]
        leaves.append(
            f'{{{n3}"id": {enc(leaf["id"])},{n3}"collars": {_records(collars, 3)},'
            f'{n3}"distinct": {"true" if leaf["distinct"] else "false"}{n2}}}'
        )
    print(
        f'{{{n1}"ok": {"true" if report["ok"] else "false"},'
        f'{n1}"connected": {"true" if report["connected"] else "false"},'
        f'{n1}"components": {_records([_strings(c, 2) for c in report["components"]], 1)},'
        f'{n1}"glued_leaves": {_records(leaves, 1)},{n1}"warnings": {_strings(report["warnings"], 1)}\n}}'
    )
    return EXIT_OK


def _cmd_leafspace(args) -> int:
    surface = _load(args.file)
    if args.format == "dot":
        sys.stdout.write(render(surface, "dot"))
    else:
        sys.stdout.write(leafspace_json(build_leaf_space(surface)))
    return EXIT_OK


_SHAPE_TEXT = {s: _encode_str(s.value) for s in Shape}
_CLASS_TEXT = {c: _encode_str(c.value) for c in StripClass}


def _cmd_decompose(args) -> int:
    surface = _load(args.file)
    if _refuse_disconnected(surface):
        return EXIT_INVALID
    mode = Mode(args.mode)
    ls = build_leaf_space(surface)
    comps, cut = decompose(surface, mode, ls)
    order = _point_order(ls)
    cycle_check = check_cycle_components(surface, comps)
    enc = _encode_str
    n1, n2, n3, n4, n5 = _NL[1:6]
    chain = Shape.CHAIN
    recs = []
    for comp in comps:
        strips = [f'{{{n5}"id": {enc(s)},{n5}"flipped": {"true" if f else "false"}{n4}}}' for s, f in comp.strips]
        rec = (
            f'{{{n3}"strips": {_records(strips, 3)},{n3}"shape": {_SHAPE_TEXT[comp.shape]},'
            f'{n3}"class": {_CLASS_TEXT[classify_component(comp)]},{n3}"interfaces": {_strings(comp.interfaces, 3)}'
        )
        if comp.shape is chain:
            lower, upper, overlap = component_closures(comp)
            rec += (
                f',{n3}"closures": {{{n4}"lower": {_strings([p.id for p in lower.base_points], 4)},'
                f'{n4}"upper": {_strings([p.id for p in upper.base_points], 4)},'
                f'{n4}"overlap": {_strings(sorted([p.id for p in overlap], key=order.__getitem__), 4)}{n3}}}'
            )
            # an id may be the empty string, so test for None, as classify_component does
            low, up = comp.retained_lower, comp.retained_upper
            if low is not None or up is not None:
                rec += (
                    f',{n3}"retained": {{{n4}"lower": {"null" if low is None else enc(low)},'
                    f'{n4}"upper": {"null" if up is None else enc(up)}{n3}}}'
                )
        else:
            rec += f',{n3}"monodromy": {comp.monodromy}'
        recs.append(rec + n2 + "}")
    cut_ids = {p.id for p in cut}
    print(
        f'{{{n1}"mode": {enc(mode.value)},{n1}"cut": {_strings([pid for pid in order if pid in cut_ids], 1)},'
        f'{n1}"components": {_records(recs, 1)},{n1}"cycle_check_ok": {"true" if cycle_check.ok else "false"}\n}}'
    )
    return EXIT_OK


def _cmd_canon(args) -> int:
    surface = _load(args.file)
    if _refuse_disconnected(surface):
        return EXIT_INVALID
    canon = canonicalize(surface)
    sys.stdout.write(serialize(canon))
    print(json.dumps({"code": canonical_code(canon).hex()}))
    return EXIT_OK


def _cmd_iso(args) -> int:
    a = _load(args.file1)
    b = _load(args.file2)
    for name, s in (("file1", a), ("file2", b)):
        if _refuse_disconnected(s, which=name):
            return EXIT_INVALID
    same = is_isomorphic(a, b)
    print(json.dumps({"isomorphic": same}))
    return EXIT_OK if same else EXIT_INVALID


def _usage(message: str) -> int:
    print(json.dumps({"error": "usage", "message": message}))
    return EXIT_USAGE


def _cmd_realize(args) -> int:
    from .homeo import HomeoError  # loaded here, by the one command that needs it

    if args.depth < 1:
        return _usage("--depth must be at least 1")
    if args.samples < 1:
        return _usage("--samples must be at least 1")
    surface = _load(args.file)
    if _refuse_disconnected(surface):
        return EXIT_INVALID
    comps, _ = decompose(surface)
    comp = next((c for c in comps if args.component in c.strip_ids()), None)
    if comp is None:
        return _usage(f"no component contains strip {args.component!r}")
    if comp.shape is not Shape.CHAIN:
        return _usage(f"the component of strip {args.component!r} is a {comp.shape.value}; realize needs a chain")
    lower, upper, _ = component_closures(comp)
    closure = lower if args.side == "lower" else upper
    try:
        rows = _realize_rows(args, surface, comp, closure)
    except HomeoError as e:
        # e.g. a --depth so deep that the dyadic sub-segments of the
        # trapezoid collapse in floating point
        return _usage(f"{type(e).__name__}: {e}")
    sys.stdout.write("\n".join(rows) + "\n")
    return EXIT_OK


def _realize_rows(args, surface, comp, closure) -> list[str]:
    """The CSV rows of ``realize``: an interior grid, then the base leaves."""
    from .homeo import realize_half_strip

    chart, eta = realize_half_strip(surface, comp, closure, depth=args.depth)
    n = args.samples
    rows = ["x_in,y_in,x_out,y_out,leaf_id"]

    def leaf_id(x_out: float, y_out: float) -> str:
        if y_out <= -1.0 + 1e-12:
            # a base point carries the id of the leaf whose span holds x_out
            for p, (lo, hi) in zip(closure.base_points, chart.leaf_spans):
                if lo < x_out < hi:
                    return p.id
            return "base"
        return f"level:{y_out:.9f}"

    xs_lo = min((a for a, _, _ in chart.rectangles), default=-1.0) - 1.0
    xs_hi = max((b for _, b, _ in chart.rectangles), default=1.0) + 1.0
    for i in range(n):
        for j in range(n):
            x = xs_lo + (xs_hi - xs_lo) * i / max(n - 1, 1)
            y = -1.0 + (j + 1) / n
            X, Y = eta.apply(x, y)
            rows.append(f"{x:.9g},{y:.9g},{X:.9g},{Y:.9g},{leaf_id(X, Y)}")
    for a, b, _ in chart.rectangles:
        for i in range(1, n):
            x = a + (b - a) * i / n
            X, Y = eta.apply(x, -1.0)
            rows.append(f"{x:.9g},-1,{X:.9g},{Y:.9g},{leaf_id(X, Y)}")
    return rows


def _cmd_render(args) -> int:
    surface = _load(args.file)
    sys.stdout.write(render(surface, args.format))
    return EXIT_OK


# command -> (handler, positionals, {option: (choices, default)}, help).  An
# option without a default is required; an int default makes its value an int.
_COMMANDS = {
    "validate": (_cmd_validate, ("file",), {}, "validate a surface document"),
    "leafspace": (_cmd_leafspace, ("file",), {"--format": (("dot", "json"), "json")}, "emit the leaf space"),
    "decompose": (_cmd_decompose, ("file",), {"--mode": (("interior", "with-boundary"), "with-boundary")}, "cut and classify"),
    "canon": (_cmd_canon, ("file",), {}, "canonicalize and print the code"),
    "iso": (_cmd_iso, ("file1", "file2"), {}, "decide foliated-homeomorphism equivalence"),
    "realize": (
        _cmd_realize, ("file",),
        {"--component": (None, None), "--side": (("lower", "upper"), "lower"), "--samples": (None, 16), "--depth": (None, 3)},
        "sample as CSV the half-strip realization of the component holding strip COMPONENT",
    ),
    "render": (_cmd_render, ("file",), {"--format": (("svg", "dot"), "svg")}, "emit an SVG or DOT diagram"),
}
_HELP = ("-h", "--help")
_NEGATIVE = re.compile(r"-\d+$|-\d*\.\d+$")


def _usage_line(command=None) -> str:
    if command is None:
        return f"usage: stripfol [-h] {{{','.join(_COMMANDS)}}} ..."
    _, positionals, options, _ = _COMMANDS[command]
    words = [f"{name} {{{','.join(c)}}}" if c else f"{name} {name[2:].upper()}" for name, (c, _) in options.items()]
    words = [w if d is None else f"[{w}]" for w, (_, d) in zip(words, options.values())]
    return " ".join(["usage: stripfol", command, "[-h]", *words, *positionals])


def _refuse(command, message: str):
    """Refuse the arguments as argparse did: the usage line on stderr, the
    message as the one JSON line on stdout, exit code 3."""
    print(_usage_line(command), file=sys.stderr)
    raise SystemExit(_usage(message))


def _help(command, option: str, attached) -> None:
    """Print the help and exit 0.  Only more ``h``s may be attached to -h."""
    while attached is not None:
        if option == "--help" or not attached.startswith("h"):
            _refuse(command, f"argument -h/--help: ignored explicit argument {attached!r}")
        attached = attached[1:] or None
    if command is None:
        rows = "".join(f"\n  {name:<11}{spec[3]}" for name, spec in _COMMANDS.items())
        sys.stdout.write(f"{_usage_line()}\n\n{__doc__ or ''}\ncommands:{rows}\n")
    else:
        sys.stdout.write(f"{_usage_line(command)}\n\n{_COMMANDS[command][3]}\n")
    raise SystemExit(EXIT_OK)


def _option(arg: str, names, command):
    """Read ``arg`` as argparse does against the option strings ``names``:
    None for a positional, else (option, text attached by "=" or None), the
    option None if unknown.  A long option may be cut to any prefix that
    names it alone."""
    if not arg.startswith("-") or arg == "-":
        return None
    if arg in names:
        return arg, None
    name, eq, value = arg.partition("=")
    if eq and name in names:
        return name, value
    if arg[1] == "-":
        found = [(o, value if eq else None) for o in names if o.startswith(name)]
    else:
        found = [("-h", arg[2:])] if arg.startswith("-h") else []
    if len(found) > 1:
        _refuse(command, f"ambiguous option: {arg} could match {', '.join(o for o, _ in found)}")
    if found:
        return found[0]
    return None if _NEGATIVE.match(arg) or " " in arg else (None, None)


def _parse_command(command: str, args: list):
    """The namespace of one command's arguments, and the arguments left over."""
    fn, positionals, options, _ = _COMMANDS[command]
    names = _HELP + tuple(options)
    # every argument is read before any is taken; those after "--" are positional
    n = args.index("--") if "--" in args else len(args)
    read = [_option(arg, names, command) for arg in args[:n]] + ["--"] * (n < len(args)) + [None] * (len(args) - n - 1)
    values = {"command": command, "fn": fn, **{name[2:]: default for name, (_, default) in options.items()}}
    todo, seen, extras = list(positionals), set(), []
    i, taken = 0, False
    while i < len(args):
        kind, arg, after_taken, taken = read[i], args[i], taken, False
        i += 1
        if isinstance(kind, tuple) and kind[0] in _HELP:
            _help(command, *kind)
        elif isinstance(kind, tuple) and kind[0]:
            name, value = kind
            if value is None:
                if i == len(args) or read[i] is not None:
                    _refuse(command, f"argument {name}: expected one argument")
                value, i = args[i], i + 1
            choices, default = options[name]
            if isinstance(default, int):
                try:
                    value = int(value)
                except ValueError:
                    _refuse(command, f"argument {name}: invalid int value: {value!r}")
            if choices and value not in choices:
                _refuse(command, f"argument {name}: invalid choice: {value!r} (choose from {', '.join(map(repr, choices))})")
            values[name[2:]] = value
            seen.add(name)
        elif kind is None and todo:
            values[todo.pop(0)] = arg
            taken = True
        # a "--" next to a positional's argument is dropped
        elif kind != "--" or not (after_taken or todo and i < len(args)):
            extras.append(arg)
    missing = todo + [name for name, (_, default) in options.items() if default is None and name not in seen]
    if missing:
        _refuse(command, f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(**values), extras


def _parse(argv: list) -> SimpleNamespace:
    """The attributes argparse gave the commands, or argparse's refusal.

    Only -h/--help may come before the command; the rest are its arguments.
    """
    i, extras = 0, []
    while i < len(argv) and argv[i] != "--" and (opt := _option(argv[i], _HELP, None)):
        if opt[0]:
            _help(None, *opt)
        extras.append(argv[i])  # an unknown option
        i += 1
    if argv[i:] in ([], ["--"]):
        _refuse(None, "the following arguments are required: command")
    if argv[i] not in _COMMANDS:
        _refuse(None, f"argument command: invalid choice: {argv[i]!r} (choose from {', '.join(map(repr, _COMMANDS))})")
    args, more = _parse_command(argv[i], argv[i + 1 :])
    if extras + more:
        _refuse(None, f"unrecognized arguments: {' '.join(extras + more)}")
    return args


def _run(argv) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    # The commands build large acyclic graphs of tuples, named tuples and
    # dicts that reference counting frees, so the cyclic collector's passes
    # over them find nothing; pause it, and leave a caller's setting as it was.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.fn(args)
    finally:
        if enabled:
            gc.enable()


def main(argv=None) -> int:
    try:
        try:
            return _run(argv)
        finally:
            # write out what is buffered while a closed stdout can still be handled
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away.  Point stdout at devnull, so that the flush at
        # interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
