"""Command-line front end.

Exit codes: 0 success, 1 a verification or comparison failed, 2 bad usage.
All output is deterministic: the same argument vector always produces
byte-identical text.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import codes, compositions, limits, oeis, sequences, series, trees, verify, words


def _window(args, first):
    """Indices args.start..args.to of a range dump whose first index is first."""
    if args.start < first or args.to < args.start:
        raise ValueError(f"need {first} <= from <= to")
    limits.check("values per dump", args.to - args.start + 1, "OUTPUT")
    return range(args.start, args.to + 1)


# A range dump is formatted and written _CHUNK values at a time, so its
# memory is bounded by the chunk's strings, not by the window.  2**12 is the
# size of verify's comparison window: a bfile chunk's ints, strings and %
# tuple peak at ~0.5 MB (traced), where 2**16 took ~8 MB, and a dump takes
# no longer.
_CHUNK = 1 << 12


def _emit_window(window, read, fmt, out):
    """Write (n, value) for each n in window, one chunk at a time: read(lo,
    hi) gives the values at the indices lo..hi of one chunk, and the chunk
    is written by ``_emit_flags`` when they come as bytes (0/1 values) and
    by ``_emit_pairs`` otherwise."""
    for i in range(0, len(window), _CHUNK):
        chunk = window[i : i + _CHUNK]
        values = read(chunk[0], chunk[-1])
        emit = _emit_flags if isinstance(values, bytes) else _emit_pairs
        emit(chunk, values, fmt, out)


def _emit_pairs(indices, values, fmt, out):
    """Write one chunk, (n, value) for n in indices, with one printf-style
    pass over a repeated template: the writer for any int values."""
    k = len(values)
    if fmt == "plain":
        out.write(("%d\n" * k) % tuple(values))
    else:  # tsv or bfile: indices and values interleaved
        flat = [0] * (2 * k)
        flat[::2] = indices
        flat[1::2] = values
        sep = "\t" if fmt == "tsv" else " "
        out.write((f"%d{sep}%d\n" * k) % tuple(flat))


# A flag 0 or 1 as the digit "0" or "1"; any other byte becomes 0xff, which
# the ASCII decode of its lines refuses, so a value that is no flag raises
# instead of printing
_DIGITS = b"01" + b"\xff" * 254


@functools.cache
def _digit_cycle(place):
    """One period of an index's digit at place (a power of ten) as n
    counts up: each of "0" .. "9" place times."""
    return b"".join(bytes([digit]) * place for digit in b"0123456789")


def _emit_flags(indices, flags, fmt, out):
    """Write one chunk, (n, flag) for n in indices, with no Python step a
    line: the 0/1 flags come as bytes, as ``sequences.d_flags`` gives them,
    and are made digits by one translate.

    The chunk is cut where the index gains a digit and at each multiple of
    period, the least power of ten >= _CHUNK.  In such a piece every line
    has one width, and the index digits above period are one string, so
    the piece starts as one line template repeated.  Each index digit
    below period is then one strided slice assignment of a slice of its
    cycle (``_digit_cycle``), and the flags are one more.  Plain lines are
    the flag alone.  A piece's bytes are O(chunk) at any index: nothing is
    built per place above period."""
    flags = flags.translate(_DIGITS)
    sep = {"tsv": b"\t", "bfile": b" "}.get(fmt)
    if sep is None:
        lines = bytearray(b"\0\n") * len(flags)
        lines[::2] = flags
        out.write(lines.decode("ascii"))
        return
    period = 10 ** len(str(_CHUNK - 1))
    n, end = indices[0], indices[-1] + 1
    while n < end:
        width = len(str(n))
        stop = min(end, 10**width, n - n % period + period)
        high = b"%d" % (n // period) if n >= period else b""
        row = high + bytes(width - len(high)) + sep + b"\0\n"
        size, k = len(row), stop - n
        lines = bytearray(row) * k
        for place in range(width - len(high)):  # 10**place, from the units up
            cycle = _digit_cycle(10**place)
            start = n % len(cycle)
            lines[width - 1 - place :: size] = \
                (cycle * ((start + k) // len(cycle) + 1))[start : start + k]
        lines[size - 2 :: size] = flags[n - indices[0] : stop - indices[0]]
        out.write(lines.decode("ascii"))
        n = stop


def _cmd_seq(args, out):
    window = _window(args, 1)
    if args.which == "a":  # the shift table, grown to the window's end
        read = sequences.table(args.s).values
    else:  # the closed form of p, or the leaf flags joined from p's gaps
        kernel = sequences.p_window if args.which == "p" else sequences.d_flags
        read = functools.partial(kernel, args.s)
    _emit_window(window, read, args.format, out)
    return 0


def _cmd_gf(args, out):
    limits.check("gf --order", args.order, "GF_ORDER")
    which, s = args.which, args.s or 0
    if which == "ruler":
        if args.s is not None:
            raise ValueError("the ruler takes no shift; drop --s")
        gf = series.gf_ruler(args.order)
    elif which == "D":
        gf = series.gf_Ds_sum(s, args.order)
    elif which == "P":
        gf = series.gf_Ps(s, args.order)
    else:  # A: the quotient form serves every s; verify checks it against gf_As
        gf = series.gf_A_from_D(s, args.order)
    # d's flags as bytes, so their chunks take the byte-column writer
    coeffs = bytes(gf.coeffs) if which == "D" else gf.coeffs
    _emit_window(range(args.order + 1), lambda lo, hi: coeffs[lo : hi + 1], args.format, out)
    return 0


def _format_code(code):
    return ",".join(str(l) for l in code)


def _cmd_codes(args, out):
    sub = args.codes_cmd
    if sub == "greedy":
        out.write(_format_code(codes.greedy_tree(args.n, args.height)) + "\n")
    elif sub == "enumerate":
        for code in codes.enumerate_codes(args.n, args.height):
            out.write(_format_code(code) + "\n")
    elif sub == "mtable":
        if args.nmax < 2:
            raise ValueError("nmax must be >= 2")
        limits.check("mtable cells (nmax - 1)**2", (args.nmax - 1) ** 2, "OUTPUT")
        # M(n, h) = a(0, n - h) on the feasible band ceil(lg n) <= h < n, else
        # 0, so one walk over a(0, 1..nmax - 1) serves every row: row n reads
        # it backwards from n - ceil(lg n) down to 1
        nmax = args.nmax
        cells = list(map(str, sequences.a_window(0, 1, nmax - 1)))
        for n in range(2, nmax + 1):
            low = (n - 1).bit_length()  # ceil(lg n)
            out.write(f"{n}\t" + "0\t" * (low - 1) + "\t".join(cells[n - low - 1 :: -1])
                      + "\t0" * (nmax - n) + "\n")
    elif sub == "amax":  # a_max(n) = a(1, n - 1), by the walk
        _emit_window(_window(args, 2), lambda lo, hi: sequences.a_window(1, lo - 1, hi - 1),
                     args.format, out)
    elif sub == "bseq":  # b_seq(n) = a(0, n), by the walk
        _emit_window(_window(args, 1), functools.partial(sequences.a_window, 0),
                     args.format, out)
    return 0


def _cmd_word(args, out):
    which = args.word_cmd
    if which == "d":
        word = words.word_D(args.n)
    elif which == "e":
        word = words.word_E(args.n)
    elif which == "stream":
        word = words.dword_prefix(args.s, args.length)
    elif which == "runs":
        word = words.ruler_factorization(args.s, args.terms)
    else:  # "morphism"
        word = words.morphism_fixed_point(args.length)
    out.write(word)  # then the newline: word + "\n" would copy the word
    out.write("\n")
    return 0


def _cmd_compositions(args, out):
    found = compositions.enumerate_compositions(args.s, args.n)
    for parts in found:
        out.write(f"{args.n} = " + "+".join(str(x) for x in parts) + "\n")
    return 0


def _cmd_tree(args, out):
    out.write(trees.render(args.s, args.n, args.max_width) + "\n")
    return 0


def _cmd_verify(args, out):
    ok = verify.run_all(args.depth, stream=out,
                        timings=sys.stderr if args.timings else None)
    return 0 if ok else 1


def _cmd_oeis(args, out):
    offsets = {"--s": args.s, "--index-delta": args.index_delta,
               "--value-delta": args.value_delta}
    if args.id is not None:
        given = [option for option, value in offsets.items() if value is not None]
        if given:
            raise ValueError(f"--id sets its own shift and deltas; drop {', '.join(given)}")
        role = oeis.ROLE_MAP.get(args.id)
        if role is None:
            known = ", ".join(sorted(oeis.ROLE_MAP))
            raise ValueError(f"unknown sequence id {args.id}; known: {known}")
    else:
        if args.seq == "ruler" and args.s is not None:
            raise ValueError("the ruler takes no shift; drop --s")
        role = oeis.SequenceRole(args.seq, *(value or 0 for value in offsets.values()))
    compared, mismatch = oeis.compare_records(oeis.read_bfile(args.bfile), role)
    if mismatch is not None:
        n, file_value, mine = mismatch
        out.write(f"MISMATCH at n={n}: file has {file_value}, computed {mine}\n")
        return 1
    if compared == 0:
        print("warning: no overlapping indices to compare", file=sys.stderr)
    out.write(f"OK: compared {compared} values\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metafib",
        description="Leaf-count sequences of delayed binary forests: "
        "sequences, words, generating functions, compositions, compact codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fmt = {"choices": ["plain", "tsv", "bfile"], "default": "plain"}

    p = sub.add_parser("seq", help="emit a, d, or p values")
    p.add_argument("which", choices=["a", "d", "p"])
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--from", dest="start", type=int, default=1)
    p.add_argument("--to", type=int, required=True)
    p.add_argument("--format", **fmt)
    p.set_defaults(run=_cmd_seq)

    p = sub.add_parser("gf", help="emit generating-function coefficients")
    p.add_argument("which", choices=["ruler", "D", "A", "P"])
    p.add_argument("--s", type=int)  # D, A and P only, where it defaults to 0
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--format", choices=["bfile", "tsv"], default="bfile")
    p.set_defaults(run=_cmd_gf)

    p = sub.add_parser("codes", help="compact-code constructions and tables")
    codes_sub = p.add_subparsers(dest="codes_cmd", required=True)
    q = codes_sub.add_parser("greedy")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--height", type=int, required=True)
    q = codes_sub.add_parser("enumerate")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--height", type=int, default=None)
    q = codes_sub.add_parser("mtable")
    q.add_argument("--nmax", type=int, required=True)
    q = codes_sub.add_parser("amax")
    q.add_argument("--from", dest="start", type=int, default=2)
    q.add_argument("--to", type=int, required=True)
    q.add_argument("--format", **fmt)
    q = codes_sub.add_parser("bseq")
    q.add_argument("--from", dest="start", type=int, default=1)
    q.add_argument("--to", type=int, required=True)
    q.add_argument("--format", **fmt)
    p.set_defaults(run=_cmd_codes)

    p = sub.add_parser("word", help="dump 0/1 words")
    word_sub = p.add_subparsers(dest="word_cmd", required=True)
    q = word_sub.add_parser("d")
    q.add_argument("--n", type=int, required=True)
    q = word_sub.add_parser("e")
    q.add_argument("--n", type=int, required=True)
    q = word_sub.add_parser("stream")
    q.add_argument("--s", type=int, default=0)
    q.add_argument("--length", type=int, required=True)
    q = word_sub.add_parser("runs")
    q.add_argument("--s", type=int, default=0)
    q.add_argument("--terms", type=int, required=True)
    q = word_sub.add_parser("morphism")
    q.add_argument("--length", type=int, required=True)
    p.set_defaults(run=_cmd_word)

    p = sub.add_parser("compositions", help="list restricted compositions")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(run=_cmd_compositions)

    p = sub.add_parser("tree", help="draw a forest prefix")
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-width", type=int, default=100)
    p.set_defaults(run=_cmd_tree)

    p = sub.add_parser("verify", help="run every cross-module identity")
    p.add_argument("--depth", choices=["quick", "full"], default="quick")
    p.add_argument("--timings", action="store_true",
                   help="also write 'name<TAB>seconds' per identity to stderr")
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("oeis", help="compare a b-file against local values")
    p.add_argument("--bfile", required=True)
    role = p.add_mutually_exclusive_group(required=True)
    role.add_argument("--id")
    role.add_argument("--seq", choices=["a", "d", "p", "ruler"])
    # with --seq only, where each defaults to 0
    p.add_argument("--s", type=int)
    p.add_argument("--index-delta", type=int)
    p.add_argument("--value-delta", type=int)
    p.set_defaults(run=_cmd_oeis)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser unchanged, so one serves every main() call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.run(args, sys.stdout)
    except (ValueError, OSError) as exc:  # oeis.BFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
