"""One-shot verification of every cross-module identity.

Each identity compares two independently computed objects.  ``run_all``
prints one PASS/FAIL line per identity in a fixed order and reports
whether everything held.  Depth presets: "quick" for a fast smoke pass,
"full" for the complete ranges.

The recurrence is each run's own: one ``SequenceTable`` a shift, handed
to every check as ``b["table"]`` and dropped when ``run_all`` returns.
The evaluator sweeps (10^5 labels a shift at full depth) are compared with
the recurrence one window of at most ``_WINDOW`` labels at a time, so no
sweep-long list of values is ever held.

The sweeps of different shifts share nothing, so the evaluators identity
runs those of shifts 0 .. (shift_max + 2) // 2 - 1 (0-3 at full depth,
0-1 at quick) in a child forked with ``os.fork``, while this process runs
the other shifts and then the ``a0_fast`` and ``a1_fast`` sweeps.  The
child's tables and its ``as_descent`` memo writes end with it.  Where
``os.fork`` is missing, or the process runs more than one thread (a fork
could deadlock in the child, and warns from Python 3.12 on), the identity
runs in-process; its PASS/FAIL line is the same either way.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from functools import cache, partial
from itertools import accumulate

from . import codes, compositions, sequences, series, trees, words

_WINDOW = 1 << 12  # labels per evaluator comparison window


class IdentityFailure(AssertionError):
    pass


def _need(ok, detail):
    if not ok:
        raise IdentityFailure(detail)


def _agree(got, want, detail):
    """Compare two sequences whole; on a mismatch raise detail(i) for the first.

    ``detail`` maps the first differing index (or, when the lengths differ,
    the shorter length) to the failure text, so no text is formatted for
    the values that agree.  Lists are compared as given; any other
    iterable is listed first.
    """
    if not isinstance(got, list):
        got = list(got)
    if not isinstance(want, list):
        want = list(want)
    if got != want:
        i = next((i for i, (x, y) in enumerate(zip(got, want)) if x != y),
                 min(len(got), len(want)))
        raise IdentityFailure(detail(i))


def _bounds(depth: str) -> dict:
    if depth == "quick":
        return {
            "shift_max": 3, "n_seq": 2000, "n_eval": 5000, "order": 256,
            "word_bits": 1 << 10, "word_idx": 10,
            "comp_n": 300, "comp_enum": 20, "codes_n": 9, "dom_n": 9,
            "bridge_n": 512, "stable_n": 60, "chain_n": 1 << 7, "grid_h": 8,
            "counts_h": 6, "partition_h": 4, "double_h": 8,
        }
    if depth == "full":
        return {
            "shift_max": 6, "n_seq": 20000, "n_eval": 100000, "order": 4096,
            "word_bits": 1 << 14, "word_idx": 16,
            "comp_n": 2000, "comp_enum": 30, "codes_n": 14, "dom_n": 12,
            "bridge_n": 4096, "stable_n": 200, "chain_n": 1 << 10, "grid_h": 12,
            "counts_h": 8, "partition_h": 6, "double_h": 14,
        }
    raise ValueError(f"unknown depth {depth!r}")


def _check_steps(b):
    for s in range(b["shift_max"] + 1):
        vals = b["table"](s).values(0, b["n_seq"])
        steps = [y - x for x, y in zip(vals[1:], vals[2:])]
        _agree([step in (0, 1) for step in steps], [True] * len(steps),
               lambda i: f"a({s},{i+2}) - a({s},{i+1}) = {steps[i]}")


def _sweep(read, t, lo, hi, detail):
    """Compare read(first, last), the values at first..last, with the table
    ``t`` for n = lo..hi, one window of at most _WINDOW labels at a time;
    detail(n) names the first bad label.  The windows ascend, so an
    ascending sweep's memo (as_descent's) still serves each next label."""
    for start in range(lo, hi + 1, _WINDOW):
        stop = min(start + _WINDOW, hi + 1)
        _agree(read(start, stop - 1), t.values(start, stop - 1),
               lambda i: detail(start + i))


def _per_value(route):
    """A window reader that calls route(n) once per label."""
    return lambda first, last: map(route, range(first, last + 1))


def _forkable() -> bool:
    """True where os.fork exists and this process runs one thread.  Linux
    lists every thread, native ones too, under /proc/self/task; elsewhere
    only Python's own threads are counted."""
    if not hasattr(os, "fork"):
        return False
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return threading.active_count() == 1


def _split(first, second):
    """Run first() and second(), first() in a forked child where
    ``_forkable`` allows, and raise what first(); second() would raise.

    The child sends one record up a pipe, b"P" or b"F" and the text of
    first()'s failure, and always leaves by os._exit, so it never returns
    into the caller, flushes the output buffered here or runs exit
    handlers.  This process runs second() meanwhile, reaps the child, and
    raises first()'s failure ahead of its own.  A child that ends without
    a record fails as a crash.
    """
    if not _forkable():
        first()
        second()
        return
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            try:
                first()
                record = "P"
            except IdentityFailure as exc:
                record = f"F{exc}"
            except Exception as exc:
                record = f"Fcrashed: {exc!r}"
            with open(write_end, "wb") as pipe:
                pipe.write(record.encode("utf-8", "backslashreplace"))
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    own = None
    with open(read_end, "rb") as pipe:
        try:
            try:
                second()
            except Exception as exc:  # raised after the child's failure, if any
                own = exc
            record = pipe.read()
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not record:
        raise ChildProcessError(f"forked child ended with no result, exit code {code}")
    if record != b"P":
        raise IdentityFailure(record[1:].decode("utf-8"))
    if own is not None:
        raise own


def _check_evaluators(b):
    top, shifts = b["n_eval"], range(b["shift_max"] + 1)
    half = (b["shift_max"] + 2) // 2  # shifts swept in the child

    def per_shift(part):
        for s in part:
            t = b["table"](s)
            _sweep(_per_value(partial(sequences.as_via_a0, s)), t, 1, top,
                   lambda n: f"as_via_a0({s},{n})")
            _sweep(_per_value(partial(sequences.as_descent, s)), t, 1, top,
                   lambda n: f"as_descent({s},{n})")
            _sweep(partial(sequences.a_window, s), t, 1, top,
                   lambda n: f"a_window({s},{n})")

    def rest():
        per_shift(shifts[half:])
        _sweep(_per_value(sequences.a0_fast), b["table"](0), 0, top,
               lambda n: f"a0_fast({n})")
        _sweep(_per_value(sequences.a1_fast), b["table"](1), 1, top,
               lambda n: f"a1_fast({n})")

    _split(partial(per_shift, shifts[:half]), rest)


def _check_tree_flags(b):
    top = b["n_seq"]
    for s in range(b["shift_max"] + 1):
        _agree(accumulate(trees.is_leaf_oracle(s, n) for n in range(1, top + 1)),
               b["table"](s).values(1, top),
               lambda i: f"leaf flag s={s} n={i+1}")


def _check_tree_counts(b):
    for s in range(b["shift_max"] + 1):
        scan = trees.leaf_count_scan(s, b["n_seq"])
        del scan[0]  # unused slot
        _agree(scan, b["table"](s).values(1, b["n_seq"]),
               lambda i: f"prefix leaf counts s={s} n={i+1}")


def _check_first_hits(b):
    for s in range(b["shift_max"] + 1):
        t = b["table"](s)
        hits = range(2, t.a(b["n_seq"]) + 1)
        pos = [sequences.p(s, n) for n in hits]
        vals = t.values(0, pos[-1])  # p increases, so pos[-1] is the largest
        # a(p(n) - 1) = n - 1 and a(p(n)) = n; a bad step reads 0, which no n >= 2 is
        _agree([vals[q] if vals[q - 1] == vals[q] - 1 else 0 for q in pos], hits,
               lambda i: f"p({s},{i+2})={pos[i]}")


def _check_p_differences(b):
    for s in range(b["shift_max"] + 1):
        ranks = range(1, b["table"](s).a(b["n_seq"]))
        gaps = [sequences.p(s, n + 1) - sequences.p(s, n) for n in ranks]
        want = [sequences.ruler(n) + (s if sequences.is_power_of_two(n) else 0)
                for n in ranks]
        _agree(gaps, want, lambda i: f"p gap s={s} n={i+1}: {gaps[i]} != {want[i]}")


def _check_ones_count(b):
    # flags from the leaf test d, summed against the recurrence
    top = b["n_seq"]
    for s in range(b["shift_max"] + 1):
        flags = [sequences.d(s, n) for n in range(1, top + 1)]
        _agree(b["table"](s).values(1, top), accumulate(flags),
               lambda i: f"ones count s={s} n={i+1}")


def _check_doubling(b):
    # k = 0 is excluded: with a(0,0) = 1 the identity holds only for k >= 1
    vals = b["table"](0).values(0, (2 << b["double_h"]) - 2)
    for h in range(1, b["double_h"] + 1):
        block = 1 << h
        _agree(vals[block : 2 * block - 1], [(block >> 1) + v for v in vals[1:block]],
               lambda i: f"doubling h={h} k={i+1}")


def _check_word_stream(b):
    for s in range(min(b["shift_max"], 4) + 1):
        w = words.dword_prefix(s, b["word_bits"])
        _agree(accumulate(map(int, w)), b["table"](s).values(1, b["word_bits"]),
               lambda i: f"stream bit s={s} n={i+1}")
        ones = [i + 1 for i, c in enumerate(w) if c == "1"]
        _agree([sequences.p(s, rank) for rank in range(1, len(ones) + 1)], ones,
               lambda i: f"ones positions s={s} rank={i+1}")


def _check_ruler_factorization(b):
    for s in range(min(b["shift_max"], 4) + 1):
        target = words.dword_prefix(s, b["word_bits"])
        # enough terms to cover the prefix: one term per leaf
        terms = b["table"](s).a(b["word_bits"])
        built = words.ruler_factorization(s, terms)
        _need(built[: len(target)] == target, f"ruler factorization s={s}")


def _check_morphism(b):
    bits = 4 * b["word_bits"]
    _need(
        words.morphism_fixed_point(bits) == words.dword_prefix(0, bits),
        "morphism prefix differs from block concatenation",
    )


def _check_word_pair(b):
    top = b["word_idx"]
    for n in range(top + 1):
        _need(words.word_E(n)[::-1] == words.word_D(n), f"reversal n={n}")
    for n in range(top):
        e, e1 = words.word_E(n), words.word_E(n + 1)
        _need(e1.startswith(e), f"prefix chain n={n}")
    for h in range(1, top + 1):
        _need(words.word_E(h - 1).count("1") == 1 << (h - 1),
              f"ones in the length 2**{h}-1 prefix")


def _check_ruler_gf(b):
    gf = series.gf_ruler(b["order"])
    orders = range(1, b["order"] + 1)
    _agree(map(gf.coefficient, orders), map(sequences.ruler, orders),
           lambda i: f"ruler gf at {i+1}")


def _check_d_gf(b):
    order = b["order"]
    orders = range(1, order + 1)
    for s in range(min(b["shift_max"], 4) + 1):
        ds = series.gf_Ds_sum(s, order)
        _agree(accumulate(map(ds.coefficient, orders)), b["table"](s).values(1, order),
               lambda i: f"d gf s={s} n={i+1}")
        _need(series.gf_Ds_nested(s, order // 2) == series.gf_Ds_sum(s, order // 2),
              f"nested form s={s}")
    _agree(series.gf_D0(order).coeffs, series.gf_Ds_sum(0, order).coeffs,
           lambda i: f"product form D0 at z^{i}")
    for n in range(b["word_idx"] + 1):
        word = words.word_D(n)[:order]
        _agree(series.gf_Dn(n, order).support(),
               [i + 1 for i, c in enumerate(word) if c == "1"],
               lambda i: f"D_{n} gf support rank={i+1}")


def _check_a_gf(b):
    order = b["order"]
    orders = range(1, order + 1)
    for s in range(min(b["shift_max"], 4) + 1):
        quo = series.gf_A_from_D(s, order)
        _agree(map(quo.coefficient, orders), b["table"](s).values(1, order),
               lambda i: f"a gf s={s} n={i+1}")
        if s >= 1:
            _need(series.gf_As(s, order) == quo, f"product form s={s}")


def _check_p_gf(b):
    order = b["order"]
    orders = range(1, order + 1)
    for s in range(min(b["shift_max"], 4) + 1):
        gf = series.gf_Ps(s, order)
        _need(gf.coefficient(0) == 1, f"p gf constant s={s}")
        _agree(map(gf.coefficient, orders), sequences.p_window(s, 1, order),
               lambda i: f"p gf s={s} n={i+1}")


def _check_composition_counts(b):
    top = b["comp_n"]
    for s in range(1, 5):
        counted = compositions.counts_up_to(s, top)
        vals = b["table"](s).values(0, top)
        _agree(counted[1:], vals[1:], lambda i: f"composition counts s={s} n={i+1}")


def _check_composition_enum(b):
    for s in range(1, 4):
        for n in range(1, b["comp_enum"] + 1):
            found = compositions.enumerate_compositions(s, n)
            _need(
                len(found) == compositions.count_compositions(s, n),
                f"enumeration size s={s} n={n}",
            )
            for parts in found:
                _need(sum(parts) == n, f"sum s={s} n={n}")
                for i, x in enumerate(parts):
                    _need(
                        x in compositions.part_choices(s, i),
                        f"membership s={s} n={n} pos={i}",
                    )


def _check_codes_optimum(b):
    for n in range(2, b["codes_n"] + 1):
        for h in range(1, n):
            _need(
                codes._M_greedy(n, h) == codes.M_oracle(n, h),
                f"M({n},{h}) differs from brute force",
            )
    # the served closed form against the greedy bottom count, every feasible cell
    for h in range(1, b["grid_h"] + 1):
        cells = range(h + 1, (1 << h) + 1)
        _agree([codes.M(n, h) for n in cells], [codes._M_greedy(n, h) for n in cells],
               lambda i: f"served M({h + 1 + i},{h}) differs from greedy")


def _check_dominance(b):
    for n in range(2, b["dom_n"] + 1):
        for h in range(codes._ceil_lg(n), n):
            greedy = codes.level_counts(codes.greedy_tree(n, h))
            for other in codes.enumerate_codes(n, h):
                tau = codes.level_counts(other)
                for j in range(h):
                    _need(
                        sum(greedy[j:]) >= sum(tau[j:]),
                        f"dominance n={n} h={h} j={j} vs {other}",
                    )


def _slack_height(n):
    """The smallest height h with n + h <= 2**h: b_seq(n) is M(n + h, h)."""
    h = 1
    while n + h > 1 << h:
        h += 1
    return h


def _check_bridge_amax(b):
    # greedy M at the minimum height; the served a_max is checked against it
    ns = range(2, b["bridge_n"] + 1)
    greedy = [codes._M_greedy(n, codes._ceil_lg(n)) for n in ns]
    _agree(greedy, b["table"](1).values(1, ns[-1] - 1),
           lambda i: f"greedy a_max({i+2})")
    _agree(map(codes.a_max, ns), greedy, lambda i: f"served a_max({i+2})")


def _check_bridge_bseq(b):
    ns = range(1, b["bridge_n"] + 1)
    greedy = [codes._M_greedy(n + h, h) for n, h in zip(ns, map(_slack_height, ns))]
    _agree(greedy, b["table"](0).values(1, ns[-1]),
           lambda i: f"greedy b_seq({i+1})")
    _agree(map(codes.b_seq, ns), greedy, lambda i: f"served b_seq({i+1})")


def _check_height_stability(b):
    for n in range(1, b["stable_n"] + 1):
        h = _slack_height(n)
        base = codes._M_greedy(n + h, h)
        for k in range(h, h + 5):
            _need(codes._M_greedy(n + k, k) == base, f"stability n={n} k={k}")


def _check_kraft(b):
    for n in range(2, b["codes_n"] + 1):
        for h in range(codes._ceil_lg(n), n):
            codes.validate_code(codes.greedy_tree(n, h))
    for n in range(2, b["chain_n"] + 1):
        codes.validate_code(codes.greedy_tree_unbounded(n))


def _check_shrink(b):
    for n in range(3, b["chain_n"] + 1):
        grown = codes.greedy_tree_unbounded(n)
        small = codes.shrink(grown)
        if sequences.is_power_of_two(n - 1) and n - 1 > 2:
            # the height drops at these boundaries; re-grow instead
            regrown = codes.counts_to_code(
                codes.greedy_step_counts(codes.level_counts(small)))
            _need(regrown == grown, f"regrow n={n}")
        else:
            _need(
                small == codes.greedy_tree_unbounded(n - 1),
                f"shrink n={n}",
            )


def _check_counts_roundtrip(b):
    h_top = b["counts_h"]
    leaf_cap = 14  # keeps n = sum(tau) + 1 within limits.ENUM_CODES

    def grow(tau, h):
        if sum(tau) + 1 > leaf_cap:
            return
        if len(tau) == h:
            code = codes.counts_to_code(tau)
            _need(codes.level_counts(code) == tau, f"roundtrip {tau}")
            return
        for nxt in range(1, 2 * tau[-1] + 1):
            grow(tau + [nxt], h)

    for h in range(1, h_top + 1):
        grow([1], h)


def _check_partition_ones(b):
    for h in range(1, b["partition_h"] + 1):
        for n in range(2, min((1 << h) + 2, 15)):
            brute = codes.max_ones_partition_brute(n, h)
            _need(
                brute == 2 * codes._M_greedy(n, h),
                f"partition ones n={n} h={h}: {brute}",
            )


IDENTITIES = [
    ("a increments by 0 or 1", _check_steps),
    ("closed-form evaluators match the recurrence", _check_evaluators),
    ("tree oracle leaf flags equal d", _check_tree_flags),
    ("tree oracle leaf counts equal a", _check_tree_counts),
    ("p marks the first occurrence in a", _check_first_hits),
    ("p differences: ruler plus shift at powers of two", _check_p_differences),
    ("a equals the count of leaf flags", _check_ones_count),
    ("shift-0 doubling identity", _check_doubling),
    ("word blocks rebuild the leaf stream", _check_word_stream),
    ("run-length factorization rebuilds the leaf stream", _check_ruler_factorization),
    ("morphism fixed point equals the shift-0 stream", _check_morphism),
    ("reversal ties the two word families", _check_word_pair),
    ("ruler generating function coefficients", _check_ruler_gf),
    ("leaf-stream generating functions (sum and nested)", _check_d_gf),
    ("leaf-count generating functions (quotient and product)", _check_a_gf),
    ("leaf-position generating function", _check_p_gf),
    ("composition counts equal the leaf counts", _check_composition_counts),
    ("composition enumeration matches the counts", _check_composition_enum),
    ("greedy optimum equals the exhaustive optimum", _check_codes_optimum),
    ("greedy level counts dominate every code", _check_dominance),
    ("peak pair count equals the shift-1 sequence", _check_bridge_amax),
    ("fixed-slack pair count equals the shift-0 sequence", _check_bridge_bseq),
    ("deepest-level optimum is stable under extra height", _check_height_stability),
    ("constructed codes satisfy exact Kraft equality", _check_kraft),
    ("shrink inverts greedy growth", _check_shrink),
    ("level counts round-trip through codes", _check_counts_roundtrip),
    ("partition ones equal twice the pair optimum", _check_partition_ones),
]


def run_all(depth: str = "quick", stream=None, timings=None) -> bool:
    """Run every identity at the given depth; True iff all pass.

    PASS/FAIL lines go to ``stream`` (stdout by default).  When ``timings``
    is a stream, one ``name<TAB>seconds`` line per identity goes there too,
    after its PASS/FAIL line.
    """
    out = stream if stream is not None else sys.stdout
    bounds = _bounds(depth)
    bounds["table"] = cache(sequences.SequenceTable)  # this run's oracle
    all_ok = True
    for name, check in IDENTITIES:
        started = time.perf_counter()
        try:
            check(bounds)
        except IdentityFailure as exc:
            all_ok = False
            out.write(f"FAIL  {name}: {exc}\n")
        except Exception as exc:  # a blown-up check is still a failure
            all_ok = False
            out.write(f"FAIL  {name}: crashed: {exc!r}\n")
        else:
            out.write(f"PASS  {name}\n")
        if timings is not None:
            timings.write(f"{name}\t{time.perf_counter() - started:.6f}\n")
    return all_ok
