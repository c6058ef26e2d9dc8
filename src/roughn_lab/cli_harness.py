"""Single-binary laboratory front end.

Subcommands cover every module: weight-table scans, sampling, moments,
the normalization constant, axiom reports, gap simulations, omega-level
counts, window searches, the downward-shift refuter, and record searches.
Long scans run as fixed chunk sequences: each chunk's result is one float64
or uint8 array, and a checkpoint holds the completed chunks' raw bytes under
a JSON header and a sha256.  A resume reads no byte of the file as JSON: it
takes the cursor from the body's size and requires the header to equal, byte
for byte, the one this run would write at that cursor, so no checkpoint can
run code.  An interrupted run resumed from its checkpoint produces
byte-identical output to an uninterrupted one.  Exit codes: 0 success, 2 invalid configuration,
3 chunk budget exhausted (checkpoint written, summary flagged partial).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import struct
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from . import (__version__, bump_functions, cramer_models, moments_concentration, primes_core,
               sieve_measure)
from .primes_core import factor_window, primes_between
from .reporting import columns_of, replace_on_success, write_csv, write_json

CHECKPOINT_MAGIC = b"RLCK2"
CHECKPOINT_NAME = "checkpoint.rlck"
CHECKPOINT_SECS = 300  # the chunked subcommands' --checkpoint-secs default
SEED_MAX = 2**63 - 1  # the fingerprint packs the seed as a signed 64-bit integer

SAMPLE_COUNT = 10**5
GAP_N = 10**5
GAP_TRIALS = 100
SCAN_CHUNKS = 32  # sieve-scan chunks at most
RECORD_CHUNKS = 16  # record-search chunks, more where a window would pass WINDOW_WIDTH_MAX
PIK_GRID = (10**3, 10**4, 10**5, 10**6)
GAP_COLUMNS = ("trial", "k", "S_k", "gap")  # gaps.csv, written one part per trial

# table-building subcommands use a reduced quadrature grid; the c0 command
# keeps the full default so both routes run at reporting accuracy
_FAST_BUMP = dict(grid_points=1025, t_points=801, t_max=60.0)


def config_fingerprint(subcommand: str, seed: int, params_text: str) -> bytes:
    """The sha256 of the run's configuration and of the code that shapes its
    chunks: the package version, this module's size constants and the
    window budget, read at call time, so a checkpoint from other code is
    refused."""
    import hashlib  # loads OpenSSL: only runs that hash pay for it
    h = hashlib.sha256()
    h.update(subcommand.encode())
    h.update(struct.pack("<q", seed))
    h.update(params_text.encode())
    h.update(json.dumps([__version__, SAMPLE_COUNT, GAP_N, GAP_TRIALS, _FAST_BUMP,
                         SCAN_CHUNKS, RECORD_CHUNKS, primes_core.WINDOW_WIDTH_MAX],
                        sort_keys=True).encode())
    return h.digest()


def checkpoint_header(subcommand: str, fingerprint: bytes, chunks) -> bytes:
    """The JSON header of a checkpoint holding one array per (dtype, length)
    pair in chunks: the subcommand, the fingerprint in hex and each chunk as
    [[dtype, length]].  A resume compares it byte for byte, so its key order
    and spacing are part of the format."""
    return json.dumps({
        "subcommand": subcommand,
        "fingerprint": fingerprint.hex(),
        "chunks": [[[np.dtype(dtype).str, n]] for dtype, n in chunks],
    }).encode()


def save_checkpoint(path, header: bytes, chunks: list[np.ndarray]) -> None:
    """Write magic, u64 header length, header, the sha256 of header and body,
    then the body: every chunk's raw bytes in order, hashed and written from
    the arrays' own buffers, so the body is never copied."""
    import hashlib
    body = [memoryview(np.ascontiguousarray(chunk)).cast("B") for chunk in chunks]
    digest = hashlib.sha256(header)
    for block in body:
        digest.update(block)
    with replace_on_success(path) as fh:
        fh.write(CHECKPOINT_MAGIC + struct.pack("<Q", len(header)) + header + digest.digest())
        fh.writelines(body)


def load_checkpoint(path, header_at: Callable[[int], bytes], dtype,
                    lengths: list[int]) -> list[np.ndarray]:
    """The chunks of a checkpoint written by this run: views of its body.

    Every chunk holds at least one item, so the body's size names the cursor
    among the sums of the first chunks' sizes, and the header must then be
    header_at(cursor) byte for byte.  No byte of the file is decoded, so none
    is run as code; a short, garbled or foreign file raises ValueError.
    """
    import hashlib
    raw = Path(path).read_bytes()
    if not raw.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"{path} is not a checkpoint file")
    at = len(CHECKPOINT_MAGIC) + 8
    body_at = at + int.from_bytes(raw[at - 8:at], "little") + 32
    header, body = raw[at:body_at - 32], memoryview(raw)[body_at:]
    digest = hashlib.sha256(header)
    digest.update(body)
    # a file cut anywhere leaves a changed body or fewer than 32 digest bytes
    if digest.digest() != raw[body_at - 32:body_at]:
        raise ValueError(f"{path} is truncated or garbled: its sha256 does not match")
    dtype = np.dtype(dtype)
    ends = list(itertools.accumulate((dtype.itemsize * n for n in lengths), initial=0))
    cursor = ends.index(len(body)) if len(body) in ends else None
    if cursor is None or header != header_at(cursor):
        raise ValueError(f"{path} is not a checkpoint of this run")
    return [np.frombuffer(body, dtype, n, offset) for n, offset in zip(lengths[:cursor], ends)]


def _run_chunked(
    args: argparse.Namespace,
    params_text: str,
    dtype,
    lengths: list[int],
    run_chunk: Callable[[int], np.ndarray],
    finalize: Callable[[list], None],
    partial_summary: Callable[[int], None],
) -> int:
    """Drive a fixed chunk sequence with checkpoint support.

    run_chunk(i) returns chunk i's result: one 1-D array of dtype and
    length lengths[i], never empty.  Chunk boundaries depend only on the
    configuration, so any interleaving of interrupts and resumes collects the
    same results and finalize writes the same bytes.
    """
    def header_at(cursor):  # hashed only when a checkpoint is saved or loaded
        fingerprint = config_fingerprint(args.subcommand, args.seed, params_text)
        return checkpoint_header(args.subcommand, fingerprint,
                                 [(dtype, n) for n in lengths[:cursor]])

    ckpt_path = Path(args.out) / CHECKPOINT_NAME
    chunks = []
    if args.resume:
        try:
            chunks = load_checkpoint(args.resume, header_at, dtype, lengths)
        except (OSError, ValueError) as exc:  # a directory or unreadable path too
            raise ValueError(f"{exc}; refusing to resume") from exc
    start = len(chunks)
    every = CHECKPOINT_SECS if args.checkpoint_secs is None else args.checkpoint_secs
    last_save = time.monotonic()
    for i in range(start, len(lengths)):
        if args.max_chunks is not None and i - start >= args.max_chunks:
            save_checkpoint(ckpt_path, header_at(i), chunks)
            partial_summary(i)
            print(f"chunk budget reached at {i}/{len(lengths)}; checkpoint: {ckpt_path}",
                  file=sys.stderr)
            return 3
        chunks.append(run_chunk(i))
        if every > 0 and time.monotonic() - last_save >= every:
            save_checkpoint(ckpt_path, header_at(i + 1), chunks)
            last_save = time.monotonic()
    finalize(chunks)
    return 0


# --- shared setup ---

def _make_out_dir(out: str) -> None:
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path, or one of its parents a file
        raise ValueError(f"cannot make output directory {out}: {exc.strerror}") from exc


def _load_params_text(args: argparse.Namespace) -> str:
    if args.params is None:
        return ""
    path = Path(args.params)
    if not path.is_file():
        raise ValueError(f"parameter file not found: {path}")
    return path.read_text()


def _table_setup(params_text: str):
    params = sieve_measure.parse_params(params_text)
    spec = bump_functions.make_bump(**_FAST_BUMP)
    table = sieve_measure.build_weight_table(params, spec)
    return params, spec, table


def _chunks(size: int, most: int) -> tuple[int, list[tuple[int, int]]]:
    """Split range(size) into min(most, size) near-equal [lo, hi) chunks."""
    n = min(most, size)
    return n, [(size * i // n, size * (i + 1) // n) for i in range(n)]


def _sample_tuples(params: sieve_measure.SieveParams) -> list[tuple[int, int]]:
    """Ten deterministic (d_star, k_star) probes, preferring medium primes."""
    pool = list(params.medium_primes(1))
    if len(pool) < 4:
        cap = max(4 * params.w, 30)
        pool = primes_between(params.w, cap)[:6]
    probes = []
    for i in range(10):
        p = pool[i % len(pool)]
        if i >= len(pool) and len(pool) >= 2:
            q = pool[(i + 1) % len(pool)]
            d = p * q if p != q else p
        else:
            d = p
        probes.append((d, 1 + i % 3))
    return probes


# --- subcommand bodies ---

def _cmd_sieve_scan(args: argparse.Namespace, params_text: str) -> int:
    params = sieve_measure.parse_params(params_text)
    spec = bump_functions.make_bump(**_FAST_BUMP)
    support = sieve_measure.weight_support(params)
    terms = sieve_measure.shift_terms(params, spec)
    out = Path(args.out)
    n_chunks, bounds = _chunks(len(support), SCAN_CHUNKS)

    def run_chunk(i):
        lo, hi = bounds[i]
        return sieve_measure.weights_at(support[lo:hi], params.W, terms)

    def finalize(chunks):
        # refuses a zero total before any file is written
        total = sieve_measure.total_mass(chunks)

        def parts():  # one per chunk, its cumulative mass carried from the last
            carry = -0.0
            for (lo, hi), nu in zip(bounds, chunks):
                cum = sieve_measure.carried_cumsum(nu, carry)
                carry = cum[-1]
                cum /= total
                ns = support[lo:hi]
                yield np.arange(ns.start, ns.stop, ns.step, dtype=np.int64), nu, cum

        write_csv(out / "weights.csv", ["n", "nu(n)", "cumulative-mass"], parts())
        write_json(out / "sieve_summary.json", {
            "params": params.as_dict(),
            "W": params.W,
            "support_size": len(support),
            "total_mass": total,
            "theta": params.theta,
            "empty_medium_shifts": list(sieve_measure.empty_medium_shifts(params)),
            "partial": False,
        })

    def partial_summary(cursor):
        write_json(out / "sieve_summary.json", {
            "params": params.as_dict(),
            "completed_chunks": cursor,
            "of_chunks": n_chunks,
            "partial": True,
        })

    return _run_chunked(args, params_text, np.float64, [hi - lo for lo, hi in bounds],
                        run_chunk, finalize, partial_summary)


def _cmd_sample(args: argparse.Namespace, params_text: str) -> int:
    params, spec, table = _table_setup(params_text)
    out = Path(args.out)
    draws = sieve_measure.sample(table, args.seed, SAMPLE_COUNT)
    probes = _sample_tuples(params)
    hits = [0] * len(probes)
    off_w = 0  # draws that W does not divide

    def parts():  # a block of draws at a time, each block's hits counted as it goes
        nonlocal off_w
        for lo in range(0, len(draws), sieve_measure.DRAW_BLOCK):
            block = draws[lo:lo + sieve_measure.DRAW_BLOCK]
            for j, (d, k) in enumerate(probes):
                hits[j] += sieve_measure.draw_hits(table, block, d, k)
            off_w += int(np.count_nonzero(block % params.W))
            yield np.arange(lo, lo + len(block)), block

    write_csv(out / "samples.csv", ["draw", "n"], parts())
    rows = []
    for (d, k), hit in zip(probes, hits):
        exact = sieve_measure.prob_divides(d, k, table)
        freq = hit / len(draws)
        sigma = math.sqrt(max(exact * (1.0 - exact), 1e-300) / len(draws))
        rows.append((d, k, exact, freq, sigma))
    write_csv(out / "probs.csv", ["d_star", "k_star", "exact_prob", "mc_estimate", "mc_sigma"],
              [columns_of(rows, 5)])
    write_json(out / "sample_summary.json", {
        "count": len(draws),
        "seed": args.seed,
        "all_divisible_by_W": off_w == 0,
        "within_3_sigma": sum(1 for d, k, e, f, s in rows if abs(f - e) <= 3 * s),
        "tuples": len(rows),
    })
    return 0


def _cmd_moments(args: argparse.Namespace, params_text: str) -> int:
    params, spec, table = _table_setup(params_text)
    out = Path(args.out)
    reports = [moments_concentration.exact_centered_moment(table, k, tag, s)
               for k in (1, 2, 3) for tag in ("medium", "large") for s in (1, 2, 4)]
    write_csv(out / "moments.csv", ["k", "range", "s", "exact_moment", "paper_bound", "ratio"],
              [columns_of([(r.k, r.range_tag, r.s, r.exact_moment, r.paper_bound, r.ratio)
                           for r in reports], 6)])
    write_json(out / "constants.json", {
        "kappa_fit": moments_concentration.stirling_bound_kappa(),
        "C3_fit": moments_concentration.fit_c3(reports),
        "constants": moments_concentration.validate_constants(2.0**21 * math.e, 3.0, 3.0),
    })
    return 0


def _cmd_c0(args: argparse.Namespace, params_text: str) -> int:
    out = Path(args.out)
    spec = bump_functions.make_bump()
    res = bump_functions.c0_compute(spec)
    rel = abs(res.c0_time - res.c0_freq) / abs(res.c0_time)
    write_json(out / "c0_report.json", {
        "c0_time": res.c0_time,
        "c0_freq": res.c0_freq,
        "relative_difference": rel,
        "err_time": res.err_time,
        "err_freq": res.err_freq,
        "at_least_one": res.c0_time >= 1.0 - 1e-9,
    })
    write_csv(out / "eta_profile.csv", ["u", "eta", "eta_tilde", "eta_tilde_prime"],
              [[spec.u_grid, spec.eta, spec.eta_tilde, spec.eta_tilde_prime]])
    write_csv(out / "eta_hat_profile.csv", ["t", "eta_hat"], [[spec.t_grid, spec.eta_hat_grid]])
    return 0


def _cmd_axioms(args: argparse.Namespace, params_text: str) -> int:
    params, spec, table = _table_setup(params_text)
    out = Path(args.out)
    payload = {}
    for which, kwargs in (("A", {}), ("B", dict(s=2, budget=200)),
                          ("C", dict(s=2, budget=500)), ("D", dict(budget=50))):
        try:
            rep = sieve_measure.axiom_check(which, table, seed=args.seed, **kwargs)
            payload[which] = {"passed": rep.passed, "truncated": rep.truncated,
                              "detail": rep.detail}
        except ValueError as exc:
            payload[which] = {"passed": False, "error": str(exc)}
    write_json(out / "axioms.json", payload)
    return 0


def _write_gaps_csv(config: cramer_models.CramerConfig, trials, path) -> list:
    """gaps.csv from each trial's bit string, such as trial_gaps returns,
    and each trial's summary, taken in the same pass: trial t is the
    t-th entry of trials, k counts that trial's gaps from 1, and S_k and gap
    are succ[:-1] and np.diff(succ) of its decoded successes.  Each trial is
    decoded once, as write_csv reaches its part, so one trial's successes
    exist at a time."""
    summaries = []

    def parts():
        for t, bits in enumerate(trials):
            succ = cramer_models.trial_successes(config, bits)
            summaries.append(cramer_models.trial_summary(config, succ))
            s_k = succ[:-1]
            yield (np.broadcast_to(np.int64(t), len(s_k)),
                   np.arange(1, len(succ), dtype=np.int64), s_k, np.diff(succ))

    write_csv(path, GAP_COLUMNS, parts())
    return summaries


def _cmd_cramer_gaps(args: argparse.Namespace, params_text: str) -> int:
    out = Path(args.out)
    config = cramer_models.CramerConfig(rate="log", N=GAP_N, trials=GAP_TRIALS,
                                        seed=args.seed)

    def run_chunk(t):
        return cramer_models.trial_gaps(config, t)

    def finalize(chunks):
        rep = cramer_models.gap_report(config, _write_gaps_csv(config, chunks, out / "gaps.csv"))
        write_json(out / "gap_report.json", {
            "trials": rep.trials,
            "N": config.N,
            "warmup": rep.warmup,
            "seed": rep.seed,
            # an empty trial has no max ratio, and a run without gaps no mean
            "max_ratios": [None if math.isnan(m) else m for m in rep.max_ratios],
            "trials_with_max_ratio_le_1.5": rep.count_below(1.5),
            "mean_gap": None if rep.empty() else rep.mean_gap,
            "gap_count": rep.gap_count,
            "partial": False,
        })

    def partial_summary(cursor):
        write_json(out / "gap_report.json", {
            "trials": GAP_TRIALS, "completed_trials": cursor, "partial": True,
        })

    return _run_chunked(args, params_text, np.uint8, [config.trial_bytes] * GAP_TRIALS,
                        run_chunk, finalize, partial_summary)


def _cmd_pik(args: argparse.Namespace, params_text: str) -> int:
    out = Path(args.out)
    rows = []
    identities = {}
    for x in PIK_GRID:
        for k in (1, 2, 3, 4):
            rows.extend(cramer_models.density_profile([x], k=k))
        total = sum(cramer_models.count_pi_k(x, k) for k in range(1, 12))
        identities[str(x)] = (total == x - 1)
    write_csv(out / "pik.csv", ["x", "k", "count", "lower_bound", "ratio"], [columns_of(rows, 5)])
    write_json(out / "pik_report.json", {
        "partition_identity": identities,
        "pi_2_of_30": cramer_models.count_pi_k(30, 2),
    })
    return 0


def _cmd_window_search(args: argparse.Namespace, params_text: str) -> int:
    params = sieve_measure.parse_params(params_text)
    out = Path(args.out)
    x = params.x
    hits = [
        cramer_models.window_search(x, "A-omega", epsilon=0.8, C=2.0),
        cramer_models.window_search(x, "A-omega", epsilon=1.2, C=2.0),
        cramer_models.window_search(x, "B-Omega", epsilon=0.5, C=2.0),
        cramer_models.window_search(x, "B-Omega", epsilon=1.0, C=2.0),
        cramer_models.window_search(x, "weak", C0=2.0, d=1.5),
        cramer_models.window_search(x, "weak", C0=1.2, d=1.01),
    ]
    rows = [(w.x, w.variant, ";".join(f"{key}={val}" for key, val in sorted(w.params.items())),
             "none" if w.witness is None else w.witness) for w in hits]
    write_csv(out / "witness.csv", ["x", "variant", "params", "witness_or_none"],
              [columns_of(rows, 4)])
    return 0


def _cmd_refute_679(args: argparse.Namespace, params_text: str) -> int:
    out = Path(args.out)
    res = cramer_models.erdos_style_refuter(10**8 + 7, 0.01, budget=10**5,
                                            C0=2.0, d=1.5)
    write_json(out / "refute679.json", {
        "n": res.n, "delta": res.delta, "k": res.k,
        "omega_value": res.omega_value, "threshold": res.threshold,
        "searched_up_to": res.searched_up_to, "chain": res.chain,
    })
    return 0


def _cmd_record_search(args: argparse.Namespace, params_text: str) -> int:
    params = sieve_measure.parse_params(params_text)
    k_max = params.k_max
    # a chunk of m support points, W apart, reads the window of
    # (m - 1) * W + k_max - 1 integers from its first point + 2
    per_chunk = (primes_core.WINDOW_WIDTH_MAX - k_max + 1) // params.W + 1
    if per_chunk < 1:
        raise ValueError(f"k_max = {k_max} needs a window wider than budget "
                         f"({primes_core.WINDOW_WIDTH_MAX})")
    size = len(sieve_measure.weight_support(params))
    n_chunks, bounds = _chunks(size, max(RECORD_CHUNKS, -(-size // per_chunk)))
    table = sieve_measure.build_weight_table(params, bump_functions.make_bump(**_FAST_BUMP))
    out = Path(args.out)
    support = table.support

    def run_chunk(i):
        lo_i, hi_i = bounds[i]
        ns = support[lo_i:hi_i]
        window = factor_window(ns[0] + 2, ns[-1] + k_max)
        return moments_concentration.max_log_ratio(window, ns, k_max)

    def finalize(chunks):
        # the drawn support indices, ascending, repeats kept
        drawn_idx = sieve_measure.sample(table, args.seed, SAMPLE_COUNT)
        drawn_idx -= support[0]
        drawn_idx //= params.W
        drawn_idx.sort()
        # (value, support index) of the first minimum over all points and over
        # the drawn ones, taken chunk by chunk: an earlier chunk wins a tie
        best = samp = (math.inf, -1)
        for (lo, hi), ratios in zip(bounds, chunks):
            i = int(np.argmin(ratios))
            best = min(best, (ratios[i], lo + i))
            a, b = np.searchsorted(drawn_idx, (lo, hi)).tolist()
            if b > a:
                at = ratios[drawn_idx[a:b] - lo]
                i = int(np.argmin(at))
                samp = min(samp, (at[i], int(drawn_idx[a + i])))
        (best_value, best_idx), (samp_value, samp_pos) = best, samp
        witness = support[samp_pos]
        omegas = factor_window(witness + 2, witness + k_max).big_omega.tolist()
        profile_rows = [(k, om, math.log(k), om / math.log(k))
                        for k, om in zip(range(2, k_max + 1), omegas)]
        write_csv(out / "omega_profile.csv", ["k", "Omega", "log_k", "ratio"],
                  [columns_of(profile_rows, 4)])
        write_json(out / "record_search.json", {
            "exhaustive": {"witness": support[best_idx], "value": float(best_value)},
            "sampled": {"witness": witness, "value": float(samp_value)},
            "sample_count": SAMPLE_COUNT,
            "distinct_support_points_sampled":
                1 + int(np.count_nonzero(drawn_idx[1:] != drawn_idx[:-1])),
            "value_ratio_sampled_over_exhaustive": float(samp_value / best_value),
            "k_max": k_max,
            "seed": args.seed,
            "partial": False,
        })

    def partial_summary(cursor):
        write_json(out / "record_search.json", {
            "completed_chunks": cursor, "of_chunks": n_chunks, "partial": True,
        })

    return _run_chunked(args, params_text, np.float64, [hi - lo for lo, hi in bounds],
                        run_chunk, finalize, partial_summary)


# --- entry point ---

# every handler takes the parsed arguments and the parameter file text ("" without
# --params); the order here is the order of the CLI's subcommand choices
_HANDLERS: dict[str, Callable[[argparse.Namespace, str], int]] = {
    "sieve-scan": _cmd_sieve_scan,
    "sample": _cmd_sample,
    "moments": _cmd_moments,
    "c0": _cmd_c0,
    "axioms": _cmd_axioms,
    "cramer-gaps": _cmd_cramer_gaps,
    "pik": _cmd_pik,
    "window-search": _cmd_window_search,
    "refute-679": _cmd_refute_679,
    "record-search": _cmd_record_search,
}
SUBCOMMANDS = tuple(_HANDLERS)
# the subcommands that run as chunk sequences and so take --resume, --max-chunks
# and --checkpoint-secs
CHUNKED_SUBCOMMANDS = ("sieve-scan", "record-search", "cramer-gaps")
# the subcommands that read a parameter file and so take --params
PARAMS_SUBCOMMANDS = ("sieve-scan", "sample", "moments", "axioms", "window-search",
                      "record-search")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roughn-lab",
        description="weighted-measure laboratory for prime-factor statistics",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--params", help="parameter file (flat key=value)")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--checkpoint-secs", type=int, default=None,
                        help="write a checkpoint after this many seconds (0 disables; "
                             f"default {CHECKPOINT_SECS}; chunked subcommands)")
    parser.add_argument("--resume", help="resume from a checkpoint file (chunked subcommands)")
    parser.add_argument("--max-chunks", type=int, default=None,
                        help="stop after N chunks with a checkpoint (exit 3; chunked subcommands)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.checkpoint_secs is not None and args.checkpoint_secs < 0:
            parser.error(f"--checkpoint-secs must be >= 0, got {args.checkpoint_secs}")
        if args.max_chunks is not None and args.max_chunks < 0:
            parser.error(f"--max-chunks must be >= 0, got {args.max_chunks}")
        if not 0 <= args.seed <= SEED_MAX:
            parser.error(f"--seed must be in [0, {SEED_MAX}], got {args.seed}")
        if args.subcommand not in CHUNKED_SUBCOMMANDS:
            for flag, value in (("--resume", args.resume), ("--max-chunks", args.max_chunks),
                                ("--checkpoint-secs", args.checkpoint_secs)):
                if value is not None:
                    parser.error(f"{flag} applies only to {', '.join(CHUNKED_SUBCOMMANDS)}")
        if args.params is not None and args.subcommand not in PARAMS_SUBCOMMANDS:
            parser.error(f"--params applies only to {', '.join(PARAMS_SUBCOMMANDS)}")
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        _make_out_dir(args.out)
        return _HANDLERS[args.subcommand](args, _load_params_text(args))
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
