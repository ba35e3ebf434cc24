"""Seeded benchmark inputs, built from plain Python data only.

Nothing here imports morphlab, so the inputs for a (workload, seed) pair
are the same whichever version of the library is measured; `digest`
proves it.  Each workload fixes the *shape* of its corpus (sizes, cycle
lengths, stream lengths) and lets the seed draw the contents (for
spectra, a relabelling of a fixed pool of matrices), so the cost of a
pass varies little from seed to seed while the inputs differ.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("spectra", "periodic", "presentations", "streams")


def _rng(workload, seed):
    return random.Random(f"morphlab-bench/{workload}/{seed}")


# -- spectra -------------------------------------------------------------------

# (n, matrices per pass).  Entries <= 3 and zero chance 0.85 as in the
# ROADMAP baseline, but the number of non-zero cells is fixed at
# round(0.15 n^2): a binomial count doubles the seed-to-seed cost spread.
# Sizes stop at 24: one n = 32 matrix costs as much as the other hundred
# ops together, and a pass needs at least 100 ops.
SPECTRA_SIZES = ((8, 30), (10, 20), (12, 16), (14, 10), (16, 8), (20, 4), (24, 2))
SPECTRA_DILATED = 12
NONZERO_SHARE = 0.15
# The matrices are drawn once, from this fixed seed; a run's seed relabels
# each of them (a permutation similarity, blockwise for dilated pairs).
# Relabelling keeps what the cost of an op depends on (the SCCs, cycle
# lengths and characteristic polynomials), so the median and 90th
# percentile measure the program rather than which matrices a seed drew:
# with fresh draws per seed they moved 13% from seed to seed on their own.
SPECTRA_POOL_SEED = "morphlab-bench/spectra/pool"


def _sparse_matrix(rng, n, nonzero, max_entry=3):
    rows = [[0] * n for _ in range(n)]
    for cell in rng.sample(range(n * n), nonzero):
        rows[cell // n][cell % n] = rng.randint(1, max_entry)
    return rows


def _dilate(rng, base, kvec):
    """A random non-negative dilated version of `base` for dilatation `kvec`."""
    offsets = _offsets(kvec)
    n = offsets[-1]
    rows = [[0] * n for _ in range(n)]
    for i, ki in enumerate(kvec):
        for k in range(ki):
            for j, kj in enumerate(kvec):
                for _ in range(base[i][j]):
                    rows[offsets[i] + k][offsets[j] + rng.randrange(kj)] += 1
    return rows


def _offsets(kvec):
    offsets = [0]
    for k in kvec:
        offsets.append(offsets[-1] + k)
    return offsets


def _permuted(rows, order):
    """P M P^T: new index u is old index order[u]."""
    return [[rows[u][v] for v in order] for u in order]


def _relabel_dilated(rng, base, kvec, rows):
    """The same dilated pair under a seeded relabelling.

    The base letters are permuted, and the copies of each letter are
    permuted within their block, which keeps every block row sum equal
    to its base entry, so the pair stays a dilatation.
    """
    order = list(range(len(base)))
    rng.shuffle(order)
    offsets = _offsets(kvec)
    full = []
    for i in order:
        copies = list(range(offsets[i], offsets[i + 1]))
        rng.shuffle(copies)
        full += copies
    return _permuted(base, order), [kvec[i] for i in order], _permuted(rows, full)


def _spectra_pool():
    pool = random.Random(SPECTRA_POOL_SEED)
    matrices = [_sparse_matrix(pool, n, round(NONZERO_SHARE * n * n))
                for n, count in SPECTRA_SIZES for _ in range(count)]
    dilated = []
    for _ in range(SPECTRA_DILATED):
        m = pool.randint(3, 6)
        base = _sparse_matrix(pool, m, pool.randint(m, 2 * m))
        kvec = [pool.randint(1, 3) for _ in range(m)]
        dilated.append((base, kvec, _dilate(pool, base, kvec)))
    return matrices, dilated


def _spectra(rng):
    matrices, dilated = _spectra_pool()
    items = []
    for rows in matrices:
        order = list(range(len(rows)))
        rng.shuffle(order)
        items.append({"family": "random", "n": len(rows), "rows": _permuted(rows, order)})
    for base, kvec, rows in dilated:
        base, kvec, rows = _relabel_dilated(rng, base, kvec, rows)
        items.append({"family": "dilated", "n": len(rows), "base": base, "kvec": kvec, "rows": rows})
    rng.shuffle(items)
    return items


# -- periodic ------------------------------------------------------------------

# (pairwise coprime cycle lengths, weighted, entry_growth ops per pass).
# The cyclicity p is the product of the lengths.  Each op uses its own
# residue, so no op reuses the matrix powers of an earlier one.  Weighted
# chains stop at p = 840: one weighted residue at p = 2520 takes 6 s.
CHAIN_PLAN = (
    ((2, 3, 5), False, 18),
    ((2, 3, 5), True, 18),
    ((3, 4, 5), False, 15),
    ((3, 4, 7), True, 10),
    ((3, 5, 7), False, 10),
    ((4, 5, 7), True, 10),
    ((5, 6, 7), False, 6),
    ((3, 4, 5, 7), False, 4),
    ((3, 5, 7, 8), False, 1),
    ((3, 5, 7, 8), True, 1),
    ((5, 7, 8, 9), False, 1),
)
DEMO9_OPS = 6

# The bundled demo9.mat grid, with the cycle structure it was drawn from:
# a weight-3 two-cycle ladder (vertices 1,2 then 3,4) and a weight-2
# three-cycle (5,6,7), between a source vertex 0 and a sink vertex 8.
DEMO9_ROWS = [
    [0, 0, 1, 0, 0, 1, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0, 0],
    [0, 3, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 3, 0, 0, 0, 0, 1],
    [0, 0, 0, 0, 0, 0, 2, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 2, 1],
    [0, 0, 0, 0, 0, 2, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, 0, 0, 0],
]
DEMO9_CYCLES = [[1, 2], [3, 4], [5, 6, 7]]
DEMO9_P = 6


def _chain(rng, lengths, weighted):
    """Cycles of the given lengths, linked one after another by single edges.

    Vertex labels are a seeded permutation.  Returns the matrix and the
    cycle list (vertices in walk order) that the growth oracle reads.
    """
    order = list(lengths)
    rng.shuffle(order)
    n = sum(order)
    labels = list(range(n))
    rng.shuffle(labels)
    rows = [[0] * n for _ in range(n)]
    cycles = []
    pos = 0
    for length in order:
        cycle = labels[pos : pos + length]
        pos += length
        heavy = rng.randrange(length) if weighted else None
        for t in range(length):
            rows[cycle[t]][cycle[(t + 1) % length]] = rng.randint(2, 3) if t == heavy else 1
        cycles.append(cycle)
    for a, b in zip(cycles, cycles[1:]):
        rows[rng.choice(a)][rng.choice(b)] = 1
    return rows, cycles


def _periodic(rng):
    matrices = []
    for lengths, weighted, ops in CHAIN_PLAN:
        rows, cycles = _chain(rng, lengths, weighted)
        p = math.prod(lengths)
        matrices.append(
            {
                "family": "chain-weighted" if weighted else "chain-unit",
                "n": len(rows),
                "p": p,
                "rows": rows,
                "cycles": cycles,
                "ops": _entry_ops(rng, len(rows), p, ops),
            }
        )
    matrices.append(
        {
            "family": "demo9",
            "n": 9,
            "p": DEMO9_P,
            "rows": [list(r) for r in DEMO9_ROWS],
            "cycles": DEMO9_CYCLES,
            "ops": _entry_ops(rng, 9, DEMO9_P, DEMO9_OPS),
        }
    )
    rng.shuffle(matrices)
    return matrices


def _entry_ops(rng, n, p, count):
    residues = rng.sample(range(p), count)
    return [[rng.randrange(n), rng.randrange(n), r] for r in residues]


# -- presentations -------------------------------------------------------------

BAUM_SWEET_ERASING = (
    {"a": "abe", "b": "cefb", "c": "bfd", "d": "defd", "e": "ef", "f": ""},
    {"a": "1", "b": "1", "c": "0", "d": "0", "e": "", "f": ""},
)
BAUM_SWEET_UNIFORM = (
    {"a": "ab", "b": "cb", "c": "bd", "d": "dd"},
    {"a": "1", "b": "1", "c": "0", "d": "0"},
)
THUE_MORSE_PROJECTION = (
    {"a": "abc", "b": "bac", "c": "ccc"},
    {"a": "a", "b": "b", "c": ""},
)
THUE_MORSE = {"a": "ab", "b": "ba"}

FIXTURE_REPEATS = 2
STRETCH_LENGTHS = range(8, 17)
DECORATED = 88
CHECK_SYMBOLS = 10**4
# Source symbols a check may pump.  A sparse image (the Thue-Morse
# projection yields 2^k symbols from 3^k) gets a shorter check instead.
CHECK_SOURCE_CAP = 2 * 10**5


def check_plan(f, g, start, want=CHECK_SYMBOLS, cap=CHECK_SOURCE_CAP):
    """(symbols to check, source budget) for a prefix check of g(f^w(start)).

    f^k(start) is a prefix of the fixed point, so consuming |f^k(start)|
    source symbols yields sum_b |f^k(start)|_b |g(b)| output symbols.
    Computed from letter counts only.
    """
    letters = sorted(f)
    counts = {b: int(b == start) for b in letters}
    while True:
        total = sum(counts.values())
        visible = sum(c * len(g[b]) for b, c in counts.items())
        if visible >= want:
            return want, total
        nxt = {b: 0 for b in letters}
        for b, c in counts.items():
            for x in f[b]:
                nxt[x] += c
        if sum(nxt.values()) > cap:
            return visible, total
        counts = nxt


def morphism_file(morphisms, start, pair):
    """Morphism-file text for {name: {letter: image}} in compact one-letter mode."""
    parts = []
    for name, rules in morphisms.items():
        parts += [f"{name} {{"] + [f"  {b} -> {w} ;" for b, w in rules.items()] + ["}"]
    parts += [f"start = {start} ;", f"pair = {pair[0]} , {pair[1]} ;"]
    return "\n".join(parts) + "\n"


def _is_primitive(f, letters):
    """Some power of the incidence pattern is all-positive (Wielandt's bound)."""
    m = len(letters)
    index = {b: i for i, b in enumerate(letters)}
    succ = [0] * m  # bit j of succ[i]: letter j occurs in f(letter i)
    for b in letters:
        for x in f[b]:
            succ[index[b]] |= 1 << index[x]
    full = (1 << m) - 1
    reach = list(succ)
    for _ in range((m - 1) ** 2):
        reach = [bool_step(r, succ) for r in reach]
    return all(r == full for r in reach)


def bool_step(mask, succ):
    """One boolean matrix step on bitsets: the union of succ[j] over bits j of mask."""
    out = 0
    j = 0
    while mask:
        if mask & 1:
            out |= succ[j]
        mask >>= 1
        j += 1
    return out


def _decorated(rng):
    """A primitive non-erasing f0 on the base letters, decorated with erased x, y."""
    m = rng.randint(2, 4)
    base = "abcd"[:m]
    while True:
        f0 = {b: "".join(rng.choice(base) for _ in range(rng.randint(1, 2))) for b in base}
        f0["a"] = "a" + rng.choice(base)
        if _is_primitive(f0, base):
            break
    f = {}
    for b in base:
        word = list(f0[b])
        for _ in range(rng.randint(0, 2)):
            word.insert(rng.randint(1, len(word)), rng.choice("xy"))
        f[b] = "".join(word)
    for d in "xy":
        f[d] = "x" * rng.randint(0, 3)
    g = {b: rng.choice("01") for b in base}
    g.update(x="", y="")
    return f, g


def _presentation_item(family, f, g, start="a"):
    symbols, source = check_plan(f, g, start)
    return {
        "family": family,
        "f": f,
        "g": g,
        "text": morphism_file({"f": f, "g": g}, start, ("f", "g")),
        "symbols": sum(map(len, f.values())) + sum(map(len, g.values())),
        "check": symbols,
        # tau(sigma^w) is read one source symbol per output symbol
        "budget": max(source, symbols),
    }


def _presentations(rng):
    items = []
    for _ in range(FIXTURE_REPEATS):
        items.append(_presentation_item("fixture-baum-sweet", *BAUM_SWEET_ERASING))
        items.append(_presentation_item("fixture-thue-morse", *THUE_MORSE_PROJECTION))
    for length in STRETCH_LENGTHS:
        g = {"a": "".join(rng.choice("01") for _ in range(rng.randint(1, 2))),
             "b": "".join(rng.choice("01") for _ in range(length))}
        items.append(_presentation_item("stretch", {"a": "ab", "b": "bb"}, g))
    for _ in range(DECORATED):
        items.append(_presentation_item("decorated", *_decorated(rng)))
    # a fixed order: the peak memory of a pass (the stretch family's
    # sigma) depends on what earlier ops left on the heap
    return items


# -- streams -------------------------------------------------------------------

# (stream, log10 of the requested prefix lengths).  Each stream keeps the
# same lengths for every seed; the seed moves each length by up to
# +-STREAM_JITTER decades (2%); the order is fixed.  The grids stop
# where a stream gets expensive: the Thue-Morse projection reads n^1.58
# source symbols for n outputs.  Erasing Baum-Sweet reads three source
# symbols per output; its top request, 10^5.6, is past what the default
# budget of 10^6 source symbols serves (337,832 outputs).  A 10^6
# request there took 1.4 s in most runs but 2.6 s in others, with the
# same inputs in another order, and so set the corpus time alone.  The
# fixed point stops at 10^5.85: requests near 10^6 fell on either side
# of an allocation step from seed to seed, and peak memory with them
# (61 or 68 MiB).


def _grid(lo, hi, step):
    return tuple(round(lo + k * step, 2) for k in range(round((hi - lo) / step) + 1))


STREAM_PLAN = (
    ("thue-morse-fixed-point", _grid(3.05, 5.85, 0.2)),
    ("baum-sweet-uniform", _grid(3.0, 5.6, 0.2)),
    ("baum-sweet-erasing", _grid(3.0, 5.0, 0.2) + (5.6,)),
    ("baum-sweet-normalized", _grid(3.0, 5.6, 0.2)),
    ("thue-morse-normalized", _grid(3.0, 5.4, 0.2)),
    ("thue-morse-projection", _grid(3.0, 3.6, 0.1)),
    ("baum-sweet-compare", _grid(3.0, 5.0, 0.2)),
    ("finite-word", _grid(3.0, 5.6, 0.2)),
)
STREAM_JITTER = 0.01

STREAM_SOURCES = {
    "baum-sweet-uniform": BAUM_SWEET_UNIFORM,
    "baum-sweet-erasing": BAUM_SWEET_ERASING,
    "thue-morse-projection": THUE_MORSE_PROJECTION,
    # g(f^w(a)) = "1": a finite word, so every request exhausts its budget
    "finite-word": ({"a": "ab", "b": "b"}, {"a": "1", "b": ""}),
}


def compare_budget(n):
    """Source symbols that serve n symbols of both Baum-Sweet presentations."""
    return max(
        check_plan(*BAUM_SWEET_UNIFORM, "a", want=n, cap=10**12)[1],
        check_plan(*BAUM_SWEET_ERASING, "a", want=n, cap=10**12)[1],
    )


def _streams(rng):
    items = []
    for stream, exponents in STREAM_PLAN:
        for x in exponents:
            n = round(10 ** (x + rng.uniform(-STREAM_JITTER, STREAM_JITTER)))
            item = {"family": stream, "n": n}
            if stream == "finite-word":
                item["budget"] = n
                item["expect"] = "BudgetExceededError"
            elif stream in STREAM_SOURCES:
                f, g = STREAM_SOURCES[stream]
                item["budget"] = check_plan(f, g, "a", want=n, cap=10**12)[1]
            elif stream == "baum-sweet-compare":
                item["budget"] = compare_budget(n)
            elif stream.endswith("-normalized"):
                item["budget"] = n  # sigma is non-erasing and tau a coding
            else:
                item["budget"] = None  # a fixed-point prefix pumps no image
            items.append(item)
    # plan order, as for presentations: the peak memory depends on the order
    return items


# -- tour ----------------------------------------------------------------------


def incidence_rows(f):
    """Mat_f over sorted letters: entry (a, b) counts a in f(b)."""
    letters = sorted(f)
    return [[f[b].count(a) for b in letters] for a in letters]


def tour():
    """One small fixed op per layer, run after every traced pass.

    These are the library forms of the CLI probe's calls on the bundled
    inputs (Baum-Sweet and demo9.mat), so that every per-layer metric is
    measured on every workload.
    """
    rng = random.Random("morphlab-bench/tour")
    base = [[1, 2, 0], [0, 1, 1], [1, 0, 2]]
    kvec = [2, 1, 3]
    dilated = _dilate(rng, base, kvec)
    bs_rows = incidence_rows(BAUM_SWEET_ERASING[0])
    n = CHECK_SYMBOLS
    return {
        "spectra": [
            {"family": "tour-analyze", "n": len(bs_rows), "rows": bs_rows},
            {"family": "dilated", "n": len(dilated), "base": base, "kvec": kvec, "rows": dilated},
        ],
        "periodic": [
            {
                "family": "demo9",
                "n": 9,
                "p": DEMO9_P,
                "rows": [list(r) for r in DEMO9_ROWS],
                "cycles": DEMO9_CYCLES,
                "ops": [[0, 8, r] for r in range(DEMO9_P)],
            }
        ],
        "presentations": [_presentation_item("fixture-baum-sweet", *BAUM_SWEET_ERASING)],
        "streams": [
            {"family": "thue-morse-fixed-point", "n": n, "budget": None},
            {"family": "baum-sweet-compare", "n": n, "budget": compare_budget(n)},
            {"family": "finite-word", "n": 1000, "budget": 1000, "expect": "BudgetExceededError"},
        ],
    }


# -- public --------------------------------------------------------------------

_GENERATORS = {
    "spectra": _spectra,
    "periodic": _periodic,
    "presentations": _presentations,
    "streams": _streams,
}


def build(workload, seed):
    """The corpus of one pass: a list of JSON-ready items."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](_rng(workload, seed))


def digest(items):
    """SHA-256 of the corpus in canonical JSON."""
    blob = json.dumps(items, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def ops_of(workload, items):
    """Flatten a corpus into (item, op) pairs, one per timed operation."""
    if workload == "periodic":
        return [(m, op) for m in items for op in m["ops"]]
    return [(item, None) for item in items]


def summary(workload, items):
    """Op count and size range of each family, for the run record."""
    size_key = {"spectra": "n", "periodic": "p", "presentations": "symbols", "streams": "n"}[workload]
    out = {}
    for item, _ in ops_of(workload, items):
        fam = out.setdefault(item["family"], {"ops": 0, "min": None, "max": None, "size": size_key})
        fam["ops"] += 1
        v = item[size_key]
        fam["min"] = v if fam["min"] is None else min(fam["min"], v)
        fam["max"] = v if fam["max"] is None else max(fam["max"], v)
    return out
