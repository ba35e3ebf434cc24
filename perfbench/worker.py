"""One pass over a workload's corpus, in a fresh interpreter.

run.py starts this script once per pass:

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|ops|trace [--check 0|1]

It imports morphlab from the checkout's src/, builds the inputs, prints
"ready", runs every op once in order (one caller, no threads), and
prints one JSON line.  With --check 1 it checks each output with
perfbench/oracles.py, outside the timed region; without, only errors
count against an op.  --mode setup stops after "ready"; --mode trace
always checks, records spans around every call into morphlab, times
the core probes after each op, runs the fixed tour of corpus.tour(),
and writes the spans to the --spans file.

Right before and right after each op, outside its timed region, the
worker times kernel(), a fixed loop of integer arithmetic, and reports
the mean of the two with the op's latency.  run.py scales the latency
by it: it tells how fast the shared host ran while the op ran.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import platform
import resource
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import corpus  # noqa: E402
import oracles  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402

WIDTH = Fraction(1, 10**9)  # the CLI's default enclosure width


def kernel():
    """About 1 ms of bignum arithmetic on one variable.

    It creates no container objects, so whatever the program under test
    left on the heap cannot trigger a garbage collection inside it.
    """
    x = 3
    m = (1 << 127) - 1
    for k in range(2500):
        x = (x * x + k) % m
    return x


def kernel_time():
    start = perf_counter()
    kernel()
    return perf_counter() - start


class Workload:
    """Runs and checks one list of corpus items against morphlab."""

    def __init__(self, ml, items, tracer, counts, checking=True):
        self.ml = ml
        self.items = items
        self.tr = tracer
        self.counts = counts
        self.checking = checking
        self.prepare()

    def prepare(self):
        """Build the morphlab objects the ops take (part of set-up)."""

    def pairs(self):
        return [(item, None) for item in self.items]

    def run(self, prefix=""):
        records = []
        for k, (item, op) in enumerate(self.pairs()):
            op_id = f"{prefix}{k}"
            self.tr.op = op_id
            out = error = None
            before = kernel_time()
            start = perf_counter()
            try:
                with self.tr.span("op"):
                    out = self.execute(item, op)
            except Exception as exc:  # counted as a failed op unless the input expects it
                error = exc
            latency = perf_counter() - start
            host = (before + kernel_time()) / 2
            problem = self._judge(item, op, out, error)
            if problem is None and self.tr.enabled:
                self.probe(item, op, out)
            records.append({"id": op_id, "family": item["family"], "latency": latency, "kernel_s": host,
                            "problem": problem})
        self.tr.op = None
        return records

    def _judge(self, item, op, out, error):
        expected = item.get("expect")
        if error is not None:
            if expected and type(error).__name__ == expected and isinstance(error, self.ml.MorphlabError):
                return None
            return "".join(traceback.format_exception(error))[-2000:]
        if expected:
            return f"expected {expected}, but the op returned"
        if not self.checking:
            return None
        try:
            return self.check(item, op, out)
        except Exception as exc:  # a check that cannot run is a failed op, not a crash
            return "check raised " + "".join(traceback.format_exception(exc))[-2000:]

    def probe(self, item, op, out):
        """Traced mode: time core calls on the inputs the op's call passed."""

    def bump(self, key):
        self.counts[key] = self.counts.get(key, 0) + 1

    def peak(self, key, value):
        self.counts[key] = max(self.counts.get(key, value), value)


# -- spectra -----------------------------------------------------------------------


class Spectra(Workload):
    """What `morphlab analyze` and check_radius_preserved do, per matrix."""

    def prepare(self):
        self.matrix = {id(it): self.ml.IncidenceMatrix(it["rows"]) for it in self.items}

    def execute(self, item, op):
        ml, span = self.ml, self.tr.span
        matrix = self.matrix[id(item)]
        with span("spectral.decompose"):
            dec = ml.decompose(matrix)
        with span("spectral.blocks_json"):
            blocks = dec.blocks_as_json(WIDTH)
        with span("spectral.radius_enclosure"):
            enclosure = ml.spectral_radius_enclosure(matrix.rows, WIDTH)
        with span("spectral.row_col_growth"):
            growth = [(dec.row_growth(k), dec.column_growth(k)) for k in range(matrix.size)]
        preserved = None
        if "kvec" in item:
            with span("dilation.radius_preserved"):
                preserved = ml.check_radius_preserved(matrix.rows, item["base"], item["kvec"], WIDTH)
        return {"p": dec.p, "blocks": blocks, "enclosure": enclosure, "growth": growth, "preserved": preserved}

    def check(self, item, op, out):
        rows = item["rows"]
        rho = oracles.float_radius(rows)
        if not oracles.enclosure_holds(*out["enclosure"], rho, WIDTH):
            return f"radius enclosure {out['enclosure']} misses {rho!r} or is too wide"
        if not oracles.blocks_hold(rows, out["p"], out["blocks"], WIDTH):
            return "a block radius enclosure misses its float radius"
        alive_rows, alive_cols = oracles.live_rows_cols(rows)
        for k, (row_g, col_g) in enumerate(out["growth"]):
            if row_g.is_vanishing == (k in alive_rows) or col_g.is_vanishing == (k in alive_cols):
                return f"row/column {k}: vanishing verdict disagrees with reachability"
        if "kvec" in item:
            if out["preserved"] is not True:
                return "check_radius_preserved rejected a dilated pair"
            base_rho = oracles.float_radius(item["base"])
            if abs(base_rho - rho) > oracles.FLOAT_SLACK * max(1.0, rho):
                return "oracle: a dilated matrix changed the float radius"
        return None

    def probe(self, item, op, out):
        ml, span = self.ml, self.tr.span
        polytools = importlib.import_module("morphlab.polytools")
        rows = item["rows"]
        power = oracles.int_mat_pow(rows, out["p"])
        inputs = [(rows, max(1, max(sum(r) for r in rows)))]  # spectral_radius_enclosure
        for block in out["blocks"]:  # the diagonal blocks of M^p decompose builds
            if block["kind"] == "primitive":
                idx = [int(label) - 1 for label in block["letters"]]
                sub = [[power[i][j] for j in idx] for i in idx]
                inputs.append((sub, max(1, max(sum(r) for r in sub))))
        for mat, hi in inputs:
            with span("intmat.charpoly"):
                poly = ml.intmat.charpoly(mat)
            with span("polytools.sturm_chain"):
                chain = polytools.sturm_chain(poly)
            bits = max(max(Fraction(c).numerator.bit_length(), Fraction(c).denominator.bit_length())
                       for p in chain for c in p)
            self.peak("polytools.sturm_max_bits", bits)
            locator = polytools.LargestRootLocator(poly, Fraction(-1), Fraction(hi))
            with span("polytools.refine"):
                locator.refine(WIDTH)


# -- periodic ----------------------------------------------------------------------


class Periodic(Workload):
    """One entry_growth(i, j, r) per op on chains of coprime cycles."""

    def prepare(self):
        self.matrix = {id(m): self.ml.IncidenceMatrix(m["rows"]) for m in self.items}
        self.bits = {id(m): oracles.BoolPowers(m["rows"], m["p"]) for m in self.items}
        self.probed = {}

    def pairs(self):
        return corpus.ops_of("periodic", self.items)

    def execute(self, item, op):
        i, j, r = op
        with self.tr.span("spectral.entry_growth"):
            growth = self.ml.entry_growth(self.matrix[id(item)], i, j, r)
        self.bump("spectral.entry_growth_calls")
        return growth

    def check(self, item, op, growth):
        i, j, r = op
        vanishes = self.bits[id(item)].vanishes(i, j, r)
        expected = oracles.cycle_growth(item["rows"], item["cycles"], i, j, r)
        if (expected is None) != vanishes:
            return "oracle: boolean powers and cycle structure disagree"
        if growth.is_vanishing != vanishes:
            return f"entry ({i},{j}) r={r}: vanishing is {growth.is_vanishing}, boolean powers say {vanishes}"
        if vanishes:
            return None
        weight, length, degree = expected
        if growth.degree != degree:
            return f"entry ({i},{j}) r={r}: degree {growth.degree}, construction implies {degree}"
        if not growth.rate.is_root_of(oracles.rate_poly(weight, length, growth.rate.step)):
            return f"entry ({i},{j}) r={r}: rate is not {weight}^(1/{length})"
        return None

    def probe(self, item, op, growth):
        ml, span = self.ml, self.tr.span
        done = self.probed.setdefault(id(item), set())
        rows, p = self.matrix[id(item)].rows, item["p"]
        if not done:
            with span("graphs.cyclicity"):
                ml.cyclicity(rows)
        r = op[2]
        # decompose takes M^p; the vanishing self-check takes M^(pk+r), k <= n+1
        for e in [p] + [p * k + r for k in range(len(rows) + 2)]:
            if e not in done:
                done.add(e)
                with span("intmat.mat_pow"):
                    ml.intmat.mat_pow(rows, e)


# -- presentations -----------------------------------------------------------------


class Presentations(Workload):
    """`morphlab normalize --check` in library form, one presentation per op."""

    def execute(self, item, op):
        ml, span = self.ml, self.tr.span
        with span("parser.parse"):
            mf = ml.parse_file(item["text"])
        f, g = mf.morphism(mf.pair[0]), mf.morphism(mf.pair[1])
        pres = ml.MorphicPresentation(f, g, mf.start)
        if self.tr.enabled:
            sigma, tau, start, q = self._stages(pres)
        else:
            report = ml.normalize(pres)
            sigma, tau, start, q = report.sigma, report.tau, report.start, report.stretch_power
        n, budget = item["check"], item["budget"]
        source = ml.ImageStream(g, f, pres.start, budget=budget)
        rebuilt_source = ml.ImageStream(tau, sigma, start, budget=budget)
        with span("streams.image"):
            original = source.prefix(n)
        with span("streams.image"):
            rebuilt = rebuilt_source.prefix(n)
        with span("streams.compare"):
            same = ml.prefix_equal(original, rebuilt, n)
        with span("parser.format"):
            text = ml.format_file(ml.MorphismFile({"sigma": sigma, "tau": tau}, start=start, pair=("sigma", "tau")))
        return {"sigma": sigma, "tau": tau, "start": start, "q": q, "same": same,
                "original": original, "rebuilt": rebuilt, "text": text}

    def _stages(self, pres):
        """normalize(), stage by stage in its own order, each stage a span."""
        ml, span = self.ml, self.tr.span
        stages = importlib.import_module("morphlab.normalize")  # the package name is the function
        with span("normalize.growth_check"):
            ml.letter_growth(pres.f, pres.start)
        with span("normalize.effacement"):
            eff = stages.eliminate_effacement(pres)
        with span("normalize.trichotomy"):
            stages.growth_trichotomy(pres.f, pres.start, eff.f_prime, eff.kept, eff.p)
        with span("normalize.monotone"):
            mono = stages.make_monotone(eff.f_prime, eff.g_prime, pres.start)
        with span("normalize.sigma_tau"):
            built = stages.build_sigma_tau(mono.f, mono.g, pres.start)
        with span("normalize.growth_check"):
            if ml.letter_growth(built.sigma, built.start) != ml.letter_growth(mono.f, pres.start):
                raise ml.MorphlabError("pair construction changed the growth type")
        return built.sigma, built.tau, built.start, mono.stretch_power

    def check(self, item, op, out):
        sigma, tau, n = out["sigma"], out["tau"], item["check"]
        if any(len(sigma.image(b)) == 0 for b in sigma.domain):
            return "sigma is erasing"
        if any(len(tau.image(b)) != 1 for b in tau.domain):
            return "tau is not a coding"
        if out["same"] is not True:
            return "prefix_equal says the normalized word differs"
        f, g = item["f"], item["g"]
        expected = oracles.Expander(f.__getitem__, g.__getitem__, "a").prefix(n)
        if oracles.word_text(out["original"]) != expected:
            return "g(f^w(a)) prefix differs from the reference expansion"
        rebuilt = oracles.Expander(
            lambda b: sigma.image(b).letters(), lambda b: tau.image(b).letters(), out["start"]
        ).prefix(n)
        if rebuilt != expected or oracles.word_text(out["rebuilt"]) != expected:
            return "tau(sigma^w) prefix differs from the reference expansion"
        if out["text"].count("->") != len(sigma.domain) + len(tau.domain):
            return "format_file did not write one rule per letter"
        self.peak("normalize.max_q", out["q"])
        self.peak("normalize.sigma_symbols", sum(len(sigma.image(b)) for b in sigma.domain))
        return None


# -- streams -----------------------------------------------------------------------


class Streams(Workload):
    """prefix(n) requests on fresh streams, each with its own pump budget."""

    def prepare(self):
        ml = self.ml
        rules = ml.morphism_from_chars
        sources = {name: (rules(g), rules(f), "a") for name, (f, g) in corpus.STREAM_SOURCES.items()}
        for name, fixture in (("baum-sweet", corpus.BAUM_SWEET_ERASING),
                              ("thue-morse", corpus.THUE_MORSE_PROJECTION)):
            f, g = (rules(x) for x in fixture)
            report = ml.normalize(ml.MorphicPresentation(f, g, "a"))
            sources[f"{name}-normalized"] = (report.tau, report.sigma, report.start)
        self.sources = sources
        self.thue_morse = rules(corpus.THUE_MORSE)
        self.refs = {}

    def execute(self, item, op):
        ml, span, fam, n = self.ml, self.tr.span, item["family"], item["n"]
        if fam == "thue-morse-fixed-point":
            stream = ml.FixedPointStream(self.thue_morse, "a")
            with span("streams.fixed_point"):
                return {"words": [stream.prefix(n)], "streams": []}
        names = ["baum-sweet-uniform", "baum-sweet-erasing"] if fam == "baum-sweet-compare" else [fam]
        streams = [ml.ImageStream(*self.sources[name], budget=item["budget"]) for name in names]
        words = []
        for stream in streams:
            with span("streams.image"):
                try:
                    words.append(stream.prefix(n))
                except ml.BudgetExceededError:
                    self.bump("streams.budget_errors")
                    raise
        out = {"words": words, "streams": streams}
        if len(words) == 2:
            with span("streams.compare"):
                out["equal"] = ml.prefix_equal(words[0], words[1], n)
        return out

    def check(self, item, op, out):
        n = item["n"]
        kind = "thue-morse" if item["family"].startswith("thue-morse") else "baum-sweet"
        reference = self._reference(kind, n)
        for word in out["words"]:
            if oracles.word_text(word) != reference:
                return f"{item['family']} prefix({n}) differs from the {kind} definition"
        if "equal" in out and out["equal"] is not True:
            return "prefix_equal reports two equal Baum-Sweet prefixes as different"
        outputs, consumed = self.counts.get("streams.io", (0, 0))
        self.counts["streams.io"] = (outputs + n * len(out["streams"]),
                                     consumed + sum(s.consumed for s in out["streams"]))
        return None

    def _reference(self, kind, n):
        have = self.refs.get(kind, "")
        if len(have) < n:
            longest = max(it["n"] for it in self.items) if self.items else n
            build = oracles.thue_morse if kind == "thue-morse" else oracles.baum_sweet
            have = self.refs[kind] = build(max(n, longest))
        return have[:n]


WORKLOADS = {"spectra": Spectra, "periodic": Periodic, "presentations": Presentations, "streams": Streams}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "ops", "trace"), default="ops")
    parser.add_argument("--spans", help="where to write the spans in trace mode")
    parser.add_argument("--check", type=int, choices=(0, 1), default=1,
                        help="check every output against the oracles (always on in trace mode)")
    args = parser.parse_args(argv)

    import morphlab as ml

    loaded = Path(ml.__file__).resolve().parent
    if loaded != (SRC / "morphlab").resolve():
        sys.exit(f"worker: imported morphlab from {loaded}, not from {SRC}")
    tracer = Tracer() if args.mode == "trace" else NullTracer()
    counts = {}
    checking = bool(args.check) or args.mode == "trace"
    work = WORKLOADS[args.workload](ml, corpus.build(args.workload, args.seed), tracer, counts, checking)
    print("ready", flush=True)

    result = {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy")}
    if args.mode != "setup":
        result["ops"] = work.run()
    if args.mode == "trace":
        tour_ops = []
        for name, items in corpus.tour().items():
            tour_ops += WORKLOADS[name](ml, items, tracer, counts).run(prefix=f"tour-{name}-")
        result["tour_ops"] = tour_ops
        result["spans"] = {name: list(v) for name, v in tracer.totals().items()}
        result["op_span_s"] = sum(
            end - start for name, start, end, _, op in tracer.spans
            if name == "op" and not op.startswith("tour-")
        )
        if args.spans:
            tracer.write(args.spans)
    result["counts"] = counts
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
