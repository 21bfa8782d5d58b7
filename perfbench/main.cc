/**
 * @file
 * perfbench: the end-to-end benchmark of the toolchain.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans-out FILE]
 *
 * Builds the workload from the seed (set-up, repeated and timed), then
 * runs rounds until S seconds have passed, with more set-ups among
 * them. Every check is compared with its reference; the last line
 * of standard output is one JSON object {"correct", "attempted",
 * "failed", "metrics"}.
 *
 * Host timings are taken per unit of work: a check (a batch call for
 * the batch workload) repeats once per round, and its fastest round is
 * its time; the set-up's time is its fastest repetition. Interference
 * from other work on the host only ever slows a repetition down, so
 * the fastest one is the steadiest estimate of what the toolchain
 * itself costs; it also leaves out the cold first round.
 *
 * --trace 0 reports the end-to-end metrics from untraced rounds.
 * --trace 1 first proves the layer-by-layer replay prints the same
 * program as driver::compile for every translation unit, then
 * alternates untraced and traced rounds: the traced ones give the
 * per-layer metrics, the pair gives the tracing overhead, and the
 * spans go to --spans-out.
 *
 * Exit status: 0 with a result; 2 on bad arguments or a missing
 * reference; 3 when a fidelity, exact-sum or determinism check fails.
 */

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz/campaign.h"
#include "replay.h"
#include "serve/batch.h"
#include "support/diag.h"
#include "support/str.h"
#include "timing/scalar_sim.h"
#include "trace.h"
#include "verify/verify.h"
#include "wmsim/sim.h"
#include "workloads.h"

using namespace wmstream;
using namespace perfbench;

namespace {

/** Set-up runs kMinSetups times before the rounds, then again after
 *  a round while the set-ups among the rounds have taken less than
 *  kSetupShare of the time since the rounds began, so its repetitions
 *  are spread over the run like the rounds' are. */
constexpr int kMinSetups = 3;
constexpr double kSetupShare = 0.15;
constexpr int kBatchJobs = 2;
/** Armed on every batch TU; a generated TU compiles in milliseconds,
 *  so it never trips. */
constexpr int kBatchDeadlineMs = 20'000;
constexpr uint64_t kScalarMaxInsts = 4'000'000'000ull;

/** A check or invariant of the benchmark itself failed. */
struct BenchFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

double
secondsSince(int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) / 1e9;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Quantile @p q of @p v with linear interpolation between ranks. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** What one round measured. */
struct Round
{
    bool traced = false;
    /** @name Host times, indexed by unit (check, or batch group) */
    /// @{
    std::vector<double> unitS;        ///< whole unit
    std::vector<double> unitCompileS; ///< compiling (batch: runBatch)
    /// @}
    /** @name Host times, indexed by check */
    /// @{
    std::vector<double> compileMs; ///< batch: the TU's serve record
    std::vector<double> simS;      ///< wmsim construction + run()
    /** The work a traced round traces: the whole check, or for batch
     *  the served TU compiled again (--trace 1 only) plus its run. */
    std::vector<double> tracedS;
    /// @}
    int64_t checks = 0;     ///< (program, configuration) pairs run
    int64_t ruleChecks = 0; ///< batch: quarantined == poisoned, per batch
    int64_t failed = 0;
    double compiledInsts = 0; ///< post-expand RTL instructions
    double simCycles = 0;
    double scalarCycles = 0;
    double codeInsts = 0;
    double streamRatio = 0; ///< geometric mean over stream pairs
    std::vector<std::string> problems;
    /** Traced rounds: per-layer busy ms and serve worker time. */
    std::map<std::string, double> host;
    /** Traced rounds: deterministic work counters. */
    std::map<std::string, double> counts;

    /** Deterministic figures, for exact comparison between rounds. */
    std::vector<double> deterministic() const
    {
        return {static_cast<double>(checks),
                static_cast<double>(ruleChecks),
                static_cast<double>(failed),
                compiledInsts,
                simCycles,
                scalarCycles,
                codeInsts,
                streamRatio};
    }

    void fail(std::string what)
    {
        ++failed;
        if (problems.size() < 5)
            problems.push_back(std::move(what));
    }
};

/** Per index, the fastest of the rounds' values of @p field. */
std::vector<double>
fastest(const std::vector<const Round *> &rounds,
        std::vector<double> Round::*field)
{
    std::vector<double> best = rounds.front()->*field;
    for (const Round *r : rounds)
        for (size_t i = 0; i < best.size(); ++i)
            best[i] = std::min(best[i], (r->*field)[i]);
    return best;
}

class Runner
{
  public:
    explicit Runner(Workload &w) : w_(w) {}

    /**
     * Return freed memory to the system before every check, so the
     * peak RSS of the round is that of its largest check rather than
     * an accident of the allocator's history. Used only in the first
     * round, which measures peak_rss_mb.
     */
    bool trim = false;

    /**
     * Compile each served batch TU again in untraced rounds too, as
     * traced rounds replay it, so that traced and untraced rounds time
     * the same work (--trace 1).
     */
    bool redoServed = false;

    /** One pass over every check; traced into @p t when non-null. */
    Round round(Tracer *t)
    {
        Round r;
        r.traced = t != nullptr;
        size_t mark = t ? t->size() : 0;
        cycles_.assign(w_.checks.size(), 0);
        r.compileMs.assign(w_.checks.size(), 0);
        r.simS.assign(w_.checks.size(), 0);
        r.tracedS.assign(w_.checks.size(), 0);
        {
            Scope s(t, "round", w_.name);
            if (w_.groups.empty())
                compileRound(r, t);
            else
                batchRound(r, t);
        }

        // A failed run leaves its cycles at 0 and drops out of the mean.
        double logSum = 0;
        int pairs = 0;
        for (const StreamPair &p : w_.pairs)
            if (cycles_[p.base] > 0 && cycles_[p.streamed] > 0) {
                logSum += std::log(cycles_[p.streamed] / cycles_[p.base]);
                ++pairs;
            }
        r.streamRatio = pairs ? std::exp(logSum / pairs) : 0;
        if (t) {
            std::string bad = t->checkNesting(mark);
            if (!bad.empty())
                throw BenchFailure("exact-sum check: " + bad);
            for (auto &[k, v] : t->busyMs(mark))
                r.host[k] += v;
            r.counts = t->takeCounts();
        }
        return r;
    }

    /**
     * The fidelity check: for every check, the layer-by-layer replay
     * prints the same program as driver::compile (batch: as the solo
     * compile whose hash the served artifact must match). For fuzz,
     * fuzz::runCampaign on @p seed must see the same checks and
     * sources and no divergence.
     */
    void fidelity(uint64_t seed)
    {
        Tracer scratch;
        for (Check &c : w_.checks) {
            if (!w_.groups.empty() && !c.solo)
                continue;
            driver::CompileRequest req{c.tu, source(c), c.opts};
            uint64_t want = c.solo ? c.expectHash
                                   : printedHash(driver::compile(req));
            driver::CompileResult rp = replayCompile(req, scratch);
            if (!rp.ok || printedHash(rp) != want)
                throw BenchFailure("fidelity: replay of " + c.tu +
                                   " prints a different program");
        }
        if (w_.name != "fuzz")
            return;
        fuzz::CampaignOptions co;
        co.seed = seed;
        co.maxPrograms = static_cast<int>(w_.programs.size());
        co.jobs = 1;
        co.minimize = false;
        fuzz::CampaignResult cr = fuzz::runCampaign(co);
        if (cr.checksRun != static_cast<int64_t>(w_.checks.size()) ||
            cr.streamDigest != w_.streamDigest || !cr.clean())
            throw BenchFailure(strFormat(
                "fidelity: fuzz::runCampaign ran %lld checks with digest "
                "%016llx and %zu divergences; the benchmark has %zu "
                "checks with digest %016llx",
                static_cast<long long>(cr.checksRun),
                static_cast<unsigned long long>(cr.streamDigest),
                cr.divergences.size(), w_.checks.size(),
                static_cast<unsigned long long>(w_.streamDigest)));
    }

  private:
    void trimHeap() const
    {
        if (trim)
            malloc_trim(0);
    }

    const std::string &source(const Check &c) const
    {
        return w_.programs[c.program].source;
    }

    void compileRound(Round &r, Tracer *t)
    {
        size_t lastProgram = w_.programs.size();
        int64_t expect = 0;
        for (size_t i = 0; i < w_.checks.size(); ++i) {
            const Check &c = w_.checks[i];
            trimHeap();
            int64_t u0 = nowNs();
            if (c.program != lastProgram) {
                lastProgram = c.program;
                const Program &p = w_.programs[c.program];
                expect = w_.oracleInRound
                             ? interpret(p.source,
                                         w_.name + "/" + p.name, t)
                             : p.expect;
            }
            ++r.checks;
            int64_t c0 = nowNs();
            driver::CompileRequest req{c.tu, source(c), c.opts};
            driver::CompileResult cr;
            std::string panic;
            try {
                cr = t ? replayCompile(req, *t) : driver::compile(req);
            } catch (const InternalError &e) {
                panic = e.what();
            }
            double compileS = secondsSince(c0);
            r.compileMs[i] = compileS * 1e3;
            r.unitCompileS.push_back(compileS);
            r.compiledInsts += static_cast<double>(c.expandInsts);
            if (!panic.empty()) {
                r.fail(c.tu + ": compiler panic: " + panic);
            } else if (!cr.ok) {
                r.fail(c.tu + ": compile error: " + cr.diagnostics);
            } else if (!cr.verifyClean()) {
                r.fail(c.tu + ": verifier: " + cr.verifyText());
            } else {
                r.codeInsts += static_cast<double>(countInsts(*cr.program));
                execute(c, i, *cr.program, cr.traits, expect, t, r);
            }
            r.unitS.push_back(secondsSince(u0));
            r.tracedS[i] = r.unitS.back();
        }
    }

    void batchRound(Round &r, Tracer *t)
    {
        for (BatchGroup &g : w_.groups) {
            serve::BatchOptions bo;
            bo.base = g.base;
            bo.jobs = kBatchJobs;
            bo.tuTimeoutMs = kBatchDeadlineMs;
            trimHeap();
            int64_t b0 = nowNs();
            serve::BatchReport rep = serve::runBatch(w_.tuJobs, bo);
            int64_t b1 = nowNs();
            double wallS = static_cast<double>(b1 - b0) / 1e9;
            r.unitCompileS.push_back(wallS);
            if (t) {
                t->record("serve.batch", "batch/" + g.key, b0, b1);
                for (const serve::TuRecord &rec : rep.tus)
                    r.host["serve.worker_busy_ms"] += rec.wallMs;
                r.host["serve.capacity_ms"] += bo.jobs * wallS * 1e3;
                t->count("serve.tus", rep.total);
                t->count("serve.attempts",
                         static_cast<double>(rep.attempts));
                t->count("serve.retries", rep.retries);
                t->count("serve.demotions", rep.demotions);
                t->count("serve.quarantined", rep.quarantined());
            }
            ++r.ruleChecks;
            if (rep.quarantined() != g.poisoned)
                r.fail(strFormat("batch/%s: %d TUs quarantined, %d "
                                 "poisoned",
                                 g.key.c_str(), rep.quarantined(),
                                 g.poisoned));

            // A traced round replays each served compile for the
            // per-layer figures (redoServed: an untraced round compiles
            // it again); that time is not part of the unit.
            int64_t replayNs = 0;
            for (size_t k = 0; k < g.checks.size(); ++k) {
                size_t ci = g.checks[k];
                const Check &c = w_.checks[ci];
                const serve::TuRecord &rec = rep.tus[k];
                ++r.checks;
                r.compileMs[ci] = rec.wallMs;
                r.compiledInsts += static_cast<double>(c.expandInsts);
                if (rec.status != c.expectStatus ||
                    rec.artifactHash != c.expectHash) {
                    r.fail(strFormat("%s: served %s/%016llx, expected "
                                     "%s/%016llx",
                                     c.tu.c_str(),
                                     serve::tuStatusName(rec.status),
                                     static_cast<unsigned long long>(
                                         rec.artifactHash),
                                     serve::tuStatusName(c.expectStatus),
                                     static_cast<unsigned long long>(
                                         c.expectHash)));
                    continue;
                }
                if (!c.solo)
                    continue; // quarantined as expected: nothing to run
                trimHeap();
                // The served artifact is the solo program (same hash).
                rtl::Program *prog = c.solo->program.get();
                driver::CompileResult again;
                int64_t q0 = nowNs();
                if (t || redoServed) {
                    driver::CompileRequest req{c.tu, source(c), c.opts};
                    again = t ? replayCompile(req, *t)
                              : driver::compile(req);
                    replayNs += nowNs() - q0;
                    prog = again.program.get();
                }
                r.codeInsts += static_cast<double>(countInsts(*prog));
                execute(c, ci, *prog, c.solo->traits,
                        w_.programs[c.program].expect, t, r);
                r.tracedS[ci] = static_cast<double>(nowNs() - q0) / 1e9;
            }
            r.unitS.push_back(static_cast<double>(nowNs() - b0 - replayNs) /
                              1e9);
        }
    }

    /** Run a compiled program and compare it with @p expect. */
    void execute(const Check &c, size_t index, rtl::Program &prog,
                 const rtl::MachineTraits &traits, int64_t expect,
                 Tracer *t, Round &r)
    {
        if (!c.wm()) {
            timing::ScalarRunResult res;
            {
                Scope s(t, "timing", c.tu);
                res = timing::runScalar(prog, timing::m88100Model(),
                                        kScalarMaxInsts);
            }
            if (!res.ok || res.returnValue != expect) {
                r.fail(strFormat("%s: returned %lld, expected %lld %s",
                                 c.tu.c_str(),
                                 static_cast<long long>(res.returnValue),
                                 static_cast<long long>(expect),
                                 res.error.c_str()));
                return;
            }
            r.scalarCycles += res.cycles;
            if (t)
                t->count("timing.insts",
                         static_cast<double>(res.instsExecuted));
            return;
        }
        if (c.fifoVerdict) {
            verify::FifoRequirements req;
            {
                Scope s(t, "verify.fifodepth", c.tu);
                req = verify::analyzeFifoRequirements(
                    prog, traits, c.sim.dataFifoDepth);
            }
            if (t) {
                t->count("verify.fifodepth.analyzed", req.analyzed);
                t->count("verify.fifodepth.proven", req.deadlockFree);
            }
        }
        int64_t t0 = nowNs();
        wmsim::Simulator sim(prog, c.sim);
        int64_t t1 = nowNs();
        wmsim::SimResult res = sim.run();
        int64_t t2 = nowNs();
        if (t) {
            int p = t->record("wmsim", c.tu, t0, t2);
            t->record("wmsim.setup", c.tu, t0, t1, p);
            t->record("wmsim.run", c.tu, t1, t2, p);
            const wmsim::SimStats &st = res.stats;
            t->count("wmsim.cycles", static_cast<double>(st.cycles));
            t->count("wmsim.insts_dispatched",
                     static_cast<double>(st.instsDispatched));
            t->count("wmsim.stall_cycles",
                     static_cast<double>(st.ieuStallCycles +
                                         st.feuStallCycles +
                                         st.ifuStallCycles));
        }
        r.simS[index] = static_cast<double>(t2 - t0) / 1e9;
        if (!res.ok || res.returnValue != expect) {
            r.fail(strFormat("%s: returned %lld, expected %lld %s",
                             c.tu.c_str(),
                             static_cast<long long>(res.returnValue),
                             static_cast<long long>(expect),
                             res.error.c_str()));
            return;
        }
        r.simCycles += static_cast<double>(res.stats.cycles);
        cycles_[index] = static_cast<double>(res.stats.cycles);
    }

    Workload &w_;
    std::vector<double> cycles_;
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spansOut = "perfbench.spans.json";
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool haveWorkload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string k = argv[i], v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
            haveWorkload = true;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                return false;
            a.trace = v == "1";
        } else if (k == "--spans-out") {
            a.spansOut = v;
        } else {
            return false;
        }
        if (end && *end)
            return false;
    }
    const auto &names = workloadNames();
    return argc % 2 == 1 && haveWorkload && a.seconds > 0 &&
           std::find(names.begin(), names.end(), a.workload) != names.end();
}

/** Reset the resident-set high-water mark (Linux clear_refs "5"). */
void
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    bool ok = f && std::fputs("5", f) >= 0;
    if (!f || std::fclose(f) != 0 || !ok)
        throw std::runtime_error("cannot reset the peak RSS through "
                                 "/proc/self/clear_refs");
}

/** The resident-set high-water mark (VmHWM) in MiB. */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    char line[256];
    long kb = -1;
    while (f && std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1)
            break;
    if (f)
        std::fclose(f);
    if (kb < 0)
        throw std::runtime_error("cannot read VmHWM from /proc/self/status");
    return static_cast<double>(kb) / 1024.0;
}

struct Metric
{
    std::string name, unit;
    double value;
};

void
printResult(bool correct, int64_t attempted, int64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = strFormat(
        "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
        "\"metrics\": {",
        correct ? "true" : "false", static_cast<long long>(attempted),
        static_cast<long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        out += strFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         i ? ", " : "", metrics[i].name.c_str(),
                         metrics[i].value, metrics[i].unit.c_str());
    out += "}}";
    std::printf("%s\n", out.c_str());
}

std::vector<Metric>
endToEnd(const std::vector<double> &setupS,
         const std::vector<const Round *> &rounds, double rssMb,
         int64_t attempted, int64_t failed)
{
    const Round &r0 = *rounds.front();
    std::vector<double> compileMs = fastest(rounds, &Round::compileMs);
    std::printf("compile latency: %zu compiles, each its fastest of %zu "
                "rounds\n",
                compileMs.size(), rounds.size());
    return {
        {"setup_s", "s", *std::min_element(setupS.begin(), setupS.end())},
        {"checks_per_s", "1/s",
         static_cast<double>(r0.checks) / sum(fastest(rounds, &Round::unitS))},
        {"compile_ms_p50", "ms", quantile(compileMs, 0.5)},
        {"compile_ms_p90", "ms", quantile(compileMs, 0.9)},
        {"compile_kinsts_per_s", "kinst/s",
         r0.compiledInsts / 1e3 / sum(fastest(rounds, &Round::unitCompileS))},
        {"sim_mcycles_per_s", "Mcycle/s",
         r0.simCycles / 1e6 / sum(fastest(rounds, &Round::simS))},
        {"sim_cycles", "cycles", r0.simCycles},
        {"stream_ratio_geomean", "ratio", r0.streamRatio},
        {"scalar_cycles", "cycles", r0.scalarCycles},
        {"code_insts", "insts", r0.codeInsts},
        {"peak_rss_mb", "MB", rssMb},
        {"check_pass_frac", "ratio",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted)},
    };
}

std::vector<Metric>
perLayer(const std::vector<std::map<std::string, double>> &setupMs,
         const std::map<std::string, double> &setupCounts,
         const std::vector<const Round *> &traced,
         const std::vector<const Round *> &plain)
{
    // Layer time: one set-up plus one round (medians), as each layer
    // runs in one of the two.
    auto ms = [&](const std::string &name) {
        std::vector<double> s, t;
        for (const auto &m : setupMs)
            s.push_back(m.count(name) ? m.at(name) : 0);
        for (const Round *r : traced)
            t.push_back(r->host.count(name) ? r->host.at(name) : 0);
        return median(s) + median(t);
    };
    std::map<std::string, double> n = traced.front()->counts;
    for (auto &[k, v] : setupCounts)
        n[k] += v;
    auto cnt = [&](const std::string &k) {
        return n.count(k) ? n.at(k) : 0.0;
    };

    std::vector<Metric> out;
    auto add = [&](const std::string &name, const char *unit, double v) {
        out.push_back({name, unit, v});
    };
    auto addMs = [&](const std::string &layer) {
        add(layer + ".ms", "ms", ms(layer));
    };
    addMs("frontend");
    addMs("expand");
    add("expand.insts_out", "insts", cnt("expand.insts_out"));
    addMs("opt.cleanup");
    add("opt.cleanup.insts_out", "insts", cnt("opt.cleanup.insts_out"));
    for (const char *pass :
         {"opt.legalize", "opt.branchopt", "opt.combine", "opt.copyprop",
          "opt.cse", "opt.dce", "opt.licm", "opt.strength",
          "opt.anticipate", "opt.regalloc"})
        addMs(pass);
    add("opt.regalloc.insts_delta", "insts",
        cnt("opt.regalloc.insts_delta"));
    addMs("recurrence");
    add("recurrence.applied_frac", "ratio",
        ratio(cnt("recurrence.recurrences_optimized"),
              cnt("recurrence.loops_examined")));
    add("recurrence.loads_deleted", "count",
        cnt("recurrence.loads_deleted"));
    addMs("streaming");
    add("streaming.streamed_frac", "ratio",
        ratio(cnt("streaming.loops_streamed"),
              cnt("streaming.loops_examined")));
    add("streaming.streams", "count", cnt("streaming.streams"));
    addMs("streaming.vectorize");
    addMs("wm.lower");
    add("wm.lower.insts_delta", "insts", cnt("wm.lower.insts_delta"));
    addMs("verify");
    add("verify.checkpoints", "count", cnt("verify.checkpoints"));
    addMs("verify.fifodepth");
    add("verify.fifodepth.proven_frac", "ratio",
        ratio(cnt("verify.fifodepth.proven"),
              cnt("verify.fifodepth.analyzed")));
    addMs("rtl.layout");
    add("driver.self_ms", "ms", ms("driver.self_ms"));
    add("wmsim.setup_ms", "ms", ms("wmsim.setup"));
    add("wmsim.run_ms", "ms", ms("wmsim.run"));
    add("wmsim.cycles", "cycles", cnt("wmsim.cycles"));
    add("wmsim.insts_dispatched", "insts", cnt("wmsim.insts_dispatched"));
    add("wmsim.stall_frac", "ratio",
        ratio(cnt("wmsim.stall_cycles"), 3 * cnt("wmsim.cycles")));
    add("wmsim.ns_per_cycle", "ns",
        ratio(ms("wmsim.run") * 1e6, cnt("wmsim.cycles")));
    addMs("timing");
    add("timing.insts", "insts", cnt("timing.insts"));
    add("timing.ns_per_inst", "ns",
        ratio(ms("timing") * 1e6, cnt("timing.insts")));
    addMs("interp");
    add("interp.steps", "count", cnt("interp.steps"));
    add("interp.ns_per_step", "ns",
        ratio(ms("interp") * 1e6, cnt("interp.steps")));
    addMs("fuzz.generate");
    add("serve.batch_ms", "ms", ms("serve.batch"));
    add("serve.attempts_per_tu", "ratio",
        ratio(cnt("serve.attempts"), cnt("serve.tus")));
    add("serve.retries", "count", cnt("serve.retries"));
    add("serve.demotions", "count", cnt("serve.demotions"));
    add("serve.quarantined", "count", cnt("serve.quarantined"));
    add("serve.worker_busy_frac", "ratio",
        ratio(ms("serve.worker_busy_ms"), ms("serve.capacity_ms")));
    add("trace.overhead_frac", "ratio",
        sum(fastest(traced, &Round::tracedS)) /
                sum(fastest(plain, &Round::tracedS)) -
            1);
    return out;
}

int
run(const Args &a)
{
    Tracer tracer;
    Tracer *t = a.trace ? &tracer : nullptr;

    // Set-up, repeated: the fastest repetition is setup_s, and every
    // repetition must build the same inputs and counters.
    std::vector<double> setupS;
    std::vector<std::map<std::string, double>> setupMs;
    std::map<std::string, double> setupCounts;
    Workload w;
    auto setUp = [&] {
        size_t mark = tracer.size();
        int64_t s0 = nowNs();
        Workload built;
        {
            Scope s(t, "setup", a.workload);
            built = makeWorkload(a.workload, a.seed, t);
        }
        setupS.push_back(secondsSince(s0));
        bool firstSetUp = setupS.size() == 1;
        if (t) {
            setupMs.push_back(tracer.busyMs(mark));
            auto counts = tracer.takeCounts();
            if (firstSetUp)
                setupCounts = counts;
            else if (counts != setupCounts)
                throw BenchFailure("set-up counters differ between "
                                   "repetitions");
        }
        if (firstSetUp) {
            w = std::move(built);
            return;
        }
        bool same = built.checks.size() == w.checks.size() &&
                    built.streamDigest == w.streamDigest;
        for (size_t i = 0; same && i < w.programs.size(); ++i)
            same = built.programs[i].source == w.programs[i].source &&
                   built.programs[i].expect == w.programs[i].expect;
        if (!same)
            throw BenchFailure("set-up built different inputs from one "
                               "seed");
    };
    for (int k = 0; k < kMinSetups; ++k)
        setUp();

    Runner runner(w);
    runner.redoServed = a.trace;
    if (a.trace)
        runner.fidelity(a.seed);

    // Timed rounds. The first one also measures the peak RSS: it
    // returns freed memory before each check, which slows it, but a
    // unit's time is its fastest round, so a slow or cold first round
    // costs nothing. Rounds stop when the next one would end, on
    // average, at the time limit. Set-ups among the rounds count
    // towards the limit.
    std::vector<Round> rounds;
    int64_t start = nowNs();
    double rssMb = 0, setupInRunS = 0;
    for (double last = 0;
         rounds.size() < 2 || secondsSince(start) + last / 2 < a.seconds;) {
        bool first = rounds.empty();
        bool traceThis = a.trace && rounds.size() % 2 == 1;
        if (first)
            resetPeakRss();
        runner.trim = first;
        int64_t r0 = nowNs();
        rounds.push_back(runner.round(traceThis ? t : nullptr));
        last = secondsSince(r0);
        if (first)
            rssMb = peakRssMb();
        if (setupInRunS < kSetupShare * secondsSince(start)) {
            setUp();
            setupInRunS += setupS.back();
        }
    }
    runner.trim = false;

    int64_t attempted = 0, failed = 0;
    std::vector<const Round *> traced, plain;
    for (const Round &r : rounds) {
        (r.traced ? traced : plain).push_back(&r);
        attempted += r.checks + r.ruleChecks;
        failed += r.failed;
        for (const std::string &p : r.problems)
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         p.c_str());
        if (r.deterministic() != rounds.front().deterministic())
            throw BenchFailure("deterministic figures differ between "
                               "rounds");
        if (r.traced && r.counts != traced.front()->counts)
            throw BenchFailure("work counters differ between traced "
                               "rounds");
    }

    std::printf("perfbench: workload %s seed %llu: %zu rounds, %zu checks "
                "per round\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                rounds.size(), w.checks.size());
    std::vector<Metric> metrics;
    if (a.trace) {
        metrics = perLayer(setupMs, setupCounts, traced, plain);
        if (!tracer.write(a.spansOut))
            throw BenchFailure("cannot write " + a.spansOut);
        std::printf("spans: %zu written to %s\n", tracer.size(),
                    a.spansOut.c_str());
    } else {
        metrics = endToEnd(setupS, plain, rssMb, attempted, failed);
    }
    printResult(failed == 0, attempted, failed, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload fuzz|batch "
                     "--seed N --seconds S --trace 0|1 "
                     "[--spans-out FILE]\n");
        return 2;
    }
    try {
        return run(a);
    } catch (const BenchFailure &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 3;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
