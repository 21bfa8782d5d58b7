#include "workloads.h"

#include <map>
#include <stdexcept>

#include "expand/expander.h"
#include "frontend/parser.h"
#include "fuzz/campaign.h"
#include "fuzz/generator.h"
#include "interp/interp.h"
#include "m68k/printer.h"
#include "replay.h"
#include "support/rng.h"
#include "support/str.h"
#include "wm/printer.h"

namespace perfbench {

using namespace wmstream;

namespace {

// Sizes are chosen so one round takes one to three seconds on a
// 4-core x86 container, leaving ten or more rounds per measured run.
constexpr int kFuzzPrograms = 60;
constexpr int kBatchTus = 90;
constexpr int kBatchPoisonStride = 20; ///< one TU in twenty

uint64_t
fnv1a64(const std::string &s)
{
    uint64_t h = 0xCBF29CE484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001B3ull;
    }
    return h;
}

uint64_t
mix64(uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Post-expand RTL instructions of @p source for @p target. */
int64_t
expandCount(const std::string &source, rtl::MachineKind target)
{
    DiagEngine diag;
    auto unit = frontend::parseAndCheck(source, diag);
    if (!unit)
        throw std::runtime_error("generated source does not parse: " +
                                 diag.str());
    rtl::Program prog;
    expand::expandUnit(*unit,
                       target == rtl::MachineKind::WM ? rtl::wmTraits()
                                                      : rtl::scalarTraits(),
                       prog);
    return countInsts(prog);
}

size_t
addProgram(Workload &w, std::string name, std::string source)
{
    Program p;
    p.name = std::move(name);
    p.source = std::move(source);
    w.programs.push_back(std::move(p));
    return w.programs.size() - 1;
}

Check &
addCheck(Workload &w, size_t program, const std::string &config)
{
    Check c;
    c.program = program;
    c.tu = w.name + "/" + w.programs[program].name + "/" + config;
    w.checks.push_back(std::move(c));
    return w.checks.back();
}

void
makeFuzz(Workload &w, uint64_t seed, Tracer *t)
{
    w.oracleInRound = true;
    support::Rng root(seed);
    for (int idx = 0; idx < kFuzzPrograms; ++idx) {
        auto i = static_cast<uint64_t>(idx);
        std::string name = strFormat("%04d", idx);
        std::string source;
        {
            Scope s(t, "fuzz.generate", "fuzz/" + name);
            support::Rng rng = root.split(i);
            source = fuzz::renderProgram(fuzz::generateSpec(rng));
        }
        w.streamDigest ^= mix64(fnv1a64(source) ^ (i * 2 + 1));
        size_t pi = addProgram(w, name, std::move(source));
        size_t recBase = 0, recStream = 0;
        for (const fuzz::FuzzConfig &cfg : fuzz::configMatrix(i, false)) {
            Check &c = addCheck(w, pi, cfg.key);
            c.opts = cfg.opts;
            c.sim = cfg.simCfg;
            c.fifoVerdict = c.wm();
            if (cfg.key == "wm/rec")
                recBase = w.checks.size() - 1;
            if (cfg.key.rfind("wm/rec+stream", 0) == 0)
                recStream = w.checks.size() - 1;
        }
        w.pairs.push_back({recBase, recStream});
    }
}

/** Where serve's degradation ladder must leave one TU. */
struct LadderOutcome
{
    serve::TuStatus status = serve::TuStatus::Ok;
    driver::CompileOptions opts; ///< the rung's options, poison included
    std::shared_ptr<driver::CompileResult> result;
};

/** The ladder replayed with plain sequential compiles. */
LadderOutcome
soloLadder(const std::string &source, const driver::CompileOptions &base,
           const serve::TuJob &job)
{
    LadderOutcome out;
    serve::LadderLevel level = serve::LadderLevel::Full;
    for (;;) {
        out.opts = serve::applyLadder(base, level);
        out.opts.injectPanicTu = job.injectPanic;
        out.opts.injectVerifierBug = job.injectVerifierBug;
        bool failed = false;
        try {
            auto cr = std::make_shared<driver::CompileResult>(
                driver::compileSource(source, out.opts));
            if (!cr->ok)
                throw std::runtime_error("generated TU rejected: " +
                                         cr->diagnostics);
            failed = !cr->verifyClean();
            if (!failed) {
                out.status = level == serve::LadderLevel::Full
                                 ? serve::TuStatus::Ok
                                 : serve::TuStatus::OkDegraded;
                out.result = std::move(cr);
                return out;
            }
        } catch (const InternalError &) {
            failed = true;
        }
        if (level == serve::LadderLevel::ScalarOnly) {
            out.status = serve::TuStatus::Failed;
            return out;
        }
        level = level == serve::LadderLevel::Full
                    ? serve::LadderLevel::NoStreaming
                    : serve::LadderLevel::ScalarOnly;
    }
}

void
makeBatch(Workload &w, uint64_t seed, Tracer *t)
{
    driver::CompileOptions wmStream;
    wmStream.verify = driver::VerifyMode::Each;
    driver::CompileOptions wmBase = wmStream;
    wmBase.streaming = false;
    driver::CompileOptions scalar = wmStream;
    scalar.target = rtl::MachineKind::Scalar;
    w.groups = {{"wm", wmBase, {}, 0},
                {"wm+stream", wmStream, {}, 0},
                {"scalar", scalar, {}, 0}};

    support::Rng root(seed);
    bool nextIsPanic = true;
    bool verifierPending = false;
    for (int i = 0; i < kBatchTus; ++i) {
        std::string name = strFormat("%04d", i);
        serve::TuJob job;
        job.id = name + ".c";
        {
            Scope s(t, "fuzz.generate", "batch/" + name);
            support::Rng rng = root.split(static_cast<uint64_t>(i));
            job.source = fuzz::renderProgram(fuzz::generateSpec(rng));
        }
        // Poison one TU in twenty, alternating kinds. A panic always
        // bites; the verifier bug only bites a TU that streams, so it
        // goes to the first TU from its slot on that compiles cleanly
        // without it and not with it, keeping quarantined == poisoned
        // exact.
        if (i % kBatchPoisonStride == kBatchPoisonStride - 1) {
            if (nextIsPanic)
                job.injectPanic = true;
            else
                verifierPending = true;
            nextIsPanic = !nextIsPanic;
        }
        if (verifierPending && !job.injectPanic) {
            serve::TuJob probe = job;
            probe.injectVerifierBug = true;
            if (soloLadder(job.source, wmStream, probe).status !=
                    serve::TuStatus::Ok &&
                soloLadder(job.source, wmStream, job).status ==
                    serve::TuStatus::Ok) {
                job.injectVerifierBug = true;
                verifierPending = false;
            }
        }
        addProgram(w, name, job.source);
        w.tuJobs.push_back(std::move(job));
    }

    // The references: a healthy TU must be served Ok with the program
    // of its solo compile; a TU whose poison bites in the group must
    // end where the solo ladder ends. The poisoned count comes from the
    // injections alone, so a compiler fault on a healthy TU is a failed
    // check, never an expected quarantine.
    for (BatchGroup &group : w.groups) {
        bool streams = group.base.streaming &&
                       group.base.target == rtl::MachineKind::WM;
        for (size_t i = 0; i < w.tuJobs.size(); ++i) {
            const serve::TuJob &job = w.tuJobs[i];
            bool bites = job.injectPanic ||
                         (job.injectVerifierBug && streams);
            LadderOutcome lo = soloLadder(job.source, group.base, job);
            Check &c = addCheck(w, i, group.key);
            c.opts = lo.opts;
            if (bites) {
                ++group.poisoned;
                c.expectStatus = lo.status;
            }
            if (lo.result && lo.status == c.expectStatus) {
                c.expectHash = printedHash(*lo.result);
                c.solo = std::move(lo.result);
            }
            group.checks.push_back(w.checks.size() - 1);
        }
    }
    const std::vector<size_t> &base = w.groups[0].checks;
    const std::vector<size_t> &streamed = w.groups[1].checks;
    for (size_t i = 0; i < base.size(); ++i)
        if (w.checks[base[i]].solo && w.checks[streamed[i]].solo)
            w.pairs.push_back({base[i], streamed[i]});
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"fuzz", "batch"};
    return names;
}

int64_t
interpret(const std::string &source, const std::string &tu, Tracer *t)
{
    DiagEngine diag;
    std::unique_ptr<frontend::TranslationUnit> unit;
    {
        Scope s(t, "frontend", tu);
        unit = frontend::parseAndCheck(source, diag);
    }
    if (!unit)
        throw std::runtime_error("reference missing for " + tu +
                                 ": source rejected: " + diag.str());
    interp::InterpResult r;
    {
        Scope s(t, "interp", tu);
        interp::Interpreter in(*unit);
        r = in.run();
    }
    if (!r.ok)
        throw std::runtime_error("reference missing for " + tu +
                                 ": interpreter failed: " + r.error);
    if (t)
        t->count("interp.steps", static_cast<double>(r.stepsExecuted));
    return r.returnValue;
}

uint64_t
printedHash(const driver::CompileResult &cr)
{
    return serve::artifactHash(cr.traits.isWM()
                                   ? wm::printProgram(*cr.program)
                                   : m68k::printProgram(*cr.program));
}

Workload
makeWorkload(const std::string &name, uint64_t seed, Tracer *t)
{
    Workload w;
    w.name = name;
    if (name == "fuzz")
        makeFuzz(w, seed, t);
    else if (name == "batch")
        makeBatch(w, seed, t);
    else
        throw std::runtime_error("unknown workload " + name);

    std::map<std::pair<size_t, rtl::MachineKind>, int64_t> expanded;
    for (Check &c : w.checks) {
        auto key = std::make_pair(c.program, c.opts.target);
        auto it = expanded.find(key);
        if (it == expanded.end())
            it = expanded
                     .emplace(key, expandCount(w.programs[c.program].source,
                                               c.opts.target))
                     .first;
        c.expandInsts = it->second;
    }
    if (!w.oracleInRound)
        for (Program &p : w.programs)
            p.expect = interpret(p.source, name + "/" + p.name, t);
    return w;
}

} // namespace perfbench
