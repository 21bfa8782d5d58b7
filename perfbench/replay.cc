#include "replay.h"

#include <algorithm>

#include "cfg/dominators.h"
#include "cfg/loops.h"
#include "expand/expander.h"
#include "frontend/parser.h"
#include "opt/passes.h"
#include "wm/lowering.h"

namespace perfbench {

using namespace wmstream;

int64_t
countInsts(const rtl::Program &prog)
{
    int64_t n = 0;
    for (const auto &fp : prog.functions())
        for (const auto &bp : fp->blocks())
            n += static_cast<int64_t>(bp->insts.size());
    return n;
}

namespace {

int64_t
countInsts(const rtl::Function &fn)
{
    int64_t n = 0;
    for (const auto &bp : fn.blocks())
        n += static_cast<int64_t>(bp->insts.size());
    return n;
}

/** Run @p f inside a span named @p name. */
template <class F>
auto
timed(Tracer &t, const char *name, const std::string &tu, F &&f)
{
    Scope s(&t, name, tu);
    return f();
}

// The loop-tagging step of driver::compile, which the driver keeps
// private: stamp each instruction with its innermost loop's registry
// id before layout.
SourcePos
loopPos(const cfg::Loop &loop)
{
    for (const rtl::Inst &inst : loop.header->insts)
        if (inst.pos.valid())
            return inst.pos;
    for (rtl::Block *b : loop.blocks)
        for (const rtl::Inst &inst : b->insts)
            if (inst.pos.valid())
                return inst.pos;
    return {};
}

int
resolveLoopId(obs::RemarkCollector &rc, const rtl::Function &fn,
              const cfg::Loop &loop)
{
    for (const obs::LoopRecord &l : rc.loops())
        if (l.function == fn.name() && l.header == loop.header->label())
            return l.id;
    for (const obs::LoopRecord &l : rc.loops()) {
        if (l.function != fn.name())
            continue;
        for (rtl::Block *b : loop.blocks)
            if (b->label() == l.header)
                return l.id;
    }
    return rc.loopId(fn.name(), loop.header->label(), loopPos(loop));
}

void
tagLoops(rtl::Program &program, obs::RemarkCollector &rc)
{
    for (auto &fn : program.functions()) {
        fn->recomputeCfg();
        cfg::DominatorTree dt(*fn);
        cfg::LoopInfo li(*fn, dt);
        std::vector<cfg::Loop *> order;
        for (cfg::Loop &loop : li.loops())
            order.push_back(&loop);
        std::sort(order.begin(), order.end(),
                  [](const cfg::Loop *a, const cfg::Loop *b) {
                      return a->blocks.size() > b->blocks.size();
                  });
        for (cfg::Loop *loop : order) {
            int id = resolveLoopId(rc, *fn, *loop);
            for (rtl::Block *b : loop->blocks)
                for (rtl::Inst &inst : b->insts)
                    inst.loopId = id;
        }
    }
}

} // namespace

driver::CompileResult
replayCompile(const driver::CompileRequest &req, Tracer &t)
{
    const driver::CompileOptions &options = req.options;
    const std::string &tu = req.id;
    const bool verifyEach = options.verify == driver::VerifyMode::Each;
    Scope compileSpan(&t, "driver.compile", tu);

    driver::CompileResult res;
    res.traits = options.target == rtl::MachineKind::WM
                     ? rtl::wmTraits()
                     : rtl::scalarTraits();

    DiagEngine diag;
    auto unit = timed(t, "frontend", tu, [&] {
        return frontend::parseAndCheck(req.source, diag);
    });
    if (!unit) {
        res.diagnostics = diag.str();
        return res;
    }

    res.program = std::make_unique<rtl::Program>();
    timed(t, "expand", tu, [&] {
        expand::expandUnit(*unit, res.traits, *res.program,
                           &res.remarks);
    });
    t.count("expand.insts_out",
            static_cast<double>(countInsts(*res.program)));
    if (options.injectPanicTu)
        WS_PANIC("injected panic (batch-isolation self-test)");

    auto recordVerify = [&](verify::VerifyReport rep) {
        ++res.verifyCheckpoints;
        t.count("verify.checkpoints", 1);
        if (rep.ok())
            return;
        for (const verify::Violation &v : rep.violations) {
            obs::Remark r;
            r.pass = "verify";
            r.function = v.function;
            r.loc = v.pos;
            r.verdict = obs::RemarkVerdict::Missed;
            r.reason = v.reason;
            if (!v.loopHeader.empty())
                r.loopId =
                    res.remarks.loopId(v.function, v.loopHeader, v.pos);
            r.arg("after_pass", rep.pass)
                .arg("stage", verify::stageName(rep.stage))
                .arg("invariant", v.invariant);
            res.remarks.add(std::move(r));
        }
        res.verifyReports.push_back(std::move(rep));
    };
    auto verifyAfter = [&](rtl::Function &fn, const char *passName,
                           verify::Stage stage) {
        if (!verifyEach)
            return;
        verify::VerifyOptions vo;
        vo.stage = stage;
        vo.pass = passName;
        recordVerify(timed(t, "verify", tu, [&] {
            return verify::verifyFunction(fn, res.traits, vo,
                                          res.program.get());
        }));
    };
    constexpr auto kPostOpt = verify::Stage::PostOpt;

    if (verifyEach) {
        verify::VerifyOptions vo;
        vo.stage = verify::Stage::PostExpand;
        vo.pass = "expand";
        recordVerify(timed(t, "verify", tu, [&] {
            return verify::verifyProgram(*res.program, res.traits, vo);
        }));
    }

    const rtl::MachineTraits &traits = res.traits;
    for (auto &fn : res.program->functions()) {
        auto combine = [&] {
            return timed(t, "opt.combine", tu,
                         [&] { return opt::runCombine(*fn, traits); });
        };
        auto copyprop = [&] {
            return timed(t, "opt.copyprop", tu, [&] {
                return opt::runCopyPropagate(*fn, traits);
            });
        };
        auto dce = [&] {
            return timed(t, "opt.dce", tu, [&] {
                return opt::runDeadCodeElim(*fn, traits);
            });
        };
        auto branchopt = [&] {
            return timed(t, "opt.branchopt", tu,
                         [&] { return opt::runBranchOpt(*fn); });
        };
        auto legalize = [&] {
            return timed(t, "opt.legalize", tu,
                         [&] { return opt::runLegalize(*fn, traits); });
        };

        if (options.optimize) {
            // opt::runCleanupPipeline, one span per pass it runs.
            Scope cleanup(&t, "opt.cleanup", tu);
            legalize();
            auto round = [&] {
                for (int r = 0; r < 4; ++r) {
                    int changes = 0;
                    changes += branchopt();
                    changes += combine();
                    changes += copyprop();
                    changes += timed(t, "opt.cse", tu, [&] {
                        return opt::runLocalCSE(*fn, traits);
                    });
                    changes += dce();
                    if (!changes)
                        break;
                }
            };
            round();
            timed(t, "opt.licm", tu, [&] {
                return opt::runLoopInvariantCodeMotion(
                    *fn, traits, res.program.get());
            });
            round();
            fn->renumber();
        } else {
            legalize();
        }
        if (options.optimize)
            t.count("opt.cleanup.insts_out",
                    static_cast<double>(countInsts(*fn)));
        verifyAfter(*fn, options.optimize ? "cleanup" : "legalize",
                    kPostOpt);

        if (options.recurrence) {
            res.recurrenceReports.push_back(
                timed(t, "recurrence", tu, [&] {
                    return recurrence::runRecurrenceOpt(
                        *fn, traits, options.maxRecurrenceDegree,
                        options.injectRecurrenceDistanceBug,
                        &res.remarks);
                }));
            const auto &rr = res.recurrenceReports.back();
            t.count("recurrence.loops_examined", rr.loopsExamined);
            t.count("recurrence.recurrences_optimized",
                    rr.recurrencesOptimized);
            t.count("recurrence.loads_deleted", rr.loadsDeleted);
            verifyAfter(*fn, "recurrence", kPostOpt);
            if (options.verify != driver::VerifyMode::Off)
                recordVerify(timed(t, "verify", tu, [&] {
                    return verify::verifyRecurrenceChains(
                        *fn, traits, rr.chains, "recurrence");
                }));
            if (options.optimize) {
                copyprop();
                dce();
                verifyAfter(*fn, "recurrence-cleanup", kPostOpt);
            }
        }

        if (options.streaming && traits.hasStreams) {
            res.streamingReports.push_back(
                timed(t, "streaming", tu, [&] {
                    return streaming::runStreaming(
                        *fn, traits, options.minStreamTripCount,
                        &res.remarks, options.injectStreamCountBug,
                        options.injectVerifierBug);
                }));
            const auto &sr = res.streamingReports.back();
            t.count("streaming.loops_examined", sr.loopsExamined);
            t.count("streaming.loops_streamed", sr.loopsStreamed);
            t.count("streaming.streams", sr.streamsIn + sr.streamsOut);
            verifyAfter(*fn, "streaming", kPostOpt);
            if (options.optimize) {
                combine();
                copyprop();
                branchopt();
                dce();
                verifyAfter(*fn, "streaming-cleanup", kPostOpt);
            }
            if (options.vectorize) {
                res.vectorizeReports.push_back(
                    timed(t, "streaming.vectorize", tu, [&] {
                        return streaming::runVectorize(*fn, traits);
                    }));
                verifyAfter(*fn, "vectorize", kPostOpt);
            }
        }

        if (traits.isWM() && options.optimize) {
            timed(t, "opt.anticipate", tu, [&] {
                return opt::runBranchAnticipate(*fn, traits);
            });
            verifyAfter(*fn, "branch-anticipate", kPostOpt);
        }

        if (options.strengthReduce && !traits.isWM()) {
            timed(t, "opt.strength", tu, [&] {
                return opt::runStrengthReduce(*fn, traits);
            });
            verifyAfter(*fn, "strength-reduce", kPostOpt);
            if (options.optimize) {
                combine();
                copyprop();
                dce();
                verifyAfter(*fn, "strength-cleanup", kPostOpt);
            }
        }

        int64_t before = countInsts(*fn);
        timed(t, "opt.regalloc", tu,
              [&] { opt::runRegAlloc(*fn, traits); });
        t.count("opt.regalloc.insts_delta",
                static_cast<double>(countInsts(*fn) - before));
        verifyAfter(*fn, "regalloc", verify::Stage::PostRegalloc);
    }

    if (traits.isWM() && options.lowerFifo) {
        int64_t before = countInsts(*res.program);
        timed(t, "wm.lower", tu,
              [&] { return wm::lowerProgram(*res.program, traits); });
        t.count("wm.lower.insts_delta",
                static_cast<double>(countInsts(*res.program) - before));
    }

    if (options.verify != driver::VerifyMode::Off) {
        verify::VerifyOptions vo;
        vo.stage = traits.isWM() && options.lowerFifo
                       ? verify::Stage::PostLower
                       : verify::Stage::PostRegalloc;
        vo.pass = verifyEach ? "lower-fifo" : "final";
        recordVerify(timed(t, "verify", tu, [&] {
            return verify::verifyProgram(*res.program, traits, vo);
        }));
    }

    if (options.inferFifoDepth && traits.isWM() && options.lowerFifo) {
        res.fifoRequirements = timed(t, "verify.fifodepth", tu, [&] {
            return verify::analyzeFifoRequirements(
                *res.program, traits, options.configuredFifoDepth);
        });
        verify::VerifyReport bugs;
        bugs.pass = res.fifoRequirements.findings.pass;
        bugs.stage = res.fifoRequirements.findings.stage;
        for (const verify::Violation &v :
             res.fifoRequirements.findings.violations)
            if (v.reason != "fifo-depth-exceeded")
                bugs.violations.push_back(v);
        if (!bugs.ok())
            recordVerify(std::move(bugs));
    }

    tagLoops(*res.program, res.remarks);
    timed(t, "rtl.layout", tu, [&] { return res.program->layout(); });
    res.ok = true;
    res.diagnostics = diag.str();
    return res;
}

} // namespace perfbench
