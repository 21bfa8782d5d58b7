/**
 * @file
 * The benchmark's two workloads and their set-up.
 *
 * A workload is a fixed list of checks built from the seed: one check
 * is one (program, configuration) pair that is compiled, run on the
 * WM simulator or the scalar timing model, and compared with the
 * interpreter's result. A round runs every check once; the benchmark
 * repeats rounds until its time is up, so every deterministic figure
 * is a property of one round and repeats exactly.
 *
 *  - fuzz: the wmfuzz differential campaign at one job — the seeded
 *    root.split(i) program stream, fuzz::configMatrix per program,
 *    verify-each, the interpreter oracle run per program, the static
 *    FIFO verdict before each WM simulation.
 *  - batch: fuzz-generated TUs served by serve::runBatch (two workers,
 *    an armed deadline that never trips, one TU in twenty poisoned)
 *    under three base configurations; references are solo compiles of
 *    the ladder rung each TU must end on.
 */

#ifndef WMSTREAM_PERFBENCH_WORKLOADS_H
#define WMSTREAM_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "driver/compiler.h"
#include "serve/batch.h"
#include "trace.h"
#include "wmsim/sim.h"

namespace perfbench {

/** One source program and its interpreter result (set-up computes
 *  it, except for fuzz, whose rounds run the oracle themselves). */
struct Program
{
    std::string name;
    std::string source;
    int64_t expect = 0;
};

/** One (program, configuration) pair. */
struct Check
{
    std::string tu; ///< unique id, also the span TU id
    size_t program = 0;
    wmstream::driver::CompileOptions opts;
    wmstream::wmsim::SimConfig sim; ///< WM target
    /** Run the static FIFO analysis before simulating (fuzz). */
    bool fifoVerdict = false;
    /** RTL instructions right after expansion (the compile's input). */
    int64_t expandInsts = 0;

    /** @name batch only */
    /// @{
    wmstream::serve::TuStatus expectStatus = wmstream::serve::TuStatus::Ok;
    uint64_t expectHash = 0; ///< printed program of the solo compile
    /** The solo compile at the expected ladder rung; the served
     *  artifact is proven identical to it by hash before it runs.
     *  Null when nothing runs: the TU must be quarantined, or a
     *  healthy TU failed its solo compile (then every round fails it). */
    std::shared_ptr<wmstream::driver::CompileResult> solo;
    /// @}

    bool wm() const
    {
        return opts.target == wmstream::rtl::MachineKind::WM;
    }
};

/** Two checks of one program: without and with streaming. */
struct StreamPair
{
    size_t base = 0, streamed = 0;
};

/** One serve::runBatch call per round (batch workload). */
struct BatchGroup
{
    std::string key;
    wmstream::driver::CompileOptions base;
    std::vector<size_t> checks; ///< per TU, in job order
    int poisoned = 0;           ///< TUs whose injected poison bites here
};

struct Workload
{
    std::string name;
    std::vector<Program> programs;
    std::vector<Check> checks; ///< grouped by program, in order
    std::vector<StreamPair> pairs;
    /** fuzz: the interpreter oracle runs in every round, per program,
     *  as in the campaign; elsewhere it runs once in set-up. */
    bool oracleInRound = false;
    /** fuzz: fuzz::runCampaign's order-independent source digest. */
    uint64_t streamDigest = 0;
    std::vector<wmstream::serve::TuJob> tuJobs; ///< batch
    std::vector<BatchGroup> groups;             ///< batch
};

/** Names accepted by makeWorkload, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name from @p seed: generate the sources, compute
 * the interpreter references (all but fuzz), count post-expand
 * instructions and, for batch, poison TUs and solo-compile the
 * references. Layers it calls are traced into @p t when non-null.
 * Throws std::runtime_error when a reference cannot be computed.
 */
Workload makeWorkload(const std::string &name, uint64_t seed, Tracer *t);

/**
 * Parse and interpret @p source (the reference every compiled result
 * must match). Throws std::runtime_error when either fails.
 */
int64_t interpret(const std::string &source, const std::string &tu,
                  Tracer *t);

/** FNV-1a 64 of the printed target program (serve's artifact hash). */
uint64_t printedHash(const wmstream::driver::CompileResult &cr);

} // namespace perfbench

#endif // WMSTREAM_PERFBENCH_WORKLOADS_H
