/**
 * @file
 * Layer-by-layer replay of driver::compile for the traced run.
 *
 * replayCompile() performs driver::compile's pass sequence from
 * outside the driver, calling each layer's public entry point itself
 * (frontend::parseAndCheck, expand::expandUnit, the opt::run* passes
 * that make up the cleanup pipeline, recurrence, streaming,
 * wm::lowerProgram, the verifier, rtl::Program::layout) and recording
 * one span around each call plus work counters between them. The
 * fidelity check in main.cc proves, for every translation unit, that
 * the replay prints the same program as driver::compile.
 */

#ifndef WMSTREAM_PERFBENCH_REPLAY_H
#define WMSTREAM_PERFBENCH_REPLAY_H

#include "driver/compiler.h"
#include "trace.h"

namespace perfbench {

/**
 * Compile @p req like driver::compile, tracing every layer into @p t
 * under one "driver.compile" span. The cancellation and RTL-budget
 * checkpoints are not replayed: the benchmark never arms them on the
 * compiles it replays.
 */
wmstream::driver::CompileResult
replayCompile(const wmstream::driver::CompileRequest &req, Tracer &t);

/** RTL instructions in @p prog. */
int64_t countInsts(const wmstream::rtl::Program &prog);

} // namespace perfbench

#endif // WMSTREAM_PERFBENCH_REPLAY_H
