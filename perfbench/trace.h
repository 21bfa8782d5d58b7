/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * A span is one timed call into a layer of the toolchain: its name
 * (the layer's module, e.g. "opt.combine"), start and end on one
 * steady clock, the span that was open when it started, and the
 * translation unit it worked on. Spans stay in memory while the
 * benchmark measures and are written out once at the end.
 *
 * Every recording call takes a nullable Tracer, so the untraced and
 * traced runs share one code path; with a null tracer nothing is
 * recorded and the only cost is a pointer test.
 */

#ifndef WMSTREAM_PERFBENCH_TRACE_H
#define WMSTREAM_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since an arbitrary fixed origin (steady clock). */
int64_t nowNs();

struct Span
{
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1; ///< index into Tracer::spans(); -1 for a root
    std::string tu;  ///< translation unit the work belonged to

    int64_t durNs() const { return endNs - startNs; }
};

class Tracer
{
  public:
    /** Open a span nested under the innermost open one. */
    int open(const std::string &name, const std::string &tu);
    void close(int id);
    /**
     * Record a closed span with caller-supplied timestamps, nested
     * under the innermost open span unless @p parent is given. Used
     * where two spans must share an instant exactly.
     */
    int record(const std::string &name, const std::string &tu,
               int64_t startNs, int64_t endNs, int parent = -2);
    /** Add @p v to the work counter @p name. */
    void count(const std::string &name, double v) { counts_[name] += v; }

    const std::vector<Span> &spans() const { return spans_; }
    size_t size() const { return spans_.size(); }
    /** Innermost open span, or -1. */
    int current() const { return stack_.empty() ? -1 : stack_.back(); }

    /** Counters accumulated since the last takeCounts(). */
    std::map<std::string, double> takeCounts();

    /**
     * Busy milliseconds per span name over spans [from, size()),
     * plus "driver.self_ms": each "driver.compile" span minus the
     * time its direct children cover.
     */
    std::map<std::string, double> busyMs(size_t from) const;

    /**
     * Exact-sum check over spans [from, size()): every child lies
     * inside its parent, siblings do not overlap, so the children of
     * each span sum to at most the parent. Returns "" or the first
     * violation.
     */
    std::string checkNesting(size_t from) const;

    /** Write all spans as a JSON array to @p path. */
    bool write(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::map<std::string, double> counts_;
};

/** RAII span; does nothing when the tracer is null. */
class Scope
{
  public:
    Scope(Tracer *t, const char *name, const std::string &tu)
        : t_(t), id_(t ? t->open(name, tu) : -1)
    {
    }
    ~Scope()
    {
        if (t_)
            t_->close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *t_;
    int id_;
};

} // namespace perfbench

#endif // WMSTREAM_PERFBENCH_TRACE_H
