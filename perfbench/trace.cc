#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

int
Tracer::open(const std::string &name, const std::string &tu)
{
    Span s;
    s.name = name;
    s.tu = tu;
    s.parent = current();
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
}

void
Tracer::close(int id)
{
    spans_[static_cast<size_t>(id)].endNs = nowNs();
    // Scopes close innermost first, also while unwinding.
    while (!stack_.empty()) {
        int top = stack_.back();
        stack_.pop_back();
        if (top == id)
            break;
    }
}

int
Tracer::record(const std::string &name, const std::string &tu,
               int64_t startNs, int64_t endNs, int parent)
{
    Span s;
    s.name = name;
    s.tu = tu;
    s.parent = parent == -2 ? current() : parent;
    s.startNs = startNs;
    s.endNs = endNs;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, double>
Tracer::takeCounts()
{
    std::map<std::string, double> out;
    out.swap(counts_);
    return out;
}

std::map<std::string, double>
Tracer::busyMs(size_t from) const
{
    std::map<std::string, double> ms;
    std::map<int, int64_t> childNs;
    for (size_t i = from; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        ms[s.name] += static_cast<double>(s.durNs()) / 1e6;
        if (s.parent >= 0)
            childNs[s.parent] += s.durNs();
    }
    double self = 0;
    for (size_t i = from; i < spans_.size(); ++i)
        if (spans_[i].name == "driver.compile")
            self += static_cast<double>(spans_[i].durNs() -
                                        childNs[static_cast<int>(i)]) /
                    1e6;
    ms["driver.self_ms"] = self;
    return ms;
}

std::string
Tracer::checkNesting(size_t from) const
{
    // Children of one parent, in start order.
    std::map<int, std::vector<const Span *>> kids;
    for (size_t i = from; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (s.endNs < s.startNs)
            return "span " + s.name + " ends before it starts";
        if (s.parent < 0)
            continue;
        const Span &p = spans_[static_cast<size_t>(s.parent)];
        if (s.startNs < p.startNs || s.endNs > p.endNs)
            return "span " + s.name + " (" + s.tu + ") outside parent " +
                   p.name;
        kids[s.parent].push_back(&s);
    }
    for (auto &[parent, list] : kids) {
        std::sort(list.begin(), list.end(),
                  [](const Span *a, const Span *b) {
                      return a->startNs < b->startNs;
                  });
        int64_t sum = 0;
        for (size_t k = 0; k < list.size(); ++k) {
            if (k > 0 && list[k]->startNs < list[k - 1]->endNs)
                return "sibling spans " + list[k - 1]->name + " and " +
                       list[k]->name + " overlap";
            sum += list[k]->durNs();
        }
        const Span &p = spans_[static_cast<size_t>(parent)];
        if (sum > p.durNs())
            return "children of " + p.name + " (" + p.tu +
                   ") sum past the parent";
    }
    return "";
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    // Names and TU ids are the benchmark's own identifiers: no quote
    // or backslash can occur, so they are written unescaped.
    std::fputs("[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"parent\":%d,\"tu\":\"%s\"}%s\n",
                     s.name.c_str(), static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs), s.parent,
                     s.tu.c_str(), i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench
