#include "spans.hh"

#include <cstdio>
#include <utility>

namespace pimbench {

SpanLog::SpanLog(std::string workload)
    : workload_(std::move(workload)), epoch_(std::chrono::steady_clock::now())
{
}

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
SpanLog::open(const std::string &name, int rep)
{
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.rep = rep;
    s.startNs = nowNs();
    spans_.push_back(std::move(s));
    int id = static_cast<int>(spans_.size()) - 1;
    stack_.push_back(id);
    return id;
}

void
SpanLog::close(int id)
{
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    // Spans nest strictly (ScopedSpan), so the closing span is the
    // innermost open one.
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

double
SpanLog::totalSeconds(const std::string &name) const
{
    std::int64_t ns = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            ns += s.endNs - s.startNs;
    return static_cast<double>(ns) * 1e-9;
}

bool
SpanLog::write(const std::string &path, std::uint64_t seed) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    // Span and workload names are benchmark-chosen identifiers
    // ([a-z0-9._-]), so they need no JSON escaping.
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"spans\": [",
                 workload_.c_str(), static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n {\"id\": %zu, \"name\": \"%s\", "
                     "\"workload\": \"%s\", \"rep\": %d, \"parent\": %d, "
                     "\"start_ns\": %lld, \"end_ns\": %lld}",
                     i ? "," : "", i, s.name.c_str(), workload_.c_str(),
                     s.rep, s.parent, static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace pimbench
