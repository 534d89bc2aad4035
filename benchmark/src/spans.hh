/**
 * @file
 * Host-time spans recorded by the benchmark around its calls into the
 * library (workload build, engine construction, each protocol call,
 * FleetEngine::run, each layer probe). Spans stay in memory and are
 * written out once, when the benchmark ends; nothing here runs inside
 * the library, so an untraced run pays nothing.
 */

#ifndef PIMBENCH_SPANS_HH
#define PIMBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pimbench {

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
        /** Index of the enclosing span; -1 for a root span. */
        int parent = -1;
        /** Repetition of the traced run (-1 outside any run). */
        int rep = -1;
    };

    explicit SpanLog(std::string workload);

    /** Open a span under the innermost open one; returns its index. */
    int open(const std::string &name, int rep = -1);
    void close(int id);

    /** Summed seconds of every span called @p name. */
    double totalSeconds(const std::string &name) const;

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as JSON; false if the file cannot be written. */
    bool write(const std::string &path, std::uint64_t seed) const;

  private:
    std::int64_t nowNs() const;

    std::string workload_;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: opened on construction, closed on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog &log, const std::string &name, int rep = -1)
        : log_(log), id_(log.open(name, rep))
    {
    }
    ~ScopedSpan() { log_.close(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog &log_;
    int id_;
};

} // namespace pimbench

#endif // PIMBENCH_SPANS_HH
