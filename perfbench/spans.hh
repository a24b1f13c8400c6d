/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 *
 * Spans are recorded by the benchmark around its calls into each
 * gpuscale module (the layers), kept in memory, and written out once
 * at exit.  Recording is single-threaded: every traced call is made
 * from the benchmark's main thread.  While disabled a Scope costs one
 * branch, which is what the untraced iterations of a traced run pay.
 */
#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "stats.hh"

namespace perfbench {

/** Nanoseconds on the steady clock since its epoch. */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

class SpanRecorder
{
  public:
    /** Turn recording on or off; spans already kept stay. */
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Start a new operation; later root spans carry its id. */
    void beginOp() { ++op_; }

    /** Record one span for the enclosing scope. */
    class Scope
    {
      public:
        Scope(SpanRecorder &rec, const char *layer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanRecorder &rec_;
        int index_ = -1;
    };

    /**
     * Keep a span measured elsewhere (e.g. a request completed out of
     * order); it joins the current op.  Returns its index, for use as
     * a parent.  Ignored while disabled.
     */
    int add(Span span);

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Median per-op self time of each layer, in milliseconds: for
     * every op, the self times of that layer's spans are summed; the
     * median is over the ops that recorded at least one span.  A
     * layer in `layers` with no span in any op reads 0.
     */
    std::map<std::string, double> layerSelfMs(
        const std::vector<std::string> &layers) const;

    /**
     * Median duration in milliseconds of the spans named `name`, or
     * NaN when there are none.
     */
    double medianMs(const std::string &name) const;

    /** Write every span as JSON to `path`; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    bool enabled_ = false;
    uint64_t op_ = 0;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
