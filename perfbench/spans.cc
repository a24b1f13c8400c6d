/**
 * @file
 * In-memory span recorder for the traced benchmark run.
 */
#include "spans.hh"

#include <fstream>

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder &rec, const char *layer,
                           const char *name)
    : rec_(rec)
{
    if (!rec_.enabled_)
        return;
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = rec_.open_.empty() ? -1 : rec_.open_.back();
    s.op = rec_.op_;
    index_ = static_cast<int>(rec_.spans_.size());
    rec_.spans_.push_back(std::move(s));
    rec_.open_.push_back(index_);
    // Last, so the bookkeeping above is not inside the span.
    rec_.spans_.back().start_ns = nowNs();
}

SpanRecorder::Scope::~Scope()
{
    if (index_ < 0)
        return;
    rec_.spans_[static_cast<size_t>(index_)].end_ns = nowNs();
    rec_.open_.pop_back();
}

int
SpanRecorder::add(Span span)
{
    if (!enabled_)
        return -1;
    span.op = op_;
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double>
SpanRecorder::layerSelfMs(const std::vector<std::string> &layers) const
{
    const std::vector<int64_t> self = selfTimesNs(spans_);
    // op -> layer -> summed self ns
    std::map<uint64_t, std::map<std::string, int64_t>> per_op;
    for (size_t i = 0; i < spans_.size(); ++i)
        per_op[spans_[i].op][spans_[i].layer] += self[i];

    std::map<std::string, double> out;
    for (const auto &layer : layers) {
        std::vector<double> values;
        for (const auto &[op, by_layer] : per_op) {
            const auto it = by_layer.find(layer);
            if (it != by_layer.end())
                values.push_back(static_cast<double>(it->second) / 1e6);
        }
        out[layer] = values.empty() ? 0.0 : median(values);
    }
    return out;
}

double
SpanRecorder::medianMs(const std::string &name) const
{
    std::vector<double> values;
    for (const auto &s : spans_) {
        if (s.name == name)
            values.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                             1e6);
    }
    return median(values);
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
           << "\",\"layer\":\"" << s.layer << "\",\"start_ns\":"
           << s.start_ns << ",\"end_ns\":" << s.end_ns
           << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}";
    }
    os << "\n]\n";
    return os.good();
}

} // namespace perfbench
