#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

int
Tracer::open(const std::string &name, int parent, int worker)
{
    const std::int64_t start = now();
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = name;
    span.startNs = start;
    span.endNs = start;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.worker = worker;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

void
Tracer::close(int id)
{
    const std::int64_t end = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].endNs = end;
}

int
Tracer::record(const std::string &name, std::int64_t start_ns,
               std::int64_t end_ns, int parent, int worker)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.name = name;
    span.startNs = start_ns;
    span.endNs = end_ns;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.worker = worker;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

std::int64_t
coveredNs(std::int64_t start, std::int64_t end,
          std::vector<std::pair<std::int64_t, std::int64_t>> intervals)
{
    for (auto &[a, b] : intervals) {
        a = std::clamp(a, start, end);
        b = std::clamp(b, start, end);
    }
    std::sort(intervals.begin(), intervals.end());
    std::int64_t covered = 0;
    std::int64_t reach = start;
    for (const auto &[a, b] : intervals) {
        const std::int64_t from = std::max(a, reach);
        if (b > from) {
            covered += b - from;
            reach = b;
        }
    }
    return covered;
}

std::map<std::string, std::int64_t>
selfTimeByLayer(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &span : spans)
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].emplace_back(
                span.startNs, span.endNs);
    std::map<std::string, std::int64_t> self;
    for (const Span &span : spans) {
        const std::int64_t covered
            = coveredNs(span.startNs, span.endNs,
                        children[static_cast<std::size_t>(span.id)]);
        self[layerOf(span.name)] += span.endNs - span.startNs - covered;
    }
    return self;
}

std::string
chromeTraceJson(const std::vector<Span> &spans)
{
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    char buf[256];
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        // Span names are benchmark-chosen identifiers: no escaping needed.
        std::snprintf(buf, sizeof(buf),
                      "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                      "\"args\":{\"id\":%d,\"parent\":%d}}",
                      i ? "," : "", span.name.c_str(),
                      layerOf(span.name).c_str(), span.startNs / 1e3,
                      (span.endNs - span.startNs) / 1e3, span.worker,
                      span.id, span.parent);
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

} // namespace perfbench
