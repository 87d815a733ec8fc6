#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "serve/job_spec.h"

namespace perfbench {

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9');
    };
    if (!alnum(name[0]))
        return false;
    return std::all_of(name.begin(), name.end(), [&](char c) {
        return alnum(c) || c == '_' || c == '.' || c == '-';
    });
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double>
tailPercentile(std::vector<double> values, double q)
{
    const std::size_t n = values.size();
    // Nearest rank (1-based) k = ceil(q n); n - k samples lie beyond it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    if (n == 0 || rank == 0 || n - rank < 10)
        return std::nullopt;
    std::sort(values.begin(), values.end());
    return values[rank - 1];
}

std::size_t
samplesForPercentile(double q)
{
    std::size_t n = 10;
    while (!tailPercentile(std::vector<double>(n, 0.0), q))
        ++n;
    return n;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!validMetricName(name))
        throw std::runtime_error("bad metric name '" + name + "'");
    if (hasMetric(name))
        throw std::runtime_error("metric '" + name + "' reported twice");
    if (!std::isfinite(value))
        throw std::runtime_error("metric '" + name + "' is not finite");
    metrics_.push_back({name, value, unit});
}

void
Report::hostTime(const std::string &name, double value,
                 const std::string &unit)
{
    raw_.push_back({name, value, unit});
    metric(name, value * hostScale_, unit);
}

void
Report::hostRate(const std::string &name, double value,
                 const std::string &unit)
{
    raw_.push_back({name, value, unit});
    metric(name, value / hostScale_, unit);
}

std::string
Report::rawLine() const
{
    std::string out = "raw";
    char buf[128];
    for (const Metric &m : raw_) {
        std::snprintf(buf, sizeof(buf), " %s=%.6g%s", m.name.c_str(),
                      m.value, m.unit.c_str());
        out += buf;
    }
    return out;
}

bool
Report::hasMetric(const std::string &name) const
{
    return std::any_of(metrics_.begin(), metrics_.end(),
                       [&](const Metric &m) { return m.name == name; });
}

void
Report::operation(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
    }
}

void
Report::digest(const std::string &phase, const std::string &text)
{
    auto it = digests_.try_emplace(phase, 0xcbf29ce484222325ULL).first;
    it->second = qla::serve::fnv1a64(text.data(), text.size(), it->second);
}

std::string
Report::resultJson() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                  "\"metrics\": {",
                  failed_ == 0 ? "true" : "false",
                  (unsigned long long)attempted_,
                  (unsigned long long)failed_);
    std::string out = buf;
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", m.name.c_str(), m.value,
                      m.unit.c_str());
        out += buf;
    }
    out += "}}";
    return out;
}

} // namespace perfbench
