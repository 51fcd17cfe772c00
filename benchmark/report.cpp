#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numeric>

#include "bench.h"

namespace diospyros::benchmark {

void
Result::metric(const std::string& name, double value, const std::string& unit)
{
    entries_.push_back({name, value, unit, true});
}

void
Result::info(const std::string& name, double value, const std::string& unit)
{
    entries_.push_back({name, value, unit, false});
}

void
Result::fail(const std::string& why)
{
    ++failed_;
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());
}

void
Result::print(const std::string& workload) const
{
    for (const Entry& e : entries_) {
        std::printf("%-14s %-40s %16.6f %s%s\n", workload.c_str(),
                    e.name.c_str(), e.value, e.unit.c_str(),
                    e.in_result ? "" : "  (info)");
    }
    std::string metrics;
    for (const Entry& e : entries_) {
        if (!e.in_result) {
            continue;
        }
        // A value the JSON cannot carry is a broken measurement.
        const double v = std::isfinite(e.value) ? e.value : -1.0;
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", e.name.c_str(), v,
                      e.unit.c_str());
        metrics += buf;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), metrics.c_str());
    std::fflush(stdout);
}

double
now_seconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return std::numeric_limits<double>::quiet_NaN();
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
geomean(const std::vector<double>& values)
{
    if (values.empty()) {
        return std::numeric_limits<double>::quiet_NaN();
    }
    double log_sum = 0.0;
    for (const double v : values) {
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

namespace {

std::vector<double>
ranks(const std::vector<double>& v)
{
    std::vector<std::size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    for (std::size_t i = 0; i < idx.size();) {
        std::size_t j = i;
        while (j + 1 < idx.size() && v[idx[j + 1]] == v[idx[i]]) {
            ++j;
        }
        const double avg = (static_cast<double>(i + j) / 2.0) + 1.0;
        for (std::size_t k = i; k <= j; ++k) {
            r[idx[k]] = avg;
        }
        i = j + 1;
    }
    return r;
}

}  // namespace

double
spearman(const std::vector<double>& x, const std::vector<double>& y)
{
    const std::vector<double> rx = ranks(x);
    const std::vector<double> ry = ranks(y);
    const double n = static_cast<double>(x.size());
    const double mean = (n + 1.0) / 2.0;
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < rx.size(); ++i) {
        sxy += (rx[i] - mean) * (ry[i] - mean);
        sxx += (rx[i] - mean) * (rx[i] - mean);
        syy += (ry[i] - mean) * (ry[i] - mean);
    }
    return sxx > 0.0 && syy > 0.0 ? sxy / std::sqrt(sxx * syy) : 0.0;
}

double
peak_rss_mb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace diospyros::benchmark
