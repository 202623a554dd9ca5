#include "sim/report.hh"

#include <cstddef>
#include <ostream>

#include "sim/logging.hh"

namespace bssd::sim
{

GaugeSampler::GaugeSampler(const MetricRegistry &registry, Tick period)
    : registry_(registry), period_(period),
      columns_(registry.gaugePaths())
{
    if (period_ == 0)
        fatal("GaugeSampler period must be non-zero");
}

void
GaugeSampler::sample(Tick now)
{
    if (now < nextDue_)
        return;
    Row row;
    row.at = now;
    row.values.reserve(columns_.size());
    for (const auto &path : columns_)
        row.values.push_back(registry_.gaugeValue(path));
    rows_.push_back(std::move(row));
    // Next due point is period-aligned relative to this sample, so a
    // bursty pump cannot compress the series.
    nextDue_ = now + period_;
}

void
GaugeSampler::writeJson(std::ostream &os, int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    os << "{\n" << pad << "  \"period_ticks\": " << period_ << ",\n"
       << pad << "  \"columns\": [";
    for (std::size_t i = 0; i < columns_.size(); ++i) {
        os << (i ? ", " : "") << '"' << columns_[i] << '"';
    }
    os << "],\n" << pad << "  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        os << (i ? ",\n" : "\n") << pad << "    [" << rows_[i].at;
        for (double v : rows_[i].values)
            os << ", " << v;
        os << "]";
    }
    if (rows_.empty())
        os << "]";
    else
        os << "\n" << pad << "  ]";
    os << "\n" << pad << "}";
}

void
SeriesTable::merge(const GaugeSampler &s)
{
    if (period == 0)
        period = s.period();
    // Column union: new columns append in first-seen order and every
    // existing row is padded with 0 for them.
    std::vector<std::size_t> colAt(s.columns().size());
    for (std::size_t c = 0; c < s.columns().size(); ++c) {
        const std::string &name = s.columns()[c];
        std::size_t idx = columns.size();
        for (std::size_t i = 0; i < columns.size(); ++i) {
            if (columns[i] == name) {
                idx = i;
                break;
            }
        }
        if (idx == columns.size()) {
            columns.push_back(name);
            for (Row &r : rows)
                r.values.push_back(0.0);
        }
        colAt[c] = idx;
    }
    // Join on tick: samplers pumped from the same driver loop sample
    // at identical ticks, so rows line up; a tick only one sampler
    // recorded becomes its own (padded) row, kept sorted. A sampler's
    // ticks ascend, so each row's search resumes where the previous
    // row landed.
    std::size_t pos = 0;
    for (const GaugeSampler::Row &src : s.rows()) {
        while (pos < rows.size() && rows[pos].at < src.at)
            ++pos;
        if (pos == rows.size() || rows[pos].at != src.at) {
            Row fresh;
            fresh.at = src.at;
            fresh.values.assign(columns.size(), 0.0);
            rows.insert(rows.begin() +
                            static_cast<std::ptrdiff_t>(pos),
                        std::move(fresh));
        }
        for (std::size_t c = 0; c < src.values.size(); ++c)
            rows[pos].values[colAt[c]] = src.values[c];
    }
}

void
SeriesTable::writeJson(std::ostream &os, int indent) const
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    os << "{\n" << pad << "  \"period_ticks\": " << period << ",\n"
       << pad << "  \"columns\": [";
    for (std::size_t i = 0; i < columns.size(); ++i)
        os << (i ? ", " : "") << '"' << columns[i] << '"';
    os << "],\n" << pad << "  \"rows\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        os << (i ? ",\n" : "\n") << pad << "    [" << rows[i].at;
        for (double v : rows[i].values)
            os << ", " << v;
        os << "]";
    }
    if (rows.empty())
        os << "]";
    else
        os << "\n" << pad << "  ]";
    os << "\n" << pad << "}";
}

void
RunReport::writeJson(std::ostream &os) const
{
    os << "{\n  \"bench\": \"" << bench << "\",\n  \"config\": \""
       << config << "\",\n  \"seed\": " << seed << ",\n"
       << "  \"metrics\": ";
    metrics.writeJson(os, 2);
    os << ",\n  \"phases\": [";
    for (std::size_t i = 0; i < phases.size(); ++i) {
        const auto &p = phases[i];
        os << (i ? ",\n" : "\n") << "    {\"cat\": \"" << p.cat
           << "\", \"name\": \"" << p.name
           << "\", \"count\": " << p.count
           << ", \"total_ticks\": " << p.totalTicks
           << ", \"mean_ticks\": "
           << (p.count
                   ? static_cast<double>(p.totalTicks) /
                         static_cast<double>(p.count)
                   : 0.0)
           << ", \"min_ticks\": " << p.minTicks
           << ", \"max_ticks\": " << p.maxTicks
           << ", \"p50_ticks\": " << p.p50
           << ", \"p99_ticks\": " << p.p99 << "}";
    }
    os << (phases.empty() ? "]" : "\n  ]");
    if (series) {
        os << ",\n  \"series\": ";
        series->writeJson(os, 2);
    }
    os << "\n}\n";
}

} // namespace bssd::sim
