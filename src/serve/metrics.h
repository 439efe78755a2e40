/// \file metrics.h
/// \brief Prometheus text-exposition rendering of the serving stats.
///
/// FormatPrometheusMetrics maps a ServeStatsSnapshot onto the
/// Prometheus text format (version 0.0.4): `# HELP`/`# TYPE` headers,
/// counters with the `_total` suffix, gauges for point-in-time state,
/// and one `predictd_request_latency_milliseconds` histogram per
/// dispatch priority (cumulative `le` buckets ending in `+Inf`, plus
/// `_sum`/`_count`). The transport serves it at `GET /metrics` on the
/// same event loop as the JSON protocol, so a scrape needs no side
/// channel and observes exactly what /stats observes.
///
/// The family, sample and label-escape writers below are the one
/// Prometheus writer of the repo: the fleet router renders its
/// predict_router_* families with them too.
///
/// ValidatePrometheusText is the renderer's contract in checkable
/// form: the metrics test and bench_serve_load's scrape gate both run
/// scraped bytes through it, so a malformed exposition (bucket not
/// cumulative, missing +Inf, TYPE after samples) fails CI rather than
/// a real scraper.

#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "serve/stats.h"

namespace mrperf {

/// \brief Appends the `# HELP` and `# TYPE` lines of family `name`.
void AppendFamilyHeader(std::string& out, const char* name,
                        const char* help, const char* type);

/// \brief Appends one sample line, `<name><labels> <value>`; `labels`
/// is empty or a rendered `{key="value",...}` set.
void AppendIntSample(std::string& out, const char* name,
                     const char* labels, int64_t value);

/// \brief Appends a counter family holding one unlabelled sample.
void AppendCounterFamily(std::string& out, const char* name,
                         const char* help, int64_t value);

/// \brief Appends a gauge family holding one unlabelled sample.
void AppendGaugeFamily(std::string& out, const char* name,
                       const char* help, int64_t value);

/// \brief Escapes a label value per the exposition format: backslash,
/// double quote and newline become \\, \" and \n.
std::string EscapeLabelValue(const std::string& value);

/// \brief Renders the snapshot in Prometheus text exposition format.
/// Deterministic: equal snapshots render byte-identically.
std::string FormatPrometheusMetrics(const ServeStatsSnapshot& snapshot);

/// \brief Strict structural check of a text-format exposition: line
/// syntax (comments, samples, label quoting, float values), `# TYPE`
/// declared at most once and before any sample of its family, and
/// histogram invariants (cumulative nondecreasing buckets per label
/// set, a `+Inf` bucket equal to `_count`, `_sum` present). Returns
/// the first violation; OK on an empty body.
Status ValidatePrometheusText(const std::string& body);

}  // namespace mrperf
