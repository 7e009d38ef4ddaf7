/**
 * @file
 * Prometheus text exposition format: render, parse, validate.
 *
 * The sweep server's `metrics` request answers with this format
 * (src/serve/server.cc) so any scrape-shaped consumer — the
 * tools/ibs_stat live view, the loadgen cross-check, an actual
 * Prometheus with a tiny exporter shim — reads one canonical
 * surface. The renderer maps the obs::Registry's three metric
 * classes onto the three exposition families:
 *
 *   counter   ->  # TYPE ibs_cache_l1_misses counter
 *                 ibs_cache_l1_misses 5521
 *   gauge     ->  # TYPE ibs_sweep_depth gauge
 *                 ibs_sweep_depth 4
 *   histogram ->  # TYPE ibs_serve_request_latency_us histogram
 *                 ibs_serve_request_latency_us_bucket{le="127"} 3
 *                 ibs_serve_request_latency_us_bucket{le="255"} 9
 *                 ibs_serve_request_latency_us_bucket{le="+Inf"} 10
 *                 ibs_serve_request_latency_us_sum 1904
 *                 ibs_serve_request_latency_us_count 10
 *
 * Dotted registry names are sanitized to [a-zA-Z0-9_] and prefixed
 * "ibs_" ("serve.request.latency_us" -> "ibs_serve_request_latency_us").
 * Histogram `le` edges are the log2 buckets' inclusive upper edges
 * (2^(k+1)-1), cumulative as the format requires, emitted up to the
 * highest occupied bucket plus the mandatory "+Inf". Deviations from
 * upstream conventions, both deliberate: no `_total` suffix on
 * counters (registry names are already precise event names) and no
 * HELP lines (the registry carries no free-text metadata).
 *
 * The parser side is the minimal consumer the tools need: extract
 * one histogram family and compute bucket-resolution quantiles with
 * the same upper-edge semantics as HistogramSnapshot::quantile, and
 * check that a histogram holds exactly a list of reported values
 * (promHistogramHolds, the server latency cross-check).
 * validatePromText() is the well-formedness
 * check behind `validate_bench_json --prom`.
 */

#ifndef IBS_OBS_PROM_H
#define IBS_OBS_PROM_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace ibs::obs {

class Registry;

/** "serve.request.latency_us" -> "ibs_serve_request_latency_us":
 *  every character outside [a-zA-Z0-9_] becomes '_', then the
 *  "ibs_" namespace prefix is prepended. */
std::string promMetricName(const std::string &name);

/**
 * Render the registry's merged snapshot (counters, gauges,
 * histograms) as Prometheus text exposition format, families in
 * lexicographic registry-name order. The gauge set is rendered from
 * the names the counter-wins collision rule would drop nothing from
 * (counters and gauges are disjoint by contract). Ends with a
 * trailing newline.
 */
std::string renderPrometheus(const Registry &registry);

/** One histogram family parsed back out of exposition text. */
struct PromHistogram
{
    /** (le upper edge, cumulative count), in exposition order; the
     *  "+Inf" bucket parses as infinity. */
    std::vector<std::pair<double, uint64_t>> buckets;
    double sum = 0;
    uint64_t count = 0;

    /**
     * Upper edge of the lowest occupied bucket whose cumulative
     * count reaches fraction q of the total (occupied = cumulative
     * count strictly above its predecessor's). Returns 0 for an
     * empty histogram; +infinity when the mass lies in the "+Inf"
     * bucket. Matches HistogramSnapshot::quantile bucket-edge
     * semantics.
     */
    double quantile(double q) const;
};

/**
 * Find histogram family `metric` (already in exposition naming, e.g.
 * "ibs_serve_request_latency_us") in `text`. False when the family
 * is absent or carries no _count sample.
 */
bool parsePromHistogram(const std::string &text,
                        const std::string &metric,
                        PromHistogram &out);

/**
 * Exact check that histogram `hist` recorded precisely `values`:
 * each bucket holds as many of them as log2BucketUpperEdge maps onto
 * its edge (so _count equals values.size() too). `since`, when
 * given, is an earlier scrape of the same family whose counts are
 * subtracted first, so the check covers only what was observed after
 * it. On failure, `error` names the first bucket that differs.
 */
bool promHistogramHolds(const PromHistogram &hist,
                        const std::vector<uint64_t> &values,
                        std::string &error,
                        const PromHistogram *since = nullptr);

/** First sample value of plain metric `metric` (counter or gauge
 *  line, no labels). False when absent. */
bool findPromValue(const std::string &text, const std::string &metric,
                   double &out);

/**
 * Well-formedness check of a full exposition document:
 *
 *  - every line is blank, a comment (# ...), or `name[{labels}] value`
 *    with a legal metric name and a parseable value;
 *  - every sample's family was announced by a preceding # TYPE line,
 *    and no family is announced twice;
 *  - histogram families carry _bucket/_sum/_count samples, bucket
 *    `le` edges strictly increase, cumulative counts never decrease,
 *    the mandatory le="+Inf" bucket is present and equals _count.
 *
 * On failure, `error` names the offending line and rule.
 */
bool validatePromText(const std::string &text, std::string &error);

} // namespace ibs::obs

#endif // IBS_OBS_PROM_H
