/**
 * @file
 * perfbench_probe: the benchmark's own driver into the simulator's
 * public API. run.py calls it in three modes:
 *
 *   perfbench_probe layers OUT
 *       Time one call site per layer (src/workload, src/vm, src/tlb,
 *       src/cache, src/core, src/trace + src/sim memos, src/sim) with
 *       the specs and lengths the paper benches use, and write the
 *       per-layer metrics plus one span per layer call to OUT.
 *
 *   perfbench_probe serve PORT PLAN REFERENCE CONNECTIONS OUT
 *       Closed-loop client of a running ibs_serve: CONNECTIONS
 *       threads, each with its own connection, take the next request
 *       of PLAN (one JSON sweep request per line) as soon as their
 *       previous one is done, until every request has been sent once.
 *       Every returned cell is compared exactly with REFERENCE. OUT
 *       gets one line per request and a final "stats" line with the
 *       server's own counters.
 *
 *   perfbench_probe reference PLAN OUT
 *       Compute the reference stats of every cell PLAN names by
 *       calling SuiteTraces::runOne in-process (no server), as a
 *       JSON object keyed "suite|workload|config|instructions".
 *
 * Simulated statistics are deterministic, so every comparison is
 * exact. Times are host seconds on std::chrono::steady_clock, the
 * same CLOCK_MONOTONIC run.py reads, so span timestamps from both
 * programs share one time base.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "cache/three_c.h"
#include "core/decstation.h"
#include "core/fetch_config.h"
#include "serve/catalog.h"
#include "serve/client.h"
#include "sim/bench_report.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "sim/tapeworm.h"
#include "stats/report.h"
#include "tlb/tlb.h"
#include "trace/stream.h"
#include "vm/address_space.h"
#include "workload/ibs.h"
#include "workload/model.h"
#include "workload/run_stream.h"

namespace {

using namespace ibs;

double
monotonicSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * In-memory span recorder: every span keeps its parent, and nothing
 * is written until the probe ends. Single-threaded (the layers mode
 * makes its calls one after another).
 */
class Spans
{
  public:
    /** Open on construction, close on destruction. */
    class Scope
    {
      public:
        Scope(Spans &spans, std::string name, std::string layer)
            : spans_(spans), index_(spans.open(std::move(name),
                                               std::move(layer)))
        {}
        ~Scope() { spans_.close(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Seconds since this span opened. */
        double
        seconds() const
        {
            return monotonicSeconds() - spans_.spans_[index_].start;
        }

      private:
        Spans &spans_;
        size_t index_;
    };

    Json
    toJson() const
    {
        Json out = Json::array();
        for (const Span &s : spans_) {
            out.push(Json::object()
                         .set("id", Json::number(s.id))
                         .set("parent", Json::number(s.parent))
                         .set("name", Json::string(s.name))
                         .set("layer", Json::string(s.layer))
                         .set("start", Json::number(s.start))
                         .set("end", Json::number(s.end)));
        }
        return out;
    }

  private:
    struct Span
    {
        uint64_t id = 0;
        uint64_t parent = 0; ///< 0: the probe process itself.
        std::string name;
        std::string layer;
        double start = 0;
        double end = 0;
    };

    size_t
    open(std::string name, std::string layer)
    {
        Span s;
        s.id = spans_.size() + 1;
        s.parent = open_.empty() ? 0 : spans_[open_.back()].id;
        s.name = std::move(name);
        s.layer = std::move(layer);
        s.start = monotonicSeconds();
        spans_.push_back(std::move(s));
        open_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(size_t index)
    {
        spans_[index].end = monotonicSeconds();
        open_.pop_back();
    }

    std::vector<Span> spans_;
    std::vector<size_t> open_;
};

/** Per-layer metrics in the order they were measured. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const std::string &unit)
    {
        out_.set(name, Json::object()
                           .set("value", Json::number(value))
                           .set("unit", Json::string(unit)));
    }

    const Json &json() const { return out_; }

  private:
    Json out_ = Json::object();
};

double
per(double seconds, uint64_t count, double scale)
{
    return count ? seconds * scale / static_cast<double>(count) : 0.0;
}

// Lengths of the paper benches whose call sites each section mirrors.
constexpr uint64_t kTapewormInstr = 600'000;  // fig5_variability
constexpr uint64_t kTlbInstr = 500'000;       // ablation_tlb
constexpr uint64_t kDecstationInstr = 800'000; // table3_ibs_decstation
constexpr uint64_t kSweepInstr = 1'500'000;   // runSweep benches

/**
 * The Tapeworm trial of fig5 and the 3C pass of fig1, split into
 * their layer calls: generate the Mach suite's instruction stream
 * (WorkloadModel::next), translate it (MemoryMap::translate), probe
 * the physical addresses in an 8-KB direct-mapped and an 8-way cache
 * (Cache::access), and classify the virtual stream
 * (ThreeCClassifier::access).
 */
void
probeTapewormLayers(const std::vector<WorkloadSpec> &suite,
                    Spans &spans, Metrics &metrics)
{
    const CacheConfig dm{8 * 1024, 1, 32, Replacement::LRU};
    const CacheConfig way8{8 * 1024, 8, 32, Replacement::LRU};
    double next_s = 0, translate_s = 0, dm_s = 0, way8_s = 0,
           three_c_s = 0;
    uint64_t records = 0, faults = 0, dm_hits = 0;

    Spans::Scope trial(spans, "tapeworm trial (Mach suite)", "sim");
    for (const WorkloadSpec &spec : suite) {
        std::vector<TraceRecord> trace;
        trace.reserve(kTapewormInstr);
        {
            Spans::Scope s(spans, "WorkloadModel::next " + spec.name,
                           "workload");
            WorkloadModel model(spec);
            TraceRecord rec;
            while (trace.size() < kTapewormInstr && model.next(rec)) {
                if (rec.isInstr())
                    trace.push_back(rec);
            }
            next_s += s.seconds();
        }
        records += trace.size();

        std::vector<uint64_t> paddrs(trace.size());
        {
            Spans::Scope s(spans, "MemoryMap::translate " + spec.name,
                           "vm");
            MemoryMap map(makeAllocator(PagePolicy::Random, 16384,
                                        dm.colors(), 0x7a9e));
            for (size_t i = 0; i < trace.size(); ++i)
                paddrs[i] = map.translate(trace[i].asid,
                                          trace[i].vaddr);
            translate_s += s.seconds();
            faults += map.pageFaults();
        }
        {
            Spans::Scope s(spans, "Cache::access dm8k " + spec.name,
                           "cache");
            Cache cache(dm);
            for (uint64_t paddr : paddrs)
                dm_hits += cache.access(paddr) ? 1 : 0;
            dm_s += s.seconds();
        }
        {
            Spans::Scope s(spans, "Cache::access 8way " + spec.name,
                           "cache");
            Cache cache(way8);
            for (uint64_t paddr : paddrs)
                cache.access(paddr);
            way8_s += s.seconds();
        }
        {
            Spans::Scope s(spans, "ThreeCClassifier::access " + spec.name,
                           "cache");
            ThreeCClassifier classifier(8 * 1024, 32, 1, 8);
            for (const TraceRecord &rec : trace)
                classifier.access(rec.vaddr);
            three_c_s += s.seconds();
        }
    }
    metrics.set("workload.next.ns", per(next_s, records, 1e9),
                "ns");
    metrics.set("workload.next.records", static_cast<double>(records),
                "count");
    metrics.set("vm.translate.ns", per(translate_s, records, 1e9), "ns");
    metrics.set("vm.page_faults", static_cast<double>(faults), "count");
    metrics.set("cache.access.dm8k.ns", per(dm_s, records, 1e9), "ns");
    metrics.set("cache.access.8way.ns", per(way8_s, records, 1e9), "ns");
    metrics.set("cache.hit_ratio",
                records ? static_cast<double>(dm_hits) /
                              static_cast<double>(records)
                        : 0.0,
                "ratio");
    metrics.set("cache.three_c.ns", per(three_c_s, records, 1e9), "ns");
}

/**
 * The I+D loops of ablation_tlb and table3: generate the Mach suite
 * with data references, probe a 64-entry 4-way and fully associative
 * TLB (Tlb::access), and run the DECstation model over the same
 * records (DecstationModel::run).
 */
void
probeDataLayers(const std::vector<WorkloadSpec> &suite, Spans &spans,
                Metrics &metrics)
{
    double next_s = 0, way4_s = 0, full_s = 0, dec_s = 0;
    uint64_t records = 0, full_misses = 0, dec_refs = 0;
    Spans::Scope loop(spans, "I+D loop (Mach suite)", "perfbench");
    for (WorkloadSpec spec : suite) {
        spec.data.enabled = true;
        std::vector<TraceRecord> trace;
        {
            Spans::Scope s(spans, "WorkloadModel::next I+D " + spec.name,
                           "workload");
            WorkloadModel model(spec);
            TraceRecord rec;
            uint64_t instr = 0;
            while (instr < kDecstationInstr && model.next(rec)) {
                instr += rec.isInstr() ? 1 : 0;
                trace.push_back(rec);
            }
            next_s += s.seconds();
        }
        // ablation_tlb stops at its own, shorter length.
        size_t tlb_records = 0;
        for (uint64_t instr = 0;
             tlb_records < trace.size() && instr < kTlbInstr;
             ++tlb_records)
            instr += trace[tlb_records].isInstr() ? 1 : 0;
        records += tlb_records;
        for (const uint32_t assoc : {4u, 64u}) {
            Spans::Scope s(spans,
                           "Tlb::access 64e/" + std::to_string(assoc) +
                               " " + spec.name,
                           "tlb");
            Tlb tlb(TlbConfig{64, assoc, Replacement::LRU, true});
            for (size_t i = 0; i < tlb_records; ++i)
                tlb.access(trace[i].asid, trace[i].vaddr);
            (assoc == 4 ? way4_s : full_s) += s.seconds();
            if (assoc == 64)
                full_misses += tlb.misses();
        }
        {
            dec_refs += trace.size();
            Spans::Scope s(spans, "DecstationModel::run " + spec.name,
                           "core");
            VectorTraceStream stream(std::move(trace));
            DecstationModel machine;
            machine.run(stream, kDecstationInstr);
            dec_s += s.seconds();
        }
    }
    metrics.set("workload.next_id.ns", per(next_s, dec_refs, 1e9), "ns");
    metrics.set("tlb.access.4way.ns", per(way4_s, records, 1e9), "ns");
    metrics.set("tlb.access.full.ns", per(full_s, records, 1e9), "ns");
    metrics.set("tlb.miss_ratio",
                records ? static_cast<double>(full_misses) /
                              static_cast<double>(records)
                        : 0.0,
                "ratio");
    metrics.set("core.decstation.ns_per_ref", per(dec_s, dec_refs, 1e9),
                "ns");
}

/**
 * The replay substrate of the runSweep benches and the server:
 * streaming run generation (RunStream), the run-trace and miss-stream
 * memos of SuiteTraces (cold), runOne per serve catalog class
 * (FetchEngine::fetchRun underneath), runSweep on the fig4 grid, and
 * one runTapeworm call as fig5 makes it.
 */
void
probeReplayLayers(const std::vector<WorkloadSpec> &suite, Spans &spans,
                  Metrics &metrics)
{
    const FetchConfig economy = economyBaseline();
    const uint32_t line = economy.l1.lineBytes;
    {
        uint64_t instr = 0;
        Spans::Scope s(spans, "RunStream::next (Mach suite)", "workload");
        for (const WorkloadSpec &spec : suite) {
            WorkloadModel model(spec);
            RunStream stream(model, line, kSweepInstr);
            FetchRun run;
            while (stream.next(run)) {
            }
            instr += stream.instructions();
        }
        metrics.set("workload.run_stream.ns_per_instr",
                    per(s.seconds(), instr, 1e9), "ns");
    }

    SuiteTraces traces(suite, kSweepInstr);
    uint64_t runs = 0, instr = 0;
    {
        Spans::Scope s(spans, "SuiteTraces::runTrace (cold)", "trace");
        for (size_t i = 0; i < traces.count(); ++i) {
            const RunTrace &trace = traces.runTrace(i, line);
            runs += trace.runs.size();
            instr += trace.instructions;
        }
        metrics.set("trace.run_trace.build_s", s.seconds(), "s");
    }
    metrics.set("trace.runs_per_kinstr",
                instr ? 1000.0 * static_cast<double>(runs) /
                            static_cast<double>(instr)
                      : 0.0,
                "count");
    {
        const FetchConfig l2 = withOnChipL2(economy, 64 * 1024, 64, 8);
        Spans::Scope s(spans, "SuiteTraces::missStream (cold)", "sim");
        for (size_t i = 0; i < traces.count(); ++i)
            traces.missStream(i, l2);
        metrics.set("sim.miss_stream.build_s", s.seconds(), "s");
    }
    {
        // Build every line size first, so runOne times replay only.
        for (const serve::ConfigClass &c : serve::configClasses()) {
            for (size_t i = 0; i < traces.count(); ++i)
                traces.runTrace(i, c.config.l1.lineBytes);
        }
        uint64_t replayed = 0;
        Spans::Scope s(spans, "SuiteTraces::runOne (catalog)", "core");
        for (const serve::ConfigClass &c : serve::configClasses()) {
            Spans::Scope cls(spans, "runOne " + c.name, "core");
            for (size_t i = 0; i < traces.count(); ++i)
                replayed += traces.runOne(i, c.config).instructions;
        }
        metrics.set("core.fetch_run.ns_per_instr",
                    per(s.seconds(), replayed, 1e9), "ns");
    }
    {
        std::vector<FetchConfig> grid;
        for (uint32_t assoc : {1u, 2u, 4u, 8u}) {
            grid.push_back(
                withOnChipL2(economy, 64 * 1024, 64, assoc));
            grid.push_back(
                withOnChipL2(highPerfBaseline(), 64 * 1024, 64, assoc));
        }
        Spans::Scope s(spans, "runSweep (fig4 grid)", "sim");
        const SweepResult result = runSweep(traces, grid);
        metrics.set("sim.sweep.fig4_grid_s", s.seconds(), "s");
        if (result.configCount() != grid.size())
            throw std::logic_error("runSweep returned a short grid");
    }
    {
        TapewormConfig config;
        config.instructions = kTapewormInstr;
        Spans::Scope s(spans, "runTapeworm " + suite.front().name, "sim");
        runTapeworm(suite.front(), config);
        metrics.set("sim.tapeworm.trial_s",
                    s.seconds() / static_cast<double>(config.trials), "s");
    }
}

int
runLayers(const std::string &out_path)
{
    Spans spans;
    Metrics metrics;
    const std::vector<WorkloadSpec> mach = ibsSuite(OsType::Mach);
    probeTapewormLayers(mach, spans, metrics);
    probeDataLayers(mach, spans, metrics);
    probeReplayLayers(mach, spans, metrics);

    std::ofstream out(out_path);
    out << Json::object()
               .set("metrics", metrics.json())
               .set("spans", spans.toJson())
               .dump(0)
        << "\n";
    return out ? 0 : 1;
}

// ---------------------------------------------------------------------
// Sweep requests: shared by the serve and reference modes.

struct Request
{
    std::string suite;
    std::vector<std::string> configs;
    std::vector<std::string> workloads; ///< Empty: the whole suite.
    uint64_t instructions = 0;
};

std::vector<std::string>
strings(const Json &array)
{
    std::vector<std::string> out;
    for (size_t i = 0; i < array.size(); ++i)
        out.push_back(array.at(i).asString());
    return out;
}

std::vector<Request>
readPlan(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read plan " + path);
    std::vector<Request> plan;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const Json j = Json::parse(line);
        Request r;
        r.suite = j.at("suite").asString();
        r.configs = strings(j.at("configs"));
        r.workloads = strings(j.at("workloads"));
        r.instructions =
            static_cast<uint64_t>(j.at("instructions").asNumber());
        plan.push_back(std::move(r));
    }
    return plan;
}

std::string
cellKey(const std::string &suite, const std::string &workload,
        const std::string &config, uint64_t instructions)
{
    return suite + "|" + workload + "|" + config + "|" +
           std::to_string(instructions);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Exact comparison of a cell's stats with its reference: the same
 *  members, each with the same value. */
bool
sameStats(const Json &got, const Json &want)
{
    if (!got.isObject() || got.size() != want.size())
        return false;
    for (const auto &[name, value] : want.members()) {
        const Json *g = got.find(name);
        if (!g || !g->isNumber() || g->asNumber() != value.asNumber())
            return false;
    }
    return true;
}

int
runReference(const std::string &plan_path, const std::string &out_path)
{
    // Distinct (suite, instructions) -> configs used with it.
    std::map<std::pair<std::string, uint64_t>, std::set<std::string>>
        keys;
    for (const Request &r : readPlan(plan_path)) {
        if (!r.workloads.empty())
            throw std::runtime_error(
                "reference: plans name whole suites only");
        keys[{r.suite, r.instructions}].insert(r.configs.begin(),
                                               r.configs.end());
    }
    Json cells = Json::object();
    for (const auto &[key, configs] : keys) {
        const std::vector<WorkloadSpec> specs =
            serve::suiteByName(key.first);
        if (specs.empty())
            throw std::runtime_error("unknown suite " + key.first);
        SuiteTraces traces(specs, key.second);
        for (const std::string &name : configs) {
            const FetchConfig *config = serve::findConfigClass(name);
            if (!config)
                throw std::runtime_error("unknown config " + name);
            for (size_t i = 0; i < traces.count(); ++i)
                cells.set(cellKey(key.first, traces.name(i), name,
                                  key.second),
                          toJson(traces.runOne(i, *config)));
        }
    }
    std::ofstream out(out_path);
    out << cells.dump(1) << "\n";
    return out ? 0 : 1;
}

/** What the client saw for one request. */
struct Outcome
{
    bool attempted = false;
    bool ok = false;
    int errorCode = 0;
    bool memoHit = false;
    uint64_t badCells = 0;
    uint64_t bytes = 0; ///< Cell-frame payload bytes received.
    double start = 0;   ///< Monotonic seconds at send.
    double end = 0;     ///< Monotonic seconds at the "done" frame.
    double serverSeconds = 0;
    std::string error;
};

Outcome
sendOne(serve::Client &client, const Request &r, size_t index,
        const Json &reference)
{
    Outcome o;
    o.attempted = true;
    o.start = monotonicSeconds();
    const serve::Client::SweepResult result =
        client.sweep(r.suite, r.configs, r.workloads, r.instructions,
                     "pb-" + std::to_string(index));
    o.end = monotonicSeconds();
    o.ok = result.ok;
    o.errorCode = result.errorCode;
    o.memoHit = result.memoHit;
    o.serverSeconds = result.wallSeconds;
    if (!result.ok) {
        o.error = "error frame " + std::to_string(result.errorCode) +
                  ": " + result.errorMessage;
        return o;
    }
    const size_t workloads = r.workloads.empty()
        ? serve::suiteByName(r.suite).size()
        : r.workloads.size();
    if (result.cells.size() != r.configs.size() * workloads) {
        o.badCells = 1;
        o.error = std::to_string(result.cells.size()) + " cells for " +
                  std::to_string(r.configs.size() * workloads) +
                  " requested";
    }
    for (const Json &cell : result.cells) {
        o.bytes += cell.dump(0).size() + 4;
        const std::string key =
            cellKey(r.suite, cell.at("workload").asString(),
                    cell.at("config").asString(), r.instructions);
        const Json *want = reference.find(key);
        if (!want || !sameStats(cell.at("stats"), *want)) {
            ++o.badCells;
            o.error = "stats differ from reference for " + key;
        }
    }
    return o;
}

/**
 * One connection's closed loop: take the next unsent request, wait
 * for its "done" (or error) frame, repeat. A transport error fails
 * that request and reconnects for the next one.
 */
void
clientLoop(uint16_t port, const std::vector<Request> &plan,
           const Json &reference, std::atomic<size_t> &next,
           std::vector<Outcome> &outcomes)
{
    serve::Client client;
    for (size_t i = next.fetch_add(1); i < plan.size();
         i = next.fetch_add(1)) {
        try {
            if (!client.connected())
                client.connect(port);
            outcomes[i] = sendOne(client, plan[i], i, reference);
        } catch (const std::exception &e) {
            outcomes[i].attempted = true;
            outcomes[i].ok = false;
            outcomes[i].end = monotonicSeconds();
            outcomes[i].error = std::string("transport: ") + e.what();
            client.close();
        }
    }
}

int
runServe(uint16_t port, const std::string &plan_path,
         const std::string &reference_path, unsigned connections,
         const std::string &out_path)
{
    const std::vector<Request> plan = readPlan(plan_path);
    const Json reference = Json::parse(readFile(reference_path));
    std::vector<Outcome> outcomes(plan.size());
    std::atomic<size_t> next{0};
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < connections; ++c)
        threads.emplace_back([&] {
            clientLoop(port, plan, reference, next, outcomes);
        });
    for (std::thread &t : threads)
        t.join();

    std::ofstream out(out_path);
    char line[256];
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const Outcome &o = outcomes[i];
        std::snprintf(line, sizeof(line),
                      "req %zu %d %d %d %llu %llu %.9f %.9f %.9f\n", i,
                      o.attempted && o.ok && o.badCells == 0 ? 1 : 0,
                      o.errorCode, o.memoHit ? 1 : 0,
                      static_cast<unsigned long long>(o.badCells),
                      static_cast<unsigned long long>(o.bytes), o.start,
                      o.end, o.serverSeconds);
        out << line;
        if (!o.error.empty())
            std::fprintf(stderr, "perfbench_probe: request %zu (%s): %s\n",
                         i, plan[i].suite.c_str(), o.error.c_str());
    }
    // The server's own view, after the loop: memo and admission.
    try {
        serve::Client client(port);
        out << "stats " << client.stats().dump(0) << "\n";
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_probe: stats: %s\n", e.what());
    }
    return out ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_probe layers OUT\n"
                 "       perfbench_probe serve PORT PLAN REFERENCE "
                 "CONNECTIONS OUT\n"
                 "       perfbench_probe reference PLAN OUT\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 2 && args[0] == "layers")
            return runLayers(args[1]);
        if (args.size() == 6 && args[0] == "serve")
            return runServe(static_cast<uint16_t>(std::stoul(args[1])),
                            args[2], args[3],
                            static_cast<unsigned>(std::stoul(args[4])),
                            args[5]);
        if (args.size() == 3 && args[0] == "reference")
            return runReference(args[1], args[2]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_probe: %s\n", e.what());
        return 1;
    }
    return usage();
}
