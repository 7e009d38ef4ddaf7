/**
 * @file
 * google-benchmark throughput harness for the simulation substrates
 * themselves: how fast the library simulates, which bounds how much
 * of the paper's parameter space a given time budget can sweep.
 *
 * Coverage, per config class of the fetch path:
 *  - raw tag lookups (Cache): direct-mapped vs set-associative, per
 *    replacement policy, plus the victim and sub-block variants;
 *  - full FetchEngine fetches/sec for each L1-L2 interface policy
 *    the paper evaluates (blocking baseline, on-chip L2, prefetch +
 *    bypass, pipelined L2 + stream buffer);
 *  - trace generation: the per-record random walk and fused
 *    streaming generate+replay;
 *  - the layers of the per-record drivers: address translation
 *    (MemoryMap), TLB lookups, and 3C classification per access vs
 *    per run.
 *
 * The trace length honours IBS_BENCH_INSTR (default 1M), so the
 * perf_smoke ctest can run the whole harness in well under a second.
 * Every measurement is also recorded as a BENCH_microbench.json cell
 * (fetches_per_second / items_per_second counters included), giving
 * the machine-readable reports a throughput baseline to diff across
 * commits.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "cache/subblock.h"
#include "cache/three_c.h"
#include "cache/victim.h"
#include "core/fetch_engine.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "obs/trace_sink.h"
#include "sim/bench_report.h"
#include "sim/runner.h"
#include "trace/run_trace.h"
#include "tlb/tlb.h"
#include "vm/address_space.h"
#include "workload/ibs.h"
#include "workload/model.h"
#include "workload/run_stream.h"

namespace {

using namespace ibs;

uint64_t
traceLength()
{
    return benchInstructions(1'000'000);
}

const std::vector<uint64_t> &
trace()
{
    static const std::vector<uint64_t> t = [] {
        std::vector<uint64_t> addrs;
        WorkloadModel model(makeIbs(IbsBenchmark::Gs, OsType::Mach));
        TraceRecord rec;
        while (addrs.size() < traceLength() && model.next(rec)) {
            if (rec.isInstr())
                addrs.push_back(rec.vaddr);
        }
        return addrs;
    }();
    return t;
}

/** Report the loop's per-iteration work as items/sec plus a named
 *  rate counter. */
void
setRate(benchmark::State &state, const char *counter)
{
    state.SetItemsProcessed(state.iterations());
    state.counters[counter] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}

/** Report the loop's per-iteration work as fetches/sec. */
void
setFetchRate(benchmark::State &state)
{
    setRate(state, "fetches_per_second");
}

void
BM_WorkloadGeneration(benchmark::State &state)
{
    const WorkloadSpec spec = makeIbs(IbsBenchmark::Gs, OsType::Mach);
    WorkloadModel model(spec);
    TraceRecord rec;
    for (auto _ : state) {
        model.next(rec);
        benchmark::DoNotOptimize(rec.vaddr);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorkloadGeneration);

/** I+D generation: WorkloadModel::next over a data-enabled spec, the
 *  per-record loop the DECstation tables and ablation_tlb pay. Items
 *  are records; instructions_per_second compares with the
 *  instruction-only cell above. */
void
BM_WorkloadGenerationData(benchmark::State &state)
{
    WorkloadSpec spec = makeIbs(IbsBenchmark::Gs, OsType::Mach);
    spec.data.enabled = true;
    WorkloadModel model(spec);
    TraceRecord rec;
    uint64_t instructions = 0;
    for (auto _ : state) {
        model.next(rec);
        instructions += rec.isInstr();
        benchmark::DoNotOptimize(rec.vaddr);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["instructions_per_second"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WorkloadGenerationData);

/** Raw tag-lookup throughput; ways:1 is the direct-mapped fast
 *  path, higher way counts exercise the set-associative probe. */
void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache(CacheConfig{
        static_cast<uint64_t>(state.range(0)) * 1024,
        static_cast<uint32_t>(state.range(1)), 32, Replacement::LRU});
    const auto &addrs = trace();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i]));
        i = i + 1 == addrs.size() ? 0 : i + 1;
    }
    setFetchRate(state);
}
BENCHMARK(BM_CacheAccess)
    ->ArgNames({"KB", "ways"})
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({64, 1})
    ->Args({64, 4})
    ->Args({64, 8});

void
BM_CacheAccessRandom(benchmark::State &state)
{
    Cache cache(CacheConfig{64 * 1024,
                            static_cast<uint32_t>(state.range(0)), 32,
                            Replacement::Random});
    const auto &addrs = trace();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i]));
        i = i + 1 == addrs.size() ? 0 : i + 1;
    }
    setFetchRate(state);
}
BENCHMARK(BM_CacheAccessRandom)->ArgNames({"ways"})->Arg(4);

void
BM_CacheAccessFifo(benchmark::State &state)
{
    Cache cache(CacheConfig{64 * 1024,
                            static_cast<uint32_t>(state.range(0)), 32,
                            Replacement::FIFO});
    const auto &addrs = trace();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i]));
        i = i + 1 == addrs.size() ? 0 : i + 1;
    }
    setFetchRate(state);
}
BENCHMARK(BM_CacheAccessFifo)->ArgNames({"ways"})->Arg(4);

void
BM_VictimCacheAccess(benchmark::State &state)
{
    VictimCache cache(CacheConfig{8 * 1024, 1, 32, Replacement::LRU},
                      4);
    const auto &addrs = trace();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i]));
        i = i + 1 == addrs.size() ? 0 : i + 1;
    }
    setFetchRate(state);
}
BENCHMARK(BM_VictimCacheAccess);

void
BM_SubBlockCacheAccess(benchmark::State &state)
{
    SubBlockCache cache(CacheConfig{8 * 1024, 1, 64, Replacement::LRU},
                        16);
    const auto &addrs = trace();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.access(addrs[i]).hit);
        i = i + 1 == addrs.size() ? 0 : i + 1;
    }
    setFetchRate(state);
}
BENCHMARK(BM_SubBlockCacheAccess);

/** Drive a FetchEngine over the shared trace. */
void
runEngine(benchmark::State &state, const FetchConfig &config)
{
    FetchEngine engine(config);
    const auto &addrs = trace();
    size_t i = 0;
    for (auto _ : state) {
        engine.fetch(addrs[i]);
        i = i + 1 == addrs.size() ? 0 : i + 1;
    }
    setFetchRate(state);
}

void
BM_FetchEngineBaseline(benchmark::State &state)
{
    runEngine(state, economyBaseline());
}
BENCHMARK(BM_FetchEngineBaseline);

void
BM_FetchEngineOnChipL2(benchmark::State &state)
{
    runEngine(state,
              withOnChipL2(economyBaseline(), 128 * 1024, 64, 2));
}
BENCHMARK(BM_FetchEngineOnChipL2);

void
BM_FetchEnginePrefetchBypass(benchmark::State &state)
{
    FetchConfig c = economyBaseline();
    c.l1.lineBytes = 16;
    c.prefetchLines = 3;
    c.bypass = true;
    runEngine(state, c);
}
BENCHMARK(BM_FetchEnginePrefetchBypass);

void
BM_FetchEngineStreamBuffer(benchmark::State &state)
{
    FetchConfig c;
    c.l1 = CacheConfig{8 * 1024, 1, 16, Replacement::LRU};
    c.l1Fill = MemoryTiming{6, 16};
    c.pipelined = true;
    c.streamBufferLines = 6;
    runEngine(state, c);
}
BENCHMARK(BM_FetchEngineStreamBuffer);

/** The common trace as runs at the baseline's L1 line size (built
 *  once, like SuiteTraces' memo). */
const RunTrace &
baselineRuns()
{
    static const RunTrace rt = [] {
        WorkloadModel model(makeIbs(IbsBenchmark::Gs, OsType::Mach));
        return generateRunTrace(model, economyBaseline().l1.lineBytes,
                                traceLength());
    }();
    return rt;
}

/**
 * The headline A/B of the run-length fetch path: one iteration is a
 * fresh FetchEngine (economy baseline) over the whole shared trace,
 * replayed either via fetchRun over the compressed runs (batched:1,
 * what SuiteTraces::runOne does) or via the scalar per-instruction
 * fetch() loop (batched:0, the tests' oracle). Identical work per
 * iteration, so fetches_per_second is directly comparable —
 * scripts/check_bench_json.sh compares the two cells, and the
 * EXPERIMENTS.md throughput table quotes them.
 */
void
BM_BatchedVsScalar(benchmark::State &state)
{
    const bool batched = state.range(0) != 0;
    const FetchConfig config = economyBaseline();
    const auto &addrs = trace();
    const RunTrace &runs = baselineRuns();
    for (auto _ : state) {
        FetchEngine engine(config);
        if (batched) {
            for (const FetchRun &run : runs.runs)
                engine.fetchRun(run);
        } else {
            for (uint64_t a : addrs)
                engine.fetch(a);
        }
        benchmark::DoNotOptimize(engine.stats().cycles);
    }
    const auto fetches =
        static_cast<uint64_t>(state.iterations()) * addrs.size();
    state.SetItemsProcessed(static_cast<int64_t>(fetches));
    state.counters["fetches_per_second"] = benchmark::Counter(
        static_cast<double>(fetches), benchmark::Counter::kIsRate);
    state.counters["instructions_per_run"] =
        runs.instructionsPerRun();
}
BENCHMARK(BM_BatchedVsScalar)
    ->ArgNames({"batched"})
    ->Arg(1)
    ->Arg(0)
    ->MinTime(0.25);

/**
 * The zero-materialization path end to end: one iteration generates
 * the workload from scratch and replays it through the economy
 * baseline, fused — WorkloadModel blocks flow through a RunStream
 * straight into fetchRun, with no flat vector and no stored
 * RunTrace, only the one in-flight FetchRun. fetches_per_second
 * therefore prices generation plus replay.
 */
void
BM_StreamedReplay(benchmark::State &state)
{
    const FetchConfig config = economyBaseline();
    const WorkloadSpec spec = makeIbs(IbsBenchmark::Gs, OsType::Mach);
    const uint64_t n = traceLength();
    uint64_t instrs = 0;
    for (auto _ : state) {
        FetchEngine engine(config);
        WorkloadModel model(spec);
        RunStream stream(model, config.l1.lineBytes, n);
        FetchRun run;
        while (stream.next(run))
            engine.fetchRun(run);
        instrs = stream.instructions();
        benchmark::DoNotOptimize(engine.stats().cycles);
    }
    const auto fetches =
        static_cast<uint64_t>(state.iterations()) * instrs;
    state.SetItemsProcessed(static_cast<int64_t>(fetches));
    state.counters["fetches_per_second"] = benchmark::Counter(
        static_cast<double>(fetches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_StreamedReplay)->MinTime(0.25);

/**
 * The vectorized set-associative tag probe (Cache::probeWays, used by
 * every lookup) on a 64-KB 8-way cache. All probes hit — the working
 * set exactly fills the cache — so this isolates probe cost from
 * allocation.
 */
void
BM_SimdProbe(benchmark::State &state)
{
    constexpr uint32_t kWays = 8;
    constexpr uint32_t kLine = 32;
    const CacheConfig cfg{64 * 1024, kWays, kLine, Replacement::LRU};
    Cache cache(cfg);
    const uint64_t lines = cfg.sizeBytes / kLine;
    // The first `lines` line addresses fill every way of every set
    // with no evictions.
    for (uint64_t i = 0; i < lines; ++i)
        cache.insert(i * kLine);
    uint64_t x = 0x9e3779b97f4a7c15ull; // xorshift64 probe sequence
    for (auto _ : state) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const uint64_t addr = (x & (lines - 1)) * kLine;
        benchmark::DoNotOptimize(cache.contains(addr));
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["probes_per_second"] = benchmark::Counter(
        static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimdProbe)->MinTime(0.25);

/** The shared workload's I+D reference stream, ASIDs included (what
 *  address translation and the TLB see), for traceLength()
 *  instructions. */
const std::vector<TraceRecord> &
referenceTrace()
{
    static const std::vector<TraceRecord> t = [] {
        WorkloadSpec spec = makeIbs(IbsBenchmark::Gs, OsType::Mach);
        spec.data.enabled = true;
        WorkloadModel model(spec);
        std::vector<TraceRecord> recs;
        TraceRecord rec;
        uint64_t instrs = 0;
        while (instrs < traceLength() && model.next(rec)) {
            instrs += rec.isInstr();
            recs.push_back(rec);
        }
        return recs;
    }();
    return t;
}

/** MemoryMap::translate under random page placement: the per-run
 *  translation of a Tapeworm trial. The map keeps its pages across
 *  passes, so after the first pass every call is a page-table hit,
 *  as nearly all of a trial's are. */
void
BM_Translate(benchmark::State &state)
{
    MemoryMap map(makeAllocator(PagePolicy::Random, 16384, 8, 1));
    const auto &recs = referenceTrace();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            map.translate(recs[i].asid, recs[i].vaddr));
        i = i + 1 == recs.size() ? 0 : i + 1;
    }
    setRate(state, "translations_per_second");
}
BENCHMARK(BM_Translate);

/** Tlb::access over the I+D stream: 4-way vs fully associative
 *  (ways == entries), the two shapes of the ablation_tlb grid. */
void
BM_TlbAccess(benchmark::State &state)
{
    Tlb tlb(TlbConfig{static_cast<uint32_t>(state.range(0)),
                      static_cast<uint32_t>(state.range(1)),
                      Replacement::LRU, true});
    const auto &recs = referenceTrace();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tlb.access(recs[i].asid, recs[i].vaddr));
        i = i + 1 == recs.size() ? 0 : i + 1;
    }
    setRate(state, "accesses_per_second");
}
BENCHMARK(BM_TlbAccess)
    ->ArgNames({"entries", "ways"})
    ->Args({64, 4})
    ->Args({64, 64});

/**
 * Figure 1's 3C classification (8-KB direct-mapped vs its 8-way
 * proxy) over the whole shared trace per iteration: one
 * ThreeCClassifier::access per instruction (run:0) or one accessRun
 * per 32-B run (run:1, what fig1_three_cs does). Identical work per
 * iteration, so fetches_per_second is directly comparable.
 */
void
BM_ThreeC(benchmark::State &state)
{
    const bool per_run = state.range(0) != 0;
    const auto &addrs = trace();
    const RunTrace &runs = baselineRuns();
    for (auto _ : state) {
        ThreeCClassifier classifier(8 * 1024, 32, 1, 8);
        if (per_run) {
            for (const FetchRun &run : runs.runs)
                classifier.accessRun(run.startVaddr, run.count);
        } else {
            for (uint64_t a : addrs)
                classifier.access(a);
        }
        benchmark::DoNotOptimize(classifier.breakdown().conflict);
    }
    const auto fetches =
        static_cast<uint64_t>(state.iterations()) * addrs.size();
    state.SetItemsProcessed(static_cast<int64_t>(fetches));
    state.counters["fetches_per_second"] = benchmark::Counter(
        static_cast<double>(fetches), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ThreeC)->ArgNames({"run"})->Arg(0)->Arg(1);

/**
 * Cost of the observability layer around a full-trace engine run,
 * in modes:
 *
 *   mode 0  plain loop, no obs constructs at all (the pre-obs shape)
 *   mode 1  ScopedTimer + publication gate, registry disabled
 *   mode 2  registry enabled, counters published per run
 *   mode 4  registry enabled, counters + a histogram observation
 *           per run (the sweep executor's sim.cell.instructions
 *           publication pattern)
 *
 * Cell mode:M/base:B measures M against B in pairs: each iteration
 * times one fresh-FetchEngine run over the whole shared trace in
 * each mode, back to back, alternating which goes first. A pair's
 * ratio is base time / mode time (M's rate relative to B's), and
 * median_ratio is the median over all pairs, so a frequency dip or
 * a noisy neighbour sinks single pairs, not the median. perf_smoke
 * hard-gates median_ratio >= 0.90 for mode:1/base:0 (the disabled
 * layer is supposed to be free) and mode:4/base:2 (one observe per
 * run is a handful of arithmetic ops).
 */
void
BM_ObsOverhead(benchmark::State &state)
{
    const int mode = static_cast<int>(state.range(0));
    const int base = static_cast<int>(state.range(1));
    obs::Registry &reg = obs::Registry::global();
    const bool was_enabled = reg.enabled();
    // Both modes of a cell agree on whether the registry is on.
    reg.setEnabled(mode >= 2);

    const FetchConfig config = economyBaseline();
    const auto &addrs = trace();
    auto timed_run = [&](int m) {
        const auto start = std::chrono::steady_clock::now();
        FetchEngine engine(config);
        if (m == 0) {
            for (uint64_t a : addrs)
                engine.fetch(a);
        } else {
            obs::ScopedTimer timer("obs_overhead", "microbench");
            for (uint64_t a : addrs)
                engine.fetch(a);
            timer.stop();
            if (reg.enabled()) {
                engine.publishCounters(reg);
                if (m == 4)
                    reg.observe("microbench.cell.instructions",
                                engine.stats().instructions);
            }
        }
        benchmark::DoNotOptimize(engine.stats().l1Misses);
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    timed_run(mode); // Warm-up, untimed.
    timed_run(base);
    std::vector<double> ratios;
    for (auto _ : state) {
        const bool mode_first = ratios.size() % 2 == 0;
        const double first = timed_run(mode_first ? mode : base);
        const double second = timed_run(mode_first ? base : mode);
        ratios.push_back(mode_first ? second / first : first / second);
        state.SetIterationTime(first + second);
    }
    const auto mid = ratios.begin() +
        static_cast<std::ptrdiff_t>(ratios.size() / 2);
    std::nth_element(ratios.begin(), mid, ratios.end());

    const auto fetches = static_cast<uint64_t>(state.iterations()) *
        2 * addrs.size();
    state.SetItemsProcessed(static_cast<int64_t>(fetches));
    state.counters["fetches_per_second"] = benchmark::Counter(
        static_cast<double>(fetches), benchmark::Counter::kIsRate);
    state.counters["pairs"] = static_cast<double>(ratios.size());
    state.counters["median_ratio"] = *mid;

    if (mode >= 2)
        reg.reset();
    reg.setEnabled(was_enabled);
}
BENCHMARK(BM_ObsOverhead)
    ->ArgNames({"mode", "base"})
    ->Args({1, 0})
    ->Args({4, 2})
    ->Iterations(25)
    ->UseManualTime();

/**
 * Forwards everything to the default console reporter (keeping the
 * usual google-benchmark output) while recording each measurement as
 * a BENCH_microbench.json cell. All user counters (fetches_per_second,
 * items_per_second, ...) are copied into the cell's stats object.
 */
class CapturingReporter : public benchmark::BenchmarkReporter
{
  public:
    CapturingReporter(benchmark::BenchmarkReporter *inner,
                      BenchReport &report)
        : inner_(inner), report_(report)
    {
    }

    bool
    ReportContext(const Context &context) override
    {
        return inner_->ReportContext(context);
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Iteration ||
                run.error_occurred)
                continue;
            Json stats = Json::object()
                .set("iterations",
                     Json::number(
                         static_cast<uint64_t>(run.iterations)))
                .set("real_time_seconds",
                     Json::number(run.real_accumulated_time))
                .set("cpu_time_seconds",
                     Json::number(run.cpu_accumulated_time));
            uint64_t items = run.iterations;
            for (const auto &[name, counter] : run.counters)
                stats.set(name, Json::number(counter.value));
            if (auto it = run.counters.find("items_per_second");
                it != run.counters.end()) {
                items = static_cast<uint64_t>(
                    it->second.value * run.real_accumulated_time);
            }
            report_.addCell(run.benchmark_name(), Json::object(),
                            std::move(stats),
                            run.real_accumulated_time, items,
                            "microbench");
        }
        inner_->ReportRuns(runs);
    }

    void Finalize() override { inner_->Finalize(); }

  private:
    benchmark::BenchmarkReporter *inner_;
    BenchReport &report_;
};

} // namespace

int
main(int argc, char **argv)
{
    ibs::BenchReport report("microbench");
    report.meta().set("trace_instructions",
                      ibs::Json::number(traceLength()));
    char arg0_default[] = "benchmark";
    char *args_default = arg0_default;
    if (!argv) {
        argc = 1;
        argv = &args_default;
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    std::unique_ptr<benchmark::BenchmarkReporter> console(
        benchmark::CreateDefaultDisplayReporter());
    CapturingReporter reporter(console.get(), report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    report.write();
    return 0;
}
