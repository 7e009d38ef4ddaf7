/**
 * @file
 * ThreadPool / parallelFor: worker reuse, exception semantics,
 * nesting, and scheduling-independence; runCells (sim/cells.h):
 * index order, participant-independence and one span per cell.
 *
 * The pool exists because the long-running simulation server issues
 * thousands of parallelFor loops per process; spawn-per-call would
 * churn a thread per cell per request. The reuse test pins that
 * property: repeated loops must execute on a stable set of worker
 * threads, not fresh ones each call.
 */

#include "sim/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace_sink.h"
#include "sim/cells.h"

namespace ibs {
namespace {

/** Distinct OS thread ids observed while running one loop. */
std::set<std::thread::id>
observedIds(ThreadPool &pool, size_t total, unsigned participants)
{
    std::mutex m;
    std::set<std::thread::id> ids;
    pool.parallelFor(
        total,
        [&](size_t) {
            // A short stall makes the caller yield items to the pool
            // workers instead of racing through the loop alone.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            std::lock_guard<std::mutex> lock(m);
            ids.insert(std::this_thread::get_id());
        },
        participants);
    return ids;
}

TEST(ThreadPool, ReusesTheSameWorkersAcrossCalls)
{
    ThreadPool pool(3);
    std::set<std::thread::id> all;
    for (int call = 0; call < 8; ++call) {
        const auto ids = observedIds(pool, 32, 4);
        all.insert(ids.begin(), ids.end());
    }
    // 8 spawn-per-call loops of 3 workers would show up to 24
    // distinct non-caller ids; a persistent pool shows at most
    // workerCount() plus the calling thread.
    EXPECT_LE(all.size(), pool.workerCount() + 1u);
    EXPECT_TRUE(all.count(std::this_thread::get_id()))
        << "the calling thread must participate in its own loop";
}

TEST(ThreadPool, SharedPoolIsStableAcrossParallelForCalls)
{
    std::set<std::thread::id> all;
    std::mutex m;
    for (int call = 0; call < 6; ++call) {
        parallelFor(24, 4, [&](size_t) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            std::lock_guard<std::mutex> lock(m);
            all.insert(std::this_thread::get_id());
        });
    }
    EXPECT_LE(all.size(), ThreadPool::shared().workerCount() + 1u);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce)
{
    ThreadPool pool(4);
    constexpr size_t TOTAL = 10'000;
    std::vector<std::atomic<int>> hits(TOTAL);
    pool.parallelFor(TOTAL, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < TOTAL; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

/** One-shot gate: wait() blocks until open(); open() is idempotent. */
class Gate
{
  public:
    void
    open()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            open_ = true;
        }
        cv_.notify_all();
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&] { return open_; });
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    bool open_ = false;
};

TEST(ThreadPool, FirstExceptionIsRethrownAndDrainsPromptly)
{
    // A fixed schedule on one worker W and the calling thread C, so
    // the count is exact. C parks inside its first item. W's first
    // item waits for that, starts a probe loop on a third thread and
    // throws. W's handler drains the cursor before W returns to the
    // pool, where the probe loop is the only work left; W's probe
    // item releases C. Every claim after the drain is past the end,
    // so C's parked item is the only one that completes.
    ThreadPool pool(1);
    constexpr size_t TOTAL = 100'000;
    const std::thread::id caller = std::this_thread::get_id();
    Gate parked, released;
    std::thread prober;
    std::atomic<size_t> executed{0};
    try {
        pool.parallelFor(
            TOTAL,
            [&](size_t) {
                if (std::this_thread::get_id() == caller) {
                    parked.open();
                    released.wait();
                    executed.fetch_add(1, std::memory_order_relaxed);
                    return;
                }
                parked.wait();
                prober = std::thread([&] {
                    const std::thread::id self =
                        std::this_thread::get_id();
                    pool.parallelFor(
                        2,
                        [&](size_t) {
                            if (std::this_thread::get_id() == self)
                                released.wait();
                            else
                                released.open();
                        },
                        2);
                });
                throw std::runtime_error("worker item");
            },
            2);
        ADD_FAILURE() << "the item's exception was not rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "worker item");
    }
    prober.join();
    EXPECT_EQ(executed.load(), 1u);
}

TEST(ThreadPool, PoolSurvivesAThrowingLoop)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(
                     8, [](size_t) { throw std::logic_error("boom"); }),
                 std::logic_error);
    std::atomic<size_t> ran{0};
    pool.parallelFor(64, [&](size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 64u);
}

TEST(ThreadPool, WrapperKeepsExceptionContract)
{
    EXPECT_THROW(parallelFor(16, 4,
                             [](size_t i) {
                                 if (i == 3)
                                     throw std::runtime_error("cell");
                             }),
                 std::runtime_error);
}

TEST(ThreadPool, NestedLoopsDoNotDeadlock)
{
    std::atomic<size_t> inner_total{0};
    parallelFor(4, 4, [&](size_t) {
        parallelFor(4, 4, [&](size_t) {
            inner_total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(inner_total.load(), 16u);
}

TEST(ThreadPool, ConcurrentLoopsFromManyThreadsAllComplete)
{
    // The server shape: several connection threads sharding work
    // onto one pool at once.
    constexpr int CALLERS = 6;
    constexpr size_t TOTAL = 500;
    std::vector<std::atomic<size_t>> counts(CALLERS);
    std::vector<std::thread> callers;
    for (int c = 0; c < CALLERS; ++c) {
        callers.emplace_back([&, c] {
            parallelFor(TOTAL, 4, [&, c](size_t) {
                counts[c].fetch_add(1, std::memory_order_relaxed);
            });
        });
    }
    for (auto &t : callers)
        t.join();
    for (int c = 0; c < CALLERS; ++c)
        EXPECT_EQ(counts[c].load(), TOTAL) << "caller " << c;
}

TEST(ThreadPool, ZeroWorkerPoolRunsOnCaller)
{
    ThreadPool pool(0);
    std::set<std::thread::id> ids;
    pool.parallelFor(16, [&](size_t) {
        ids.insert(std::this_thread::get_id());
    });
    ASSERT_EQ(ids.size(), 1u);
    EXPECT_EQ(*ids.begin(), std::this_thread::get_id());
}

/** Sets IBS_THREADS (runCells' participant cap) for one scope. */
class ThreadsEnv
{
  public:
    explicit ThreadsEnv(const char *value)
    {
        if (const char *old = std::getenv("IBS_THREADS"))
            old_ = old;
        setenv("IBS_THREADS", value, 1);
    }

    ~ThreadsEnv()
    {
        if (old_)
            setenv("IBS_THREADS", old_->c_str(), 1);
        else
            unsetenv("IBS_THREADS");
    }

  private:
    std::optional<std::string> old_;
};

TEST(RunCells, ResultsComeBackInIndexOrder)
{
    const ThreadsEnv env("4");
    // Earlier cells sleep longer, so on four participants they finish
    // after later ones; the results must still be in index order.
    constexpr size_t COUNT = 8;
    const auto cells = runCells(
        COUNT, [](size_t i) { return "cell " + std::to_string(i); },
        [](size_t i) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(2 * (COUNT - i)));
            return i * i;
        });
    ASSERT_EQ(cells.size(), COUNT);
    for (size_t i = 0; i < COUNT; ++i) {
        EXPECT_EQ(cells[i].result, i * i) << "cell " << i;
        EXPECT_GT(cells[i].seconds, 0.0) << "cell " << i;
    }
}

TEST(RunCells, ResultsAreIndependentOfParticipants)
{
    auto run = [](const char *threads) {
        const ThreadsEnv env(threads);
        const auto cells = runCells(
            64, [](size_t i) { return "cell " + std::to_string(i); },
            [](size_t i) {
                // A small item-owned computation: a few LCG steps.
                uint64_t x = i + 1;
                std::vector<uint64_t> trail;
                for (size_t k = 0; k <= i % 7; ++k) {
                    x = x * 6364136223846793005ULL +
                        1442695040888963407ULL;
                    trail.push_back(x >> 33);
                }
                return trail;
            });
        std::vector<std::vector<uint64_t>> results;
        for (const auto &cell : cells)
            results.push_back(cell.result);
        return results;
    };
    EXPECT_EQ(run("1"), run("4"));
}

TEST(RunCells, FirstExceptionIsRethrown)
{
    const ThreadsEnv env("4");
    EXPECT_THROW(runCells(
                     16, [](size_t) { return std::string("cell"); },
                     [](size_t i) {
                         if (i == 5)
                             throw std::runtime_error("cell 5");
                         return i;
                     }),
                 std::runtime_error);
}

TEST(RunCells, EmitsOneSpanPerCellWithItsName)
{
    const ThreadsEnv env("4");
    const std::string path = testing::TempDir() + "run_cells_trace.json";
    auto prev = obs::TraceEventSink::exchangeGlobal(
        std::make_unique<obs::TraceEventSink>(path));
    constexpr size_t COUNT = 12;
    runCells(
        COUNT, [](size_t i) { return "cell " + std::to_string(i); },
        [](size_t i) { return i; });
    auto sink = obs::TraceEventSink::exchangeGlobal(std::move(prev));

    std::map<std::string, int> spans;
    const Json doc = sink->build();
    const Json &events = doc.at("traceEvents");
    for (size_t e = 0; e < events.size(); ++e) {
        if (events.at(e).at("ph").asString() == "X")
            ++spans[events.at(e).at("name").asString()];
    }
    EXPECT_EQ(spans.size(), COUNT);
    for (size_t i = 0; i < COUNT; ++i)
        EXPECT_EQ(spans["cell " + std::to_string(i)], 1) << "cell " << i;
    sink.reset();
    std::remove(path.c_str());
}

} // namespace
} // namespace ibs
