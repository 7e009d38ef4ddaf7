/**
 * @file
 * runCells: the paper benches' ordered fan-out of independent cells.
 *
 * A table or figure bench is a list of independent (workload, config)
 * cells followed by a fold — report cells, table rows, floating-point
 * suite sums — whose order fixes stdout and the BENCH report byte for
 * byte. runCells runs the cells on the shared pool (sim/parallel.h)
 * with sweepThreads() participants, times each one inside its own
 * obs::ScopedTimer span, and returns every result with its wall time
 * in index order. The caller then folds them serially, so the output
 * is the serial loop's at any thread count by construction.
 */

#ifndef IBS_SIM_CELLS_H
#define IBS_SIM_CELLS_H

#include <cstddef>
#include <type_traits>
#include <vector>

#include "obs/timer.h"
#include "sim/parallel.h"
#include "sim/sweep.h"

namespace ibs {

/** One cell's result and the wall seconds it took. */
template <typename R>
struct Cell
{
    R result{};
    double seconds = 0.0;
};

/**
 * Run `fn(i)` for every i in [0, count) on the shared pool.
 *
 * @param count number of cells
 * @param name_of span name of cell i (called on the running thread)
 * @param fn cell i's work; must touch only state owned by cell i
 *        (the sim/parallel.h contract) and return a default-
 *        constructible, move-assignable result
 * @return one Cell per index, in index order
 * @throws the first exception thrown by any cell
 */
template <typename NameOf, typename Fn>
auto
runCells(size_t count, const NameOf &name_of, const Fn &fn)
{
    using R = std::decay_t<std::invoke_result_t<const Fn &, size_t>>;
    std::vector<Cell<R>> cells(count);
    parallelFor(count, sweepThreads(), [&](size_t i) {
        obs::ScopedTimer timer(name_of(i));
        cells[i].result = fn(i);
        timer.stop();
        cells[i].seconds = timer.seconds();
    });
    return cells;
}

} // namespace ibs

#endif // IBS_SIM_CELLS_H
