/**
 * @file
 * The two benchmark workloads. Each returns the run's metrics: the
 * end-to-end set when untraced, the per-layer set when traced. Every
 * workload reports every metric name of its set; a layer a workload does
 * not run reports 0 there.
 */
#ifndef BXTBENCH_BENCH_WORKLOADS_H
#define BXTBENCH_BENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace bxtbench {

/** Command-line settings shared by the workloads. */
struct BenchOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string bxtdPath; ///< The bxtd binary the serving workloads spawn.
    /**
     * CPU plan: cpus[0] runs bxtd; the loader uses the next (at most
     * three) CPUs, never bxtd's when there are two or more.
     */
    std::vector<int> cpus;
    int serverCpu() const { return cpus.front(); }
    std::vector<int> loaderCpus() const;
};

RunResult runServeHot(const BenchOptions &options);
RunResult runServeMixed(const BenchOptions &options);

/** Names of the end-to-end and per-layer metric sets, with units. */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/**
 * Fill every metric of @p names that @p result lacks with 0 (a layer the
 * workload does not run) and order them as listed.
 */
void completeMetrics(RunResult &result,
                     const std::vector<std::pair<std::string, std::string>>
                         &names);

/** Socket-free check of the serving oracle, incl. an injected mismatch. */
bool selfTestServingOracle(std::string &report);

} // namespace bxtbench

#endif // BXTBENCH_BENCH_WORKLOADS_H
