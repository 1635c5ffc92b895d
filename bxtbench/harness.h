/**
 * @file
 * Shared pieces of the bxt_perfbench program: timing, sample statistics,
 * Snapshot deltas, CPU pinning, process memory, and the result record.
 * The pure helpers here are what `bxt_perfbench --self-test` checks.
 */
#ifndef BXTBENCH_HARNESS_H
#define BXTBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bxtbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
double secondsSince(Clock::time_point start);

/** Median of @p values (0 when empty); the input is copied. */
double median(std::vector<double> values);

/**
 * A quantile of a sample set together with the number of samples it was
 * taken from. The quantile uses the nearest-rank rule on the sorted
 * samples, so it is always one of the measured values.
 */
struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0;
};

/** Nearest-rank @p q quantile (q in [0, 1]) of @p values. */
Percentile percentile(std::vector<double> values, double q);

/** Counters and HDR histogram buckets of one parsed Snapshot document. */
struct Snapshot
{
    double uptimeUs = 0.0;
    std::map<std::string, double> counters;
    /** Histogram name -> (bucket index -> count). */
    std::map<std::string, std::map<std::size_t, std::uint64_t>> histograms;
};

/** Parse a bxtd Snapshot reply (`{"uptime_us":…,"metrics":{…}}`). */
bool parseSnapshot(const std::string &json, Snapshot &out, std::string &err);

/** Counter @p name in @p later minus the same counter in @p earlier. */
double counterDelta(const Snapshot &earlier, const Snapshot &later,
                    const std::string &name);

/**
 * Server-side rate between two snapshots: the summed delta of the named
 * counters over the uptime delta, per second. 0 when no time passed.
 */
double snapshotRate(const Snapshot &earlier, const Snapshot &later,
                    const std::vector<std::string> &counters);

/**
 * Quantile @p q of the samples a histogram gained between two snapshots,
 * interpolated within the HDR bucket the rank falls in (the server's own
 * bucket layout, telemetry::Histo). samples = the delta's total count.
 */
Percentile histogramDeltaQuantile(const Snapshot &earlier,
                                  const Snapshot &later,
                                  const std::string &name, double q);

/** CPUs this process may run on, ascending. */
std::vector<int> allowedCpus();

/** Pin the calling thread to @p cpu. */
bool pinThisThread(int cpu);

/** Peak resident set of process @p pid in MiB (VmHWM); -1 on error. */
double peakRssMb(int pid);

/** CPU seconds all threads of process @p pid have run; -1 on error. */
double processCpuSeconds(int pid);

/**
 * Seconds all threads of process @p pid spent runnable but waiting for a
 * CPU (the second schedstat field); -1 on error.
 */
double runQueueWaitSeconds(int pid);

/**
 * Seconds the hypervisor ran something else while the CPUs in @p cpus
 * wanted to run (the steal column of /proc/stat), summed; 0 where the
 * kernel does not report it.
 */
double stealSeconds(const std::vector<int> &cpus);

/** One metric in the result line. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Everything one run reports. The last line of standard output is
 * resultLine(); the record line before it carries the environment and
 * sample counts for later comparison.
 */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Free-form facts: sample counts, connections, CPU sets, ... */
    std::vector<std::pair<std::string, std::string>> notes;

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void note(const std::string &key, const std::string &value)
    {
        notes.emplace_back(key, value);
    }
    /** Count one operation; @p ok false counts it as failed. */
    void count(bool ok, std::uint64_t n = 1)
    {
        attempted += n;
        if (!ok)
            failed += n;
    }
};

/** `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. */
std::string resultLine(const RunResult &result);

/** `{"record":{workload, seed, trace, notes, metrics}}`. */
std::string recordLine(const RunResult &result, const std::string &workload,
                       std::uint64_t seed, bool trace);

} // namespace bxtbench

#endif // BXTBENCH_HARNESS_H
