#include "harness.h"

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/json.h"
#include "telemetry/metrics.h"

namespace bxtbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Percentile
percentile(std::vector<double> values, double q)
{
    Percentile out;
    out.samples = values.size();
    if (values.empty())
        return out;
    std::sort(values.begin(), values.end());
    // Nearest rank: the smallest sample with at least q*n samples at or
    // below it.
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    out.value = values[std::min(index, values.size() - 1)];
    return out;
}

bool
parseSnapshot(const std::string &json, Snapshot &out, std::string &err)
{
    bxt::JsonValue root;
    if (!bxt::parseJson(json, root, &err))
        return false;
    const bxt::JsonValue *uptime = root.find("uptime_us");
    const bxt::JsonValue *metrics = root.find("metrics");
    if (uptime == nullptr || !uptime->isNumber() || metrics == nullptr) {
        err = "snapshot lacks uptime_us or metrics";
        return false;
    }
    out = Snapshot{};
    out.uptimeUs = uptime->number;
    if (const bxt::JsonValue *counters = metrics->find("counters")) {
        for (const auto &[name, value] : counters->object)
            out.counters[name] = value.number;
    }
    if (const bxt::JsonValue *histos = metrics->find("histograms")) {
        for (const auto &[name, histo] : histos->object) {
            auto &buckets = out.histograms[name];
            const bxt::JsonValue *pairs = histo.find("buckets");
            if (pairs == nullptr)
                continue;
            for (const bxt::JsonValue &pair : pairs->array) {
                if (pair.array.size() != 2)
                    continue;
                buckets[static_cast<std::size_t>(pair.array[0].number)] =
                    static_cast<std::uint64_t>(pair.array[1].number);
            }
        }
    }
    return true;
}

double
counterDelta(const Snapshot &earlier, const Snapshot &later,
             const std::string &name)
{
    const auto value = [&](const Snapshot &s) {
        const auto it = s.counters.find(name);
        return it == s.counters.end() ? 0.0 : it->second;
    };
    return value(later) - value(earlier);
}

double
snapshotRate(const Snapshot &earlier, const Snapshot &later,
             const std::vector<std::string> &counters)
{
    const double seconds = (later.uptimeUs - earlier.uptimeUs) / 1e6;
    if (seconds <= 0.0)
        return 0.0;
    double sum = 0.0;
    for (const std::string &name : counters)
        sum += counterDelta(earlier, later, name);
    return sum / seconds;
}

Percentile
histogramDeltaQuantile(const Snapshot &earlier, const Snapshot &later,
                       const std::string &name, double q)
{
    Percentile out;
    const auto it = later.histograms.find(name);
    if (it == later.histograms.end())
        return out;
    static const std::map<std::size_t, std::uint64_t> none;
    const auto before = earlier.histograms.find(name);
    const auto &base =
        before == earlier.histograms.end() ? none : before->second;
    std::map<std::size_t, std::uint64_t> delta;
    for (const auto &[bucket, count] : it->second) {
        const auto prior = base.find(bucket);
        const std::uint64_t had = prior == base.end() ? 0 : prior->second;
        if (count > had)
            delta[bucket] = count - had;
    }
    std::uint64_t total = 0;
    for (const auto &[bucket, count] : delta)
        total += count;
    out.samples = static_cast<std::size_t>(total);
    if (total == 0)
        return out;
    // Same rank rule as telemetry::Histo::quantile, over the delta.
    const double target =
        std::max(1.0, q * static_cast<double>(total));
    std::uint64_t cum = 0;
    for (const auto &[bucket, count] : delta) {
        if (static_cast<double>(cum + count) >= target) {
            const double lo = static_cast<double>(
                bxt::telemetry::Histo::bucketLowerBound(bucket));
            const double width = static_cast<double>(
                bxt::telemetry::Histo::bucketWidth(bucket));
            // Samples are integers, so a bucket holds lo .. lo+width-1.
            out.value = lo + (width - 1.0) *
                                 (target - static_cast<double>(cum) - 1.0) /
                                 static_cast<double>(count);
            return out;
        }
        cum += count;
    }
    return out;
}

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set))
            cpus.push_back(cpu);
    }
    return cpus;
}

bool
pinThisThread(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof(set), &set) == 0;
}

double
peakRssMb(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // Reported in kB.
    }
    return -1.0;
}

namespace {

/** Field @p field (0-based) of schedstat, summed over @p pid's threads. */
double
schedstatSum(int pid, int field)
{
    const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
    DIR *dir = opendir(tasks.c_str());
    if (dir == nullptr)
        return -1.0;
    double sum = 0.0;
    while (const dirent *entry = readdir(dir)) {
        if (entry->d_name[0] == '.')
            continue;
        std::ifstream in(tasks + "/" + entry->d_name + "/schedstat");
        double value = 0.0;
        int read = 0;
        while (read <= field && in >> value)
            ++read;
        if (read == field + 1)
            sum += value;
    }
    closedir(dir);
    return sum;
}

} // namespace

double
processCpuSeconds(int pid)
{
    // On-CPU nanoseconds, finer than the clock ticks of /proc/<pid>/stat.
    const double ns = schedstatSum(pid, 0);
    return ns < 0.0 ? -1.0 : ns / 1e9;
}

double
runQueueWaitSeconds(int pid)
{
    const double ns = schedstatSum(pid, 1);
    return ns < 0.0 ? -1.0 : ns / 1e9;
}

double
stealSeconds(const std::vector<int> &cpus)
{
    // "cpuN user nice system idle iowait irq softirq steal ..." in ticks.
    std::ifstream in("/proc/stat");
    std::string line;
    double ticks = 0.0;
    while (std::getline(in, line)) {
        int cpu = -1;
        double field[8] = {};
        if (std::sscanf(line.c_str(),
                        "cpu%d %lf %lf %lf %lf %lf %lf %lf %lf", &cpu,
                        &field[0], &field[1], &field[2], &field[3],
                        &field[4], &field[5], &field[6], &field[7]) != 9)
            continue;
        if (std::find(cpus.begin(), cpus.end(), cpu) != cpus.end())
            ticks += field[7];
    }
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::string
resultLine(const RunResult &result)
{
    bxt::JsonWriter w(false);
    w.beginObject();
    w.kv("correct", result.correct);
    w.kv("attempted", result.attempted);
    w.kv("failed", result.failed);
    w.beginObject("metrics");
    for (const Metric &m : result.metrics) {
        w.beginObject(m.name);
        w.kv("value", m.value);
        w.kv("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

std::string
recordLine(const RunResult &result, const std::string &workload,
           std::uint64_t seed, bool trace)
{
    bxt::JsonWriter w(false);
    w.beginObject();
    w.beginObject("record");
    w.kv("workload", workload);
    w.kv("seed", seed);
    w.kv("trace", trace);
    w.kv("correct", result.correct);
    w.kv("attempted", result.attempted);
    w.kv("failed", result.failed);
    w.beginObject("notes");
    for (const auto &[key, value] : result.notes)
        w.kv(key, value);
    w.endObject();
    w.beginObject("metrics");
    for (const Metric &m : result.metrics)
        w.kv(m.name, m.value);
    w.endObject();
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace bxtbench
