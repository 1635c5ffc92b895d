/**
 * @file
 * bxt_perfbench: runs one benchmark workload and prints its result.
 *
 *   bxt_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *   bxt_perfbench --self-test
 *
 * The last line of standard output is the result object; the line
 * before it is a `{"record":…}` line with the environment and sample
 * counts, which run.py's compare mode reads back.
 */
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>

#include "bench_workloads.h"
#include "common/cli.h"
#include "core/simd/simd.h"

namespace bxtbench {

std::vector<int>
BenchOptions::loaderCpus() const
{
    if (cpus.size() < 2)
        return {cpus.front()};
    return std::vector<int>(cpus.begin() + 1,
                            cpus.begin() + std::min<std::size_t>(
                                               cpus.size(), 4));
}

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"throughput_tx_s", "tx/s"}, {"p50_us", "us"},
        {"p99_us", "us"},            {"ok_ratio", "ratio"},
        {"ones_removed_pct", "%"},   {"sim_energy_uj", "uJ"},
        {"setup_s", "s"},            {"peak_rss_mb", "MiB"},
    };
    return names;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        // Serving, live run.
        {"client.rtt_us", "us"},
        {"server.request_us_p50", "us"},
        {"server.request_us_p99", "us"},
        {"net.gap_us", "us"},
        {"shard.cpu_util", "ratio"},
        {"server.batch_size_p50", "count"},
        {"server.rejected_busy", "count"},
        {"server.errors", "count"},
        {"telemetry.snapshot_us", "us"},
        // Serving, socket-free replay.
        {"wire.crc_us", "us"},
        {"wire.parse_us", "us"},
        {"wire.serialize_us", "us"},
        {"service.handle_us", "us"},
        {"service.self_us", "us"},
        {"core.encode_us", "us"},
        {"core.decode_us", "us"},
        {"channel.transmit_ns_per_tx", "ns"},
        {"channel.ones", "count"},
        {"channel.toggles", "count"},
        {"adaptive.handle_us", "us"},
        {"adaptive.switches", "count"},
        {"wire.bytes_in", "B"},
        {"wire.bytes_out", "B"},
        {"core.tx_encoded", "count"},
        {"core.tx_decoded", "count"},
        {"workloads.pool_gen_s", "s"},
        // Every workload.
        {"trace.overhead_pct", "%"},
        {"trace.coverage", "ratio"},
    };
    return names;
}

void
completeMetrics(RunResult &result,
                const std::vector<std::pair<std::string, std::string>> &names)
{
    std::vector<Metric> ordered;
    for (const auto &[name, unit] : names) {
        Metric metric{name, 0.0, unit};
        for (const Metric &m : result.metrics) {
            if (m.name == name)
                metric.value = m.value;
        }
        ordered.push_back(metric);
    }
    result.metrics = std::move(ordered);
}

namespace {

std::string
cpuList(const std::vector<int> &cpus)
{
    std::string out;
    for (int cpu : cpus) {
        if (!out.empty())
            out += ',';
        out += std::to_string(cpu);
    }
    return out;
}

std::string
selfDir()
{
    char buf[PATH_MAX];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
    if (n <= 0)
        return ".";
    std::string path(buf, static_cast<std::size_t>(n));
    return path.substr(0, path.rfind('/'));
}

/** Self-tests of the pure helpers; returns the failure count. */
int
selfTest()
{
    int failures = 0;
    const auto expect = [&](bool ok, const std::string &what) {
        std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
        if (!ok)
            ++failures;
    };

    // Percentile: nearest rank over the samples, with their count.
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    const Percentile p50 = percentile(v, 0.50);
    const Percentile p99 = percentile(v, 0.99);
    expect(p50.value == 50.0 && p50.samples == 100, "p50 of 1..100 is 50");
    expect(p99.value == 99.0 && p99.samples == 100, "p99 of 1..100 is 99");
    expect(percentile({7.0}, 0.99).value == 7.0, "p99 of one sample");
    expect(percentile({}, 0.5).samples == 0, "empty sample set");
    expect(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "even-count median");

    // Snapshot deltas: rate over the uptime delta, HDR quantiles of the
    // samples added between two snapshots.
    Snapshot a;
    Snapshot b;
    std::string err;
    const bool parsed =
        parseSnapshot(R"({"uptime_us":1000000,"metrics":{"counters":)"
                      R"({"bxt.server.tx_encoded":100,"bxt.server.tx_decoded":50},)"
                      R"("histograms":{"h":{"buckets":[[10,5]]}}}})",
                      a, err) &&
        parseSnapshot(R"({"uptime_us":3000000,"metrics":{"counters":)"
                      R"({"bxt.server.tx_encoded":2100,"bxt.server.tx_decoded":1050},)"
                      R"("histograms":{"h":{"buckets":[[10,5],[20,4]]}}}})",
                      b, err);
    expect(parsed, "snapshot documents parse " + err);
    expect(snapshotRate(a, b, {"bxt.server.tx_encoded",
                               "bxt.server.tx_decoded"}) == 1500.0,
           "snapshot rate = 3000 tx over 2 s");
    const Percentile h50 = histogramDeltaQuantile(a, b, "h", 0.5);
    expect(h50.samples == 4 && h50.value == 20.0,
           "histogram delta ignores the samples before the window");
    expect(snapshotRate(a, a, {"bxt.server.tx_encoded"}) == 0.0,
           "no time, no rate");

    // Result schema: exactly the four keys, every metric value + unit.
    RunResult r;
    r.add("x", 1.5, "ms");
    r.count(true, 3);
    r.count(false);
    expect(resultLine(r) ==
               R"({"correct":true,"attempted":4,"failed":1,)"
               R"("metrics":{"x":{"value":1.5,"unit":"ms"}}})",
           "result line schema");
    completeMetrics(r, endToEndMetrics());
    expect(r.metrics.size() == endToEndMetrics().size() &&
               r.metrics.front().name == "throughput_tx_s",
           "metric set completed in order");

    // The serving oracle: real replies pass, one flipped bit fails.
    std::string report;
    const bool oracle_ok = selfTestServingOracle(report);
    expect(oracle_ok,
           "serving oracle counts an injected mismatch (" + report + ")");
    return failures;
}

} // namespace
} // namespace bxtbench

int
main(int argc, char **argv)
{
    using namespace bxtbench;
    BenchOptions options;
    std::string commit = "unknown";
    int trace = 0;
    bool self_test = false;
    bxt::Cli cli("bxt_perfbench", "run one bxt benchmark workload");
    cli.add("--workload", "NAME",
            "serve-hot | serve-mixed-rw",
            [&](const std::string &v) { options.workload = v; });
    cli.add("--seed", "N", "input seed",
            [&](const std::string &v) {
                options.seed = std::strtoull(v.c_str(), nullptr, 0);
            });
    cli.add("--seconds", "S", "measured seconds",
            [&](const std::string &v) {
                options.seconds = std::atof(v.c_str());
            });
    cli.add("--trace", "0|1", "1 = per-layer run",
            [&](const std::string &v) { trace = std::atoi(v.c_str()); });
    cli.add("--commit", "ID", "source revision for the record line",
            [&](const std::string &v) { commit = v; });
    cli.addFlag("--self-test", "check the pure helpers and the oracle",
                [&] { self_test = true; });
    if (!cli.parse(argc, argv))
        return cli.exitCode();
    if (self_test)
        return selfTest() == 0 ? 0 : 1;

    options.trace = trace != 0;
    options.cpus = allowedCpus();
    options.bxtdPath = selfDir() + "/bxtd";
    if (options.cpus.empty() || !(options.seconds > 0.0)) {
        std::fprintf(stderr, "bxt_perfbench: bad CPU set or --seconds\n");
        return 2;
    }
    const std::map<std::string, std::function<RunResult(const BenchOptions &)>>
        workloads = {{"serve-hot", runServeHot},
                     {"serve-mixed-rw", runServeMixed}};
    const auto it = workloads.find(options.workload);
    if (it == workloads.end()) {
        std::fprintf(stderr, "bxt_perfbench: unknown --workload '%s'\n",
                     options.workload.c_str());
        return 2;
    }

    RunResult result = it->second(options);
    if (result.attempted == 0)
        result.correct = false;
    if (!options.trace)
        result.add("ok_ratio",
                   result.attempted == 0
                       ? 0.0
                       : static_cast<double>(result.attempted -
                                             result.failed) /
                             static_cast<double>(result.attempted),
                   "ratio");
    completeMetrics(result,
                    options.trace ? perLayerMetrics() : endToEndMetrics());
    if (result.failed != 0)
        result.correct = false;

    result.note("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
    result.note("bxtd_cpus", cpuList({options.serverCpu()}));
    result.note("loader_cpus", cpuList(options.loaderCpus()));
    result.note("simd", bxt::simd::levelName(bxt::simd::activeLevel()));
    result.note("build_type", BXTBENCH_BUILD_TYPE);
    result.note("commit", commit);
    std::printf("%s\n", recordLine(result, options.workload, options.seed,
                                   options.trace)
                            .c_str());
    std::printf("%s\n", resultLine(result).c_str());
    return 0;
}
