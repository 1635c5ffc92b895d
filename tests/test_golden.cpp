/**
 * @file
 * Golden-vector regression suite: every checked-in file in tests/golden/
 * must exactly match what the current core codecs and Bus produce, and the
 * pinned figure endpoints must match a fresh evaluation bit-for-bit. Any
 * intentional encoding change regenerates the corpus with tools/gen_golden
 * and reviews the diff.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <set>
#include <string>

#include "suite_eval.h"
#include "verify/golden.h"
#include "workloads/apps.h"

namespace bxt {
namespace {

using verify::Endpoint;
using verify::checkGoldenFile;
using verify::goldenFileName;
using verify::goldenSpecs;
using verify::loadEndpoints;

std::string
goldenPath(const std::string &file)
{
    return std::string(BXT_GOLDEN_DIR) + "/" + file;
}

/** Every golden vector file re-verifies against the current build, run
 *  through the kernels as one batch and one transaction per batch. */
TEST(Golden, AllVectorFilesMatchCurrentImplementation)
{
    std::size_t files = 0;
    for (unsigned wires : {32u, 64u}) {
        for (const std::string &spec : goldenSpecs(wires)) {
            const std::string path =
                goldenPath(goldenFileName(spec, wires));
            const std::vector<std::string> diffs = checkGoldenFile(path);
            ++files;
            for (const std::string &diff : diffs)
                ADD_FAILURE() << diff;
        }
    }
    EXPECT_GE(files, 17u);
}

/**
 * The corpus directory holds exactly the files goldenSpecs() implies (plus
 * endpoints.txt): a stray or missing file means gen_golden and the spec
 * table drifted apart.
 */
TEST(Golden, CorpusDirectoryMatchesSpecTable)
{
    std::set<std::string> expected = {"endpoints.txt"};
    for (unsigned wires : {32u, 64u}) {
        for (const std::string &spec : goldenSpecs(wires))
            expected.insert(goldenFileName(spec, wires));
    }

    std::set<std::string> present;
    for (const auto &entry :
         std::filesystem::directory_iterator(BXT_GOLDEN_DIR)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".txt") {
            present.insert(entry.path().filename().string());
        }
    }
    EXPECT_EQ(present, expected);
}

/**
 * The pinned fig11/12/14 endpoints match a fresh evaluation. The suite
 * sweep is bit-deterministic for any thread count, so the comparison is
 * near-exact; the epsilon only absorbs the text round-trip through %.9f.
 */
TEST(Golden, FigureEndpointsMatchRecomputation)
{
    const std::vector<Endpoint> endpoints =
        loadEndpoints(goldenPath("endpoints.txt"));
    ASSERT_GE(endpoints.size(), 6u);

    std::set<std::string> spec_set;
    std::size_t tx_per_app = 0;
    for (const Endpoint &endpoint : endpoints) {
        spec_set.insert(endpoint.spec);
        ASSERT_GT(endpoint.txPerApp, 0u);
        if (tx_per_app == 0)
            tx_per_app = endpoint.txPerApp;
        ASSERT_EQ(endpoint.txPerApp, tx_per_app)
            << "endpoints pinned at mixed transaction counts";
    }

    std::vector<App> apps = buildGpuSuite();
    const std::vector<std::string> specs(spec_set.begin(), spec_set.end());
    const std::vector<AppResult> results =
        evalSuite(apps, specs, tx_per_app);

    for (const Endpoint &endpoint : endpoints) {
        const double fresh = meanNormalizedOnes(results, endpoint.spec);
        EXPECT_NEAR(fresh, endpoint.value, 1e-9)
            << endpoint.fig << " " << endpoint.spec
            << " drifted: pinned " << endpoint.value << " fresh " << fresh;
    }
}

} // namespace
} // namespace bxt
