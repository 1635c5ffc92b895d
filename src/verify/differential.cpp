#include "verify/differential.h"

#include <algorithm>
#include <chrono>

#include "common/rng.h"
#include "core/codec_factory.h"
#include "telemetry/trace.h"
#include "verify/generators.h"
#include "verify/reference_codecs.h"

namespace bxt::verify {
namespace {

std::uint64_t
mixSeed(std::uint64_t seed, const std::string &spec, unsigned wires)
{
    std::uint64_t h = seed ^ 0xcbf29ce484222325ull;
    for (char c : spec) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    h ^= wires;
    h *= 0x100000001b3ull;
    return h;
}

/** One (spec, wires) fuzzing unit with its own RNG and stream. */
struct Unit
{
    std::string spec;
    unsigned wires;
    std::uint64_t seed;
    Rng rng;
    std::uint64_t first_size; ///< Index into kFuzzBatchSizes of stream 0.
    Transaction previous;
    std::uint64_t streams = 0;
    std::uint64_t checked = 0;
    bool failed = false;

    Unit(const std::string &spec_in, unsigned wires_in, std::uint64_t campaign)
        : spec(spec_in), wires(wires_in),
          seed(mixSeed(campaign, spec_in, wires_in)), rng(seed),
          first_size(rng.nextBounded(kFuzzBatchSizes.size())),
          previous(wires_in)
    {
    }
};

void
handleFailure(Unit &unit, std::size_t batch_tx, const Transaction &tx,
              const Violation &violation, const FuzzOptions &options,
              FuzzReport &report)
{
    unit.failed = true;
    FuzzFailure failure;
    failure.spec = unit.spec;
    failure.dataWires = unit.wires;
    failure.batchTx = batch_tx;
    failure.seed = unit.seed;
    failure.violation = violation;
    failure.original = tx;
    failure.shrunk = tx;

    // Shrinking re-checks candidates alone on a fresh codec, so it only
    // applies to failures that do not depend on accumulated stream state.
    const FailPredicate fails = [&](const Transaction &candidate) {
        return checkStream(unit.spec, {candidate}, unit.wires, 1,
                           options.idleFraction, options.codecFactory)
            .has_value();
    };
    failure.reproducesFresh = fails(tx);
    if (failure.reproducesFresh && options.shrinkFailures)
        failure.shrunk = shrinkTransaction(tx, fails);

    if (!options.corpusDir.empty() && failure.reproducesFresh) {
        Repro repro;
        repro.spec = unit.spec;
        repro.dataWires = unit.wires;
        repro.seed = unit.seed;
        repro.invariant = violation.invariant;
        repro.detail = violation.detail;
        repro.tx = failure.shrunk;
        failure.reproPath = writeRepro(options.corpusDir, repro);
    }
    report.failures.push_back(std::move(failure));
}

/** Generate the unit's next stream and check it at the next batch size. */
void
runStream(Unit &unit, const FuzzOptions &options, FuzzReport &report)
{
    const std::size_t batch_tx =
        kFuzzBatchSizes[(unit.first_size + unit.streams++) %
                        kFuzzBatchSizes.size()];
    // One span per stream; a trace of a fuzz run shows where the
    // wall-clock budget goes across the unit matrix and batch sizes.
    telemetry::ScopedSpan span("fuzz." + unit.spec + "." +
                                   std::to_string(unit.wires) + ".b" +
                                   std::to_string(batch_tx),
                               "fuzz");
    const std::vector<GenKind> &kinds = allGenKinds();
    std::vector<Transaction> stream;
    stream.reserve(kFuzzStreamTx);
    for (std::size_t t = 0; t < kFuzzStreamTx; ++t) {
        stream.push_back(generate(unit.rng, unit.wires,
                                  kinds[t % kinds.size()], unit.previous));
        unit.previous = stream.back();
    }
    unit.checked += stream.size();
    report.transactionsChecked += stream.size();
    if (auto violation =
            checkStream(unit.spec, stream, unit.wires, batch_tx,
                        options.idleFraction, options.codecFactory))
        handleFailure(unit, batch_tx, stream[violation->tx], *violation,
                      options, report);
}

} // namespace

std::vector<std::string>
canonicalSpecs()
{
    std::vector<std::string> specs = paperSchemeSpecs();
    for (const char *extra :
         {"xor2+zdr", "xor4", "xor4+zdr", "xor8+zdr", "xor16", "xor4+fixed",
          "universal1", "universal3", "universal4+zdr", "universal5+zdr",
          "xor4+zdr|dbi4", "dbi4|xor4+zdr", "dbi-ac1", "dbi-ac4"}) {
        if (std::find(specs.begin(), specs.end(), extra) == specs.end())
            specs.emplace_back(extra);
    }
    return specs;
}

FuzzReport
runDifferentialFuzz(const FuzzOptions &options)
{
    const std::vector<std::string> specs =
        options.specs.empty() ? canonicalSpecs() : options.specs;

    std::vector<Unit> units;
    for (const std::string &spec : specs) {
        for (unsigned wires : options.dataWires)
            units.emplace_back(spec, wires, options.seed);
    }

    FuzzReport report;
    if (options.secondsBudget > 0.0) {
        // Time-bounded mode: round-robin streams until the budget expires
        // or no unit is left to run.
        const auto start = std::chrono::steady_clock::now();
        const auto budget =
            std::chrono::duration<double>(options.secondsBudget);
        const auto expired = [&] {
            return std::chrono::steady_clock::now() - start >= budget;
        };
        const auto live = [&] {
            return std::ranges::any_of(
                units, [](const Unit &unit) { return !unit.failed; });
        };
        while (live() && !expired()) {
            for (Unit &unit : units) {
                if (!unit.failed && !expired())
                    runStream(unit, options, report);
            }
        }
    } else {
        for (Unit &unit : units) {
            while (!unit.failed && unit.checked < options.iterationsPerSpec)
                runStream(unit, options, report);
        }
    }

    if (options.progress) {
        for (const Unit &unit : units) {
            const bool has_ref =
                makeRefCodec(unit.spec, unit.wires / 8) != nullptr;
            options.progress(
                unit.spec + " wires=" + std::to_string(unit.wires) +
                " tx=" + std::to_string(unit.checked) +
                " streams=" + std::to_string(unit.streams) + " " +
                (unit.failed ? "FAIL" : "ok") +
                (has_ref ? "" : " (vs a one-tx-per-batch run)"));
        }
    }
    return report;
}

FuzzReport
replayCorpus(const std::string &dir, const CodecFactory &make_core)
{
    FuzzReport report;
    for (const std::string &path : listRepros(dir)) {
        const std::optional<Repro> repro = loadRepro(path);
        if (!repro) {
            FuzzFailure failure;
            failure.violation = {"corpus-malformed", path};
            failure.reproPath = path;
            report.failures.push_back(std::move(failure));
            continue;
        }
        ++report.transactionsChecked;
        if (auto violation = checkStream(repro->spec, {repro->tx},
                                         repro->dataWires, 1, 0.0,
                                         make_core)) {
            FuzzFailure failure;
            failure.spec = repro->spec;
            failure.dataWires = repro->dataWires;
            failure.seed = repro->seed;
            failure.violation = *violation;
            failure.original = repro->tx;
            failure.shrunk = repro->tx;
            failure.reproPath = path;
            report.failures.push_back(std::move(failure));
        }
    }
    return report;
}

} // namespace bxt::verify
