/**
 * @file
 * The differential fuzz driver: sweeps codec specs over the structured
 * generators, runs every stream through the stream checker
 * (verify/invariants.h) at one of the batch sizes in kFuzzBatchSizes, and
 * shrinks + persists failing inputs to the repro corpus. Shared by the
 * `bxt_fuzz` CLI, the nightly CI job, and `tests/test_differential.cpp`.
 */

#ifndef BXT_VERIFY_DIFFERENTIAL_H
#define BXT_VERIFY_DIFFERENTIAL_H

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "verify/shrink.h"

namespace bxt::verify {

/**
 * Batch sizes each (spec, wires) unit cycles its streams through: 1 runs
 * the per-transaction wrappers, the larger sizes cross chunk boundaries
 * mid-stream. A unit starts the cycle at a size drawn from its seed, so
 * a campaign of one stream per unit still covers every size across units.
 */
inline constexpr std::array<std::size_t, 4> kFuzzBatchSizes = {1, 7, 64,
                                                               512};

/**
 * Transactions per generated stream: more than the largest batch size and
 * a multiple of none of them, so every size above 1 crosses a chunk
 * boundary and ends on a partial chunk.
 */
inline constexpr std::size_t kFuzzStreamTx = 520;

/** Fuzzing campaign parameters. */
struct FuzzOptions
{
    /** Specs to sweep; empty selects canonicalSpecs(). */
    std::vector<std::string> specs;

    /** Channel widths to run each spec on (transaction = wires bytes × 8). */
    std::vector<unsigned> dataWires = {32, 64};

    /**
     * Transactions per (spec, wires) unit when secondsBudget == 0, in
     * whole streams of kFuzzStreamTx (rounded up).
     */
    std::uint64_t iterationsPerSpec = 20000;

    /**
     * When > 0, check streams round-robin across the units until this
     * wall-clock budget expires or every unit has failed.
     */
    double secondsBudget = 0.0;

    /** Campaign seed; every (spec, wires) unit derives its own stream. */
    std::uint64_t seed = 0xb8715eedull;

    /** Bus idle-gap fraction (0.3 = the paper's 70 % utilization). */
    double idleFraction = 0.3;

    /** Directory for shrunken repros; empty disables persistence. */
    std::string corpusDir;

    /** Minimize failing inputs before reporting/persisting them. */
    bool shrinkFailures = true;

    /** Optional progress sink (one line per unit). */
    std::function<void(const std::string &)> progress;

    /** Builds the codec under test; empty selects makeCodec. */
    CodecFactory codecFactory;
};

/** One invariant violation found by the campaign. */
struct FuzzFailure
{
    std::string spec;
    unsigned dataWires = 32;
    std::size_t batchTx = 1; ///< Batch size of the failing stream.
    std::uint64_t seed = 0;
    Violation violation;
    Transaction original{Transaction::minBytes};
    Transaction shrunk{Transaction::minBytes};
    /** True when the transaction fails alone on a fresh codec. */
    bool reproducesFresh = false;
    std::string reproPath; ///< Corpus file, when persisted.
};

/** Campaign outcome. */
struct FuzzReport
{
    std::uint64_t transactionsChecked = 0;
    std::vector<FuzzFailure> failures;
    bool ok() const { return failures.empty(); }
};

/**
 * The canonical spec set every scaling PR must keep green: the paper's
 * scheme table (codec_factory::paperSchemeSpecs) plus the per-codec
 * building blocks and both pipeline orders.
 */
std::vector<std::string> canonicalSpecs();

/**
 * Run a fuzzing campaign. A unit stops at its first failing stream; the
 * failing transaction is re-checked alone on a fresh codec and, when it
 * still fails, shrunk and written to the corpus.
 */
FuzzReport runDifferentialFuzz(const FuzzOptions &options);

/**
 * Re-check every shrunken repro in @p dir against the current build (or
 * the codecs @p make_core builds); a failure here means a previously-fixed
 * bug regressed (or a corpus file is malformed). Counts as 0 checked
 * transactions when the dir is missing.
 */
FuzzReport replayCorpus(const std::string &dir,
                        const CodecFactory &make_core = {});

} // namespace bxt::verify

#endif // BXT_VERIFY_DIFFERENTIAL_H
