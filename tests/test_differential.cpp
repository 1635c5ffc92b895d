/**
 * @file
 * Differential verification suite. Checks the core codecs and Bus
 * against the naive reference implementations in src/verify/ over the
 * structured generator stream at every campaign batch size, proves the
 * lane-level ZDR bijectivity statement, replays the shrunken-repro corpus,
 * and — as a permanent mutation smoke test — verifies that a deliberately
 * injected codec bug is caught at every batch size, shrunk to a
 * near-minimal repro, persisted, and replayed.
 *
 * Iteration budgets scale with the BXT_FUZZ_ITERS environment variable
 * (transactions per (spec, wires) unit); the default keeps the suite
 * tier-1 fast. No CI job sets it: the nightly job runs the time-budgeted
 * `bxt_fuzz --seconds` campaign instead, so raise it by hand for a longer
 * local run.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "common/rng.h"
#include "core/codec_factory.h"
#include "verify/differential.h"
#include "verify/generators.h"
#include "verify/invariants.h"
#include "verify/reference_codecs.h"

namespace bxt {
namespace {

using verify::FuzzOptions;
using verify::FuzzReport;
using verify::kFuzzBatchSizes;
using verify::kFuzzStreamTx;
using verify::Violation;

std::uint64_t
fuzzIters(std::uint64_t fallback)
{
    if (const char *env = std::getenv("BXT_FUZZ_ITERS")) {
        const std::uint64_t parsed = std::strtoull(env, nullptr, 0);
        if (parsed > 0)
            return parsed;
    }
    return fallback;
}

std::size_t
countOnes(const Transaction &tx)
{
    std::size_t ones = 0;
    for (std::size_t i = 0; i < tx.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit)
            ones += (tx.data()[i] >> bit) & 1;
    }
    return ones;
}

/** A structured generator stream of @p count transactions. */
std::vector<Transaction>
makeStream(std::size_t count, std::size_t tx_bytes, std::uint64_t seed)
{
    const std::vector<verify::GenKind> &kinds = verify::allGenKinds();
    Rng rng(seed);
    std::vector<Transaction> stream;
    Transaction previous(tx_bytes);
    for (std::size_t i = 0; i < count; ++i) {
        stream.push_back(verify::generate(rng, tx_bytes,
                                          kinds[i % kinds.size()], previous));
        previous = stream.back();
    }
    return stream;
}

std::string
failureText(const FuzzReport &report)
{
    std::string text;
    for (const auto &failure : report.failures) {
        text += failure.spec + " wires=" +
                std::to_string(failure.dataWires) + " batch=" +
                std::to_string(failure.batchTx) + " " +
                failure.violation.invariant + ": " +
                failure.violation.detail + "\n";
    }
    return text;
}

/** Transactions that give each unit one stream at every batch size. */
constexpr std::uint64_t kOneSweep = kFuzzBatchSizes.size() * kFuzzStreamTx;

/**
 * Every canonical spec agrees with its independent reference model (and
 * round-trips, and matches RefBus) over the full generator stream on both
 * channel widths, one stream at each batch size. This is the acceptance
 * gate: raise BXT_FUZZ_ITERS to 1000000 for a full local campaign.
 */
TEST(Differential, CanonicalSpecsMatchReferenceModels)
{
    FuzzOptions options;
    options.iterationsPerSpec = fuzzIters(kOneSweep);
    options.idleFraction = 0.3;
    const FuzzReport report = runDifferentialFuzz(options);
    EXPECT_GE(report.transactionsChecked,
              verify::canonicalSpecs().size() * 2 * kOneSweep);
    EXPECT_TRUE(report.ok()) << failureText(report);
}

/** The two pipeline orders are distinct specs; both must stay clean. */
TEST(Differential, BothPipelineOrdersFuzzClean)
{
    FuzzOptions options;
    options.specs = {"xor4+zdr|dbi4", "dbi4|xor4+zdr",
                     "universal3+zdr|dbi4", "dbi4|universal3+zdr"};
    options.iterationsPerSpec = fuzzIters(kOneSweep);
    const FuzzReport report = runDifferentialFuzz(options);
    EXPECT_TRUE(report.ok()) << failureText(report);
}

/**
 * Paper §IV-A bijectivity argument, machine-checked at lane level: ZDR is
 * plain base-XOR composed with the transposition σ of the two output
 * symbols {base, C}. σ∘σ == id, so ZDR stays a bijection and needs no
 * metadata. Exhaustive for 1-byte lanes, randomized for wider lanes.
 */
TEST(Differential, ZdrLaneSwapIsAnInvolution)
{
    // Exhaustive: every (input, base) pair of 1-byte lanes.
    for (unsigned in = 0; in < 256; ++in) {
        for (unsigned base = 0; base < 256; ++base) {
            const auto violation = verify::checkZdrLaneInvolution(
                {static_cast<std::uint8_t>(in)},
                {static_cast<std::uint8_t>(base)});
            ASSERT_FALSE(violation.has_value())
                << violation->invariant << ": " << violation->detail;
        }
    }

    // Randomized wide lanes, biased toward the special symbols.
    Rng rng(0x2d12);
    for (std::size_t lane : {2u, 4u, 8u}) {
        for (int i = 0; i < 4000; ++i) {
            std::vector<std::uint8_t> in(lane);
            std::vector<std::uint8_t> base(lane);
            switch (rng.nextBounded(4)) {
              case 0:
                break; // in stays zero.
              case 1:
                in = verify::refZdrConstant(lane);
                break;
              case 2:
                for (auto &b : in)
                    b = static_cast<std::uint8_t>(rng.nextBounded(256));
                base = in; // in == base → plain XOR gives zero.
                break;
              default:
                for (auto &b : in)
                    b = static_cast<std::uint8_t>(rng.nextBounded(256));
            }
            if (rng.nextBounded(2) == 0) {
                for (auto &b : base)
                    b = static_cast<std::uint8_t>(rng.nextBounded(256));
            }
            const auto violation = verify::checkZdrLaneInvolution(in, base);
            ASSERT_FALSE(violation.has_value())
                << violation->invariant << ": " << violation->detail;
        }
    }
}

/**
 * DBI-DC weight bound, checked directly on adversarially dense inputs:
 * no encoded group may carry more ones than half its wires.
 */
TEST(Differential, DbiWeightBoundHoldsOnDenseInputs)
{
    Rng rng(0xdb1);
    for (std::size_t group : {1u, 2u, 4u}) {
        const std::string spec = "dbi" + std::to_string(group);
        CodecPtr codec = makeCodec(spec);
        for (int i = 0; i < 2000; ++i) {
            Transaction tx(32);
            for (std::size_t b = 0; b < tx.size(); ++b) {
                // Mostly-dense bytes hammer the inversion path.
                tx.data()[b] = static_cast<std::uint8_t>(
                    rng.nextBounded(4) == 0 ? rng.nextBounded(256) : 0xff);
            }
            const Encoded enc = codec->encode(tx);
            const std::size_t half_bits = group * 8 / 2;
            for (std::size_t off = 0; off < enc.payload.size();
                 off += group) {
                std::size_t ones = 0;
                for (std::size_t b = off; b < off + group; ++b) {
                    for (int bit = 0; bit < 8; ++bit)
                        ones += (enc.payload.data()[b] >> bit) & 1;
                }
                ASSERT_LE(ones, half_bits)
                    << spec << " group at " << off << " tx " << tx.toHex();
            }
        }
    }
}

/**
 * The Bus-vs-RefBus comparison stays exact across idle-gap fractions,
 * where the wires park at zero between transactions, at every batch size.
 */
TEST(Differential, BusMatchesReferenceBusAcrossIdleFractions)
{
    const std::vector<Transaction> stream = makeStream(400, 32, 0x1d7e);
    for (double idle : {0.0, 0.3, 0.7}) {
        for (const char *spec : {"baseline", "xor4+zdr", "dbi4", "bd"}) {
            for (std::size_t batch_tx : kFuzzBatchSizes) {
                const auto violation =
                    verify::checkStream(spec, stream, 32, batch_tx, idle);
                ASSERT_FALSE(violation.has_value())
                    << spec << " idle " << idle << " batch " << batch_tx
                    << " " << violation->invariant << ": "
                    << violation->detail;
            }
        }
    }
}

/** Every shrunken repro in tests/corpus/ must stay fixed. */
TEST(Differential, CorpusReplayStaysClean)
{
    const FuzzReport report = verify::replayCorpus(BXT_CORPUS_DIR);
    EXPECT_TRUE(report.ok()) << failureText(report);
}

/**
 * A codec that mimics a real class of bug: it corrupts one encoded byte,
 * but only when that byte holds a specific value — so the bug is silent on
 * most inputs and only a structured search finds it.
 */
class BuggyCodec : public Codec
{
  public:
    BuggyCodec() : inner_(makeCodec("xor4+zdr")) {}
    std::string name() const override { return inner_->name(); }
    unsigned metaWiresPerBeat() const override
    {
        return inner_->metaWiresPerBeat();
    }

  protected:
    void encodeBatchKernel(const TxBatch &in, EncodedBatch &out) override
    {
        inner_->encodeBatch(in, out);
        for (std::size_t i = 0; i < out.size(); ++i) {
            const std::span<std::uint8_t> payload = out.payload(i);
            if (payload.size() > 5 && payload[5] == 0x40)
                payload[5] = 0x41; // The injected bug.
        }
    }
    void decodeBatchKernel(const EncodedBatch &in, TxBatch &out) override
    {
        inner_->decodeBatch(in, out);
    }

  private:
    CodecPtr inner_;
};

const verify::CodecFactory kMutant = [](const std::string &, std::size_t) {
    return CodecPtr(std::make_unique<BuggyCodec>());
};

/**
 * Mutation smoke test: the stream checker must catch the injected bug at
 * every campaign batch size and shrink the failing input to a near-minimal
 * repro — the bug needs only encoded byte 5 == 0x40, reachable from a
 * single set input bit, so the shrunken transaction must be tiny and must
 * still fail on a fresh codec. A campaign run must persist the repro, and
 * replaying the corpus against the mutant must report it.
 */
TEST(Differential, InjectedCodecBugIsCaughtAndShrunk)
{
    const unsigned wires = 32;
    const std::vector<Transaction> stream =
        makeStream(kFuzzStreamTx, wires, 0xb06);
    const verify::FailPredicate fails = [&](const Transaction &candidate) {
        return verify::checkStream("xor4+zdr", {candidate}, wires, 1, 0.0,
                                   kMutant)
            .has_value();
    };
    for (std::size_t batch_tx : kFuzzBatchSizes) {
        SCOPED_TRACE("batch " + std::to_string(batch_tx));
        const std::optional<Violation> violation = verify::checkStream(
            "xor4+zdr", stream, wires, batch_tx, 0.0, kMutant);
        ASSERT_TRUE(violation.has_value())
            << "injected bug not caught in " << stream.size()
            << " transactions";
        const Transaction &failing = stream[violation->tx];
        ASSERT_TRUE(fails(failing)) << "failure does not reproduce fresh";

        const Transaction shrunk = verify::shrinkTransaction(failing, fails);
        EXPECT_TRUE(fails(shrunk));
        EXPECT_LE(shrunk.size(), 64u);
        // Greedy span+bit shrinking cannot clear coupled bit pairs, but the
        // minimum here is one set bit (input byte 5 = 0x40); allow slack
        // for pair-coupled local minima while still proving real
        // minimization.
        EXPECT_LE(countOnes(shrunk), 8u)
            << "shrunk repro still has " << countOnes(shrunk)
            << " set bits: " << shrunk.toHex();
    }

    const std::filesystem::path corpus =
        std::filesystem::temp_directory_path() /
        ("bxt-mutant-corpus-" + std::to_string(::getpid()));
    std::filesystem::remove_all(corpus);
    FuzzOptions options;
    options.specs = {"xor4+zdr"};
    options.dataWires = {wires};
    options.iterationsPerSpec = kOneSweep;
    options.corpusDir = corpus.string();
    options.codecFactory = kMutant;
    const FuzzReport report = runDifferentialFuzz(options);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_TRUE(report.failures[0].reproducesFresh);
    EXPECT_FALSE(report.failures[0].reproPath.empty());
    EXPECT_LT(countOnes(report.failures[0].shrunk),
              countOnes(report.failures[0].original));

    const FuzzReport replay = verify::replayCorpus(corpus.string(), kMutant);
    EXPECT_EQ(replay.transactionsChecked, 1u);
    EXPECT_EQ(replay.failures.size(), 1u);
    // The real codec passes the same repro.
    EXPECT_TRUE(verify::replayCorpus(corpus.string()).ok());
    std::filesystem::remove_all(corpus);
}

/**
 * A timed campaign ends as soon as every unit has failed instead of
 * idling out its budget, and still reports each unit's failure.
 */
TEST(Differential, TimedCampaignEndsOnceEveryUnitFailed)
{
    FuzzOptions options;
    options.specs = {"xor4+zdr"};
    options.secondsBudget = 30.0;
    options.shrinkFailures = false;
    options.codecFactory = kMutant;
    const auto start = std::chrono::steady_clock::now();
    const FuzzReport report = runDifferentialFuzz(options);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    EXPECT_LT(seconds, 5.0);
    EXPECT_EQ(report.failures.size(), options.dataWires.size());
}

/** Specs without a reference model are checked against a run one
 *  transaction per batch, plus the round-trip and bus checks. */
TEST(Differential, StatefulAndAcSpecsFuzzWithoutReference)
{
    for (const char *spec : {"bd", "dbi-ac1", "dbi-ac4"})
        EXPECT_EQ(verify::makeRefCodec(spec), nullptr) << spec;
    for (const char *spec : {"xor4+zdr", "universal3+zdr|dbi4", "dbi1"})
        EXPECT_NE(verify::makeRefCodec(spec), nullptr) << spec;

    FuzzOptions options;
    options.specs = {"bd", "dbi-ac1", "dbi-ac4", "bd|dbi4"};
    options.iterationsPerSpec = fuzzIters(kOneSweep);
    const FuzzReport report = runDifferentialFuzz(options);
    EXPECT_TRUE(report.ok()) << failureText(report);
}

} // namespace
} // namespace bxt
