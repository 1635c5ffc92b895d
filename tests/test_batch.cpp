/**
 * @file
 * Batch-path regression suite: the flat TxBatch/EncodedBatch containers,
 * the BusStats accumulation they rely on, cross-batch toggle continuity
 * (splitting a stream into batches of any size changes no counter), the
 * adaptive codec's chunking contract, and the typed CodecSizeError
 * geometry contract that replaced silent scratch resizing. The batch
 * kernels' differential and golden checks live in test_differential and
 * test_golden, which run every stream and golden file at several batch
 * sizes.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "channel/bus.h"
#include "channel/channel_eval.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/codec_factory.h"
#include "verify/generators.h"
#include "verify/invariants.h"
#include "verify/reference_bus.h"

namespace bxt {
namespace {

using verify::GenKind;
using verify::allGenKinds;
using verify::generate;

/** Structured stream covering the generator families (zeros, strides,
 *  dense, neighbour flips), the inputs the batch kernels special-case. */
std::vector<Transaction>
makeStream(std::size_t count, std::size_t tx_bytes, std::uint64_t seed)
{
    Rng rng(seed);
    const std::vector<GenKind> &kinds = allGenKinds();
    std::vector<Transaction> stream;
    stream.reserve(count);
    Transaction previous(tx_bytes);
    for (std::size_t i = 0; i < count; ++i) {
        stream.push_back(
            generate(rng, tx_bytes, kinds[i % kinds.size()], previous));
        previous = stream.back();
    }
    return stream;
}

TEST(Batch, BusStatsAccumulateFieldWise)
{
    BusStats a{/*transactions=*/1, /*beats=*/8,    /*dataBits=*/256,
               /*dataOnes=*/10,    /*dataToggles=*/20,
               /*metaBits=*/8,     /*metaOnes=*/3, /*metaToggles=*/5};
    BusStats b{2, 16, 512, 100, 200, 16, 30, 50};

    BusStats sum = a;
    sum += b;
    EXPECT_EQ(sum.transactions, 3u);
    EXPECT_EQ(sum.beats, 24u);
    EXPECT_EQ(sum.dataBits, 768u);
    EXPECT_EQ(sum.dataOnes, 110u);
    EXPECT_EQ(sum.dataToggles, 220u);
    EXPECT_EQ(sum.metaBits, 24u);
    EXPECT_EQ(sum.metaOnes, 33u);
    EXPECT_EQ(sum.metaToggles, 55u);
    EXPECT_EQ(sum.ones(), 143u);
    EXPECT_EQ(sum.toggles(), 275u);

    // Zero is the identity, and += returns the accumulator.
    BusStats zero;
    EXPECT_EQ((sum += zero), sum);
}

/**
 * transmitBatch is field-identical to the per-transaction transmit loop,
 * however the stream is split: wire state and the idle accumulator carry
 * across batch boundaries exactly as across transactions.
 */
TEST(Batch, TransmitBatchSplitInvariant)
{
    const std::string spec = "dbi4"; // Metadata wires exercise both planes.
    const std::vector<Transaction> stream = makeStream(97, 32, 41);

    CodecPtr codec = makeCodec(spec, 4);
    TxBatch batch(32);
    for (const Transaction &tx : stream)
        batch.push(tx);
    EncodedBatch enc;
    codec->encodeBatch(batch, enc);

    // Reference: one transmit per transaction through a scalar Encoded.
    Bus scalar_bus(32, codec->metaWiresPerBeat(), 0.3);
    CodecPtr scalar_codec = makeCodec(spec, 4);
    Encoded scalar_enc;
    for (const Transaction &tx : stream) {
        scalar_codec->encodeInto(tx, scalar_enc);
        scalar_bus.transmit(scalar_enc);
    }

    for (std::size_t split : {std::size_t{1}, std::size_t{7},
                              std::size_t{64}, stream.size()}) {
        Bus bus(32, codec->metaWiresPerBeat(), 0.3);
        EncodedBatch piece;
        std::size_t i = 0;
        while (i < stream.size()) {
            const std::size_t chunk = std::min(split, stream.size() - i);
            piece.configure(enc.txBytes(), enc.metaWiresPerBeat(),
                            enc.metaBitsPerTx());
            piece.resize(chunk);
            for (std::size_t j = 0; j < chunk; ++j) {
                std::copy(enc.payload(i + j).begin(),
                          enc.payload(i + j).end(),
                          piece.payload(j).begin());
                std::copy(enc.meta(i + j).begin(), enc.meta(i + j).end(),
                          piece.meta(j).begin());
            }
            bus.transmitBatch(piece);
            i += chunk;
        }
        EXPECT_EQ(bus.stats(), scalar_bus.stats()) << "split " << split;
    }
}

/**
 * End to end through evalCodecOnStream: batch sizes 1, 7, and 64 produce
 * BusStats identical to the bit-level reference bus carrying the same
 * encodings one transaction at a time — in particular the
 * cross-transaction dataToggles/metaToggles, which are the counters a
 * batch boundary could plausibly perturb.
 */
TEST(Batch, CrossBatchToggleContinuity)
{
    const std::vector<Transaction> stream = makeStream(200, 32, 97);
    for (const char *spec : {"xor4+zdr", "universal3+zdr", "dbi4",
                             "universal3+zdr|dbi1", "bd"}) {
        CodecPtr single = makeCodec(spec, 4);
        verify::RefBus ref(32, single->metaWiresPerBeat(), 0.3);
        for (const Transaction &tx : stream) {
            const Encoded enc = single->encode(tx);
            ref.transmit({enc.payload.data(),
                          enc.payload.data() + enc.payload.size()},
                         enc.meta, enc.metaWiresPerBeat);
        }
        const BusStats &want = ref.stats();
        for (std::size_t batch_tx : {1, 7, 64}) {
            CodecPtr codec = makeCodec(spec, 4);
            const BusStats got =
                evalCodecOnStream(*codec, stream, 32, 0.3, batch_tx).stats;
            EXPECT_EQ(got.dataToggles, want.dataToggles)
                << spec << " batch " << batch_tx;
            EXPECT_EQ(got.metaToggles, want.metaToggles)
                << spec << " batch " << batch_tx;
            EXPECT_EQ(got, want) << spec << " batch " << batch_tx;
        }
    }
}

/**
 * Schemes without a reference model are checked against a run one
 * transaction per batch (bd and dbi-ac in the differential campaign). The
 * adaptive codec switches only on batch boundaries, so its chunked runs
 * match the per-transaction run when every chunk ends on an evaluation
 * boundary: chunk sizes that divide the default window (64) and period
 * (256).
 */
TEST(Batch, AdaptiveChunksOnEvaluationBoundariesMatchPerTransactionRun)
{
    const std::vector<Transaction> stream = makeStream(640, 32, 7);
    for (std::size_t batch_tx : {8, 64}) {
        const auto violation =
            verify::checkStream("adaptive", stream, 32, batch_tx);
        EXPECT_FALSE(violation.has_value())
            << "batch " << batch_tx << ": " << violation->invariant << " — "
            << violation->detail;
    }
}

/**
 * Regression for the silent-resize bug: a default-constructed Encoded
 * (minimum-size payload, no metadata) handed to a codec configured for a
 * different geometry must throw CodecSizeError, not resize scratch
 * buffers into a silently wrong decode.
 */
TEST(Batch, DefaultEncodedGeometryThrows)
{
    // xor8: an 8-byte payload does not split into >1 8-byte elements.
    CodecPtr xor8 = makeCodec("xor8", 4);
    EXPECT_THROW(xor8->decode(Encoded{}), CodecSizeError);

    // dbi4: the default Encoded carries 0 metadata bits, not beats*groups.
    CodecPtr dbi = makeCodec("dbi4", 4);
    EXPECT_THROW(dbi->decode(Encoded{}), CodecSizeError);
}

/** TxBatch enforces its geometry at the push boundary. */
TEST(Batch, PushRejectsMismatchedSize)
{
    TxBatch batch(32);
    batch.push(Transaction(32));
    EXPECT_THROW(batch.push(Transaction(64)), CodecSizeError);
    EXPECT_EQ(batch.size(), 1u);

    // Batches with no geometry are rejected by the codec entry points.
    CodecPtr codec = makeCodec("xor4+zdr", 4);
    TxBatch empty;
    EncodedBatch enc;
    EXPECT_THROW(codec->encodeBatch(empty, enc), CodecSizeError);
}

} // namespace
} // namespace bxt
