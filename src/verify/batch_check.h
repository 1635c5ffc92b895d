/**
 * @file
 * Differential verification of the batch kernels, the only encode/decode
 * implementation each codec has (Codec::encodeBatch / decodeBatch, with
 * Bus::transmitBatch carrying the result). Expected outputs come from an
 * independent source: the naive reference codecs of reference_codecs.h
 * and the bit-level RefBus, or — for the schemes with no reference model
 * (bd, dbi-ac, adaptive) — a fresh instance run one transaction per
 * batch. Structured generator streams, every canonical spec, and a
 * campaign driver shared by `bxt_fuzz --batch`, CI's batch mode, and
 * tests/test_batch.cpp.
 */

#ifndef BXT_VERIFY_BATCH_CHECK_H
#define BXT_VERIFY_BATCH_CHECK_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/transaction.h"
#include "verify/invariants.h"

namespace bxt::verify {

/**
 * Run @p stream through a fresh instance of @p spec chunked into
 * TxBatches of at most @p batch_tx transactions, and compare bit-for-bit
 * against the expected encodings:
 *
 *  - makeRefCodec(spec)'s encodings where a reference model exists
 *    (baseline, xorN, universal, dbiN, and pipelines of those);
 *    otherwise a second fresh instance's encodings one transaction per
 *    batch (for adaptive this only matches when the chunks end on its
 *    evaluation boundaries);
 *  - every encoded payload slice, metadata slice, and metadata wire
 *    count against the expected encoding;
 *  - decodeBatch's output against the original transactions;
 *  - the cumulative BusStats of transmitBatch() against RefBus carrying
 *    the expected encodings, wire state and idle accumulator carried
 *    across batch boundaries alike.
 *
 * @p batch_tx == 0 means one batch spanning the whole stream. Returns
 * nullopt when every comparison holds.
 */
std::optional<Violation>
checkBatchAgainstReference(const std::string &spec,
                           const std::vector<Transaction> &stream,
                           unsigned data_wires = 32,
                           std::size_t batch_tx = 0,
                           double idle_fraction = 0.3);

/** Batch campaign parameters (see FuzzOptions for the per-transaction
 *  analogue). */
struct BatchFuzzOptions
{
    /** Specs to sweep; empty selects canonicalSpecs(). */
    std::vector<std::string> specs;

    /** Channel widths to run each spec on (transaction = wires bytes). */
    std::vector<unsigned> dataWires = {32, 64};

    /** Generator streams per (spec, wires, batch size) unit. */
    std::uint64_t streamsPerSpec = 12;

    /** Transactions per generated stream. */
    std::size_t txPerStream = 96;

    /** Batch sizes to sweep; 1 pins the degenerate chunking, the larger
     *  sizes cross chunk boundaries mid-stream. */
    std::vector<std::size_t> batchSizes = {1, 7, 64, 512};

    /** Campaign seed; every (spec, wires, batch) unit derives a stream. */
    std::uint64_t seed = 0xba7c4f22ull;

    /** Bus idle-gap fraction (0.3 = the paper's 70 % utilization). */
    double idleFraction = 0.3;

    /** Optional progress sink (one line per unit). */
    std::function<void(const std::string &)> progress;
};

/** One batch-vs-reference mismatch found by the campaign. */
struct BatchFuzzFailure
{
    std::string spec;
    unsigned dataWires = 32;
    std::size_t batchTx = 0;
    std::uint64_t seed = 0;
    Violation violation;
};

/** Campaign outcome. */
struct BatchFuzzReport
{
    std::uint64_t transactionsChecked = 0;
    std::vector<BatchFuzzFailure> failures;
    bool ok() const { return failures.empty(); }
};

/** Sweep the canonical specs' batch kernels against their references. */
BatchFuzzReport runBatchDifferentialFuzz(const BatchFuzzOptions &options);

} // namespace bxt::verify

#endif // BXT_VERIFY_BATCH_CHECK_H
