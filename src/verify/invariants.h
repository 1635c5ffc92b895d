/**
 * @file
 * The stream checker: the machine-checked statements of the paper's
 * correctness claims, evaluated for every transaction of a fuzzed stream
 * run through a codec in chunks of a given batch size.
 *
 *  1. encode ∘ decode == identity for the core codec (bijection claim);
 *  2. the core encoding equals the naive reference encoding byte-for-byte
 *     (payload, metadata bits, and metadata wire count);
 *  3. the reference codec round-trips independently;
 *  4. ZDR bijectivity: E_zdr == σ ∘ E_xor where σ is the transposition of
 *     the two output symbols {base, C} — σ an involution keeps E_zdr a
 *     bijection (checked at lane level, see checkZdrLaneInvolution);
 *  5. DBI-DC output weight: every encoded group carries at most
 *     group-size/2 `1` bits (when the spec's final stage is dbiN);
 *  6. the optimized Bus and the bit-level RefBus report identical BusStats
 *     deltas and cumulative counters, across transaction and batch
 *     boundaries.
 */

#ifndef BXT_VERIFY_INVARIANTS_H
#define BXT_VERIFY_INVARIANTS_H

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "channel/bus.h"
#include "core/codec.h"

namespace bxt::verify {

/** One failed invariant, with a human-readable account of the mismatch. */
struct Violation
{
    std::string invariant; ///< Stable id, e.g. "core-vs-ref-payload".
    std::string detail;    ///< Hex dumps / counters for the report.
    std::size_t tx = 0;    ///< Stream index of the transaction at fault.
};

/** Builds the codec under test for (spec, bus bytes); tests pass one that
 *  returns a mutant to prove the checker catches injected bugs. */
using CodecFactory =
    std::function<CodecPtr(const std::string &spec, std::size_t bus_bytes)>;

/**
 * Run @p stream through a fresh codec for @p spec (built by @p make_core,
 * or makeCodec when empty) in chunks of @p batch_tx transactions, and
 * check invariants 1, 2, 3, 5 and 6 on every chunk. The expected encodings
 * come from makeRefCodec(spec) where a reference model exists; specs with
 * none (bd, dbi-ac, adaptive) are compared with a fresh instance run one
 * transaction per batch (for adaptive this only matches when the chunks
 * end on its evaluation boundaries), and skip invariant 3.
 *
 * At @p batch_tx == 1 the codec runs through encodeInto / decodeInto and
 * the bus through Bus::transmit, so the per-transaction wrappers stay
 * under test; larger sizes use encodeBatch / decodeBatch / transmitBatch.
 * Chunk-level failures (bus counters) name the chunk's first transaction.
 * The codec is built with bus_bytes = @p data_wires / 8. Returns nullopt
 * when every invariant holds.
 */
std::optional<Violation>
checkStream(const std::string &spec, const std::vector<Transaction> &stream,
            unsigned data_wires, std::size_t batch_tx,
            double idle_fraction = 0.0, const CodecFactory &make_core = {});

/**
 * Lane-level ZDR bijectivity statement: with σ the swap of the two output
 * symbols {base, C}, verify σ∘σ == id (involution), E_zdr(in) == σ(E_xor(in)),
 * and D_zdr(E_zdr(in)) == in, all on naive reference lanes.
 */
std::optional<Violation>
checkZdrLaneInvolution(const std::vector<std::uint8_t> &in,
                       const std::vector<std::uint8_t> &base);

/**
 * Group size of the trailing dbiN stage of @p spec, or 0 when the spec does
 * not end in a plain DBI-DC stage (the weight bound only holds there).
 */
std::size_t trailingDbiGroupBytes(const std::string &spec);

/** Compact lowercase hex of @p bytes, byte 0 first. */
std::string hexString(std::span<const std::uint8_t> bytes);

/** One '0'/'1' per metadata bit; "-" when there are none. */
std::string bitsString(std::span<const std::uint8_t> bits);

/** The counters of @p stats on one line, for mismatch reports. */
std::string statsString(const BusStats &stats);

} // namespace bxt::verify

#endif // BXT_VERIFY_INVARIANTS_H
