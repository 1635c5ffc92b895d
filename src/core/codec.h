/**
 * @file
 * The Codec interface: transaction-level encode/decode with optional
 * per-beat metadata wires (used by DBI and BD-Encoding; the paper's own
 * Base+XOR schemes are metadata-free).
 */

#ifndef BXT_CORE_CODEC_H
#define BXT_CORE_CODEC_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/batch.h"
#include "core/transaction.h"

namespace bxt {

/**
 * The result of encoding one transaction: the (same-sized) payload that
 * travels on the data wires plus any metadata bits that travel on dedicated
 * extra wires.
 *
 * Metadata is stored beat-major: bit (b * metaWiresPerBeat + w) is the value
 * driven on metadata wire w during beat b. Beats are busWidth-bit slices of
 * the payload in byte order.
 */
struct Encoded
{
    /**
     * Encoded payload; always the same size as the input transaction.
     * Defaults to the minimum transaction size so a default-constructed
     * Encoded can never masquerade as a valid 32-byte GPU encoding —
     * codecs reject mismatched geometry with CodecSizeError instead of
     * silently resizing scratch buffers to whatever they expect.
     */
    Transaction payload{Transaction::minBytes};

    /** Metadata bit values (0/1), beat-major; empty for metadata-free codecs. */
    std::vector<std::uint8_t> meta;

    /** Number of dedicated metadata wires this encoding occupies per beat. */
    unsigned metaWiresPerBeat = 0;

    /** Total `1` values across payload and metadata. */
    std::size_t ones() const;

    /** `1` values on metadata wires only. */
    std::size_t metaOnes() const;
};

/**
 * A transaction encoder/decoder.
 *
 * Each codec implements its scheme exactly once, as a pair of batch
 * kernels (encodeBatchKernel / decodeBatchKernel) over flat transaction
 * planes. Everything else is a non-virtual wrapper: encodeBatch and
 * decodeBatch validate the geometry and record telemetry, and the
 * per-transaction API (encode, decode, encodeInto, decodeInto) runs a
 * one-transaction batch through the same kernel.
 *
 * Codecs may be stateful (BD-Encoding keeps a repository of recent words on
 * each side of the channel); every entry point therefore takes the
 * transaction stream in transmission order. Stateless codecs (everything
 * the paper proposes) give identical results in any order. A codec owns
 * scratch buffers for its per-transaction wrappers, so one instance must
 * not be driven from two threads at once.
 */
class Codec
{
  public:
    virtual ~Codec() = default;

    /** Human-readable scheme name, e.g. "universal3+zdr". */
    virtual std::string name() const = 0;

    /** Encode one transaction for transmission / encoded storage. */
    Encoded encode(const Transaction &tx);

    /** Recover the original transaction from an encoding. */
    Transaction decode(const Encoded &enc);

    /**
     * Encode @p tx into @p out, reusing its buffers (the metadata
     * vector's capacity is kept across calls). Runs a one-transaction
     * batch through encodeBatchKernel using scratch batches owned by the
     * codec, so once those are sized the call allocates nothing. Unlike
     * encodeBatch it records no `batch_size` sample. @p out must not
     * alias @p tx.
     */
    void encodeInto(const Transaction &tx, Encoded &out);

    /**
     * Decode @p enc into @p out through a one-transaction decode batch;
     * the same validation as decodeBatch applies (CodecSizeError on a
     * metadata wire count or geometry the codec does not accept).
     */
    void decodeInto(const Encoded &enc, Transaction &out);

    /**
     * Batch encode: encode every transaction of @p in into @p out, which
     * is (re)configured to the batch's geometry. Validates the batch
     * geometry (throwing CodecSizeError on a mismatch), dispatches to
     * encodeBatchKernel(), and records the `bxt.codec.<spec>.batch_size`
     * histogram.
     *
     * Stateful codecs advance their channel state per transaction in
     * batch order, so splitting a stream into batches of any size gives
     * the same encodings (the adaptive codec, which switches only on
     * batch boundaries, is the deliberate exception).
     */
    void encodeBatch(const TxBatch &in, EncodedBatch &out);

    /**
     * Batch decode: recover every original transaction of @p in into
     * @p out. Inverse of encodeBatch; same validation and dispatch.
     */
    void decodeBatch(const EncodedBatch &in, TxBatch &out);

    /**
     * Number of dedicated metadata wires this codec drives per beat. This
     * is a static property of the codec's configuration (its group size and
     * the bus width it was configured for), so channel models can size the
     * bus before any data flows.
     */
    virtual unsigned metaWiresPerBeat() const { return 0; }

    /** Reset any channel-history state (repositories); default no-op. */
    virtual void reset() {}

    /**
     * True when encoding a transaction depends only on that transaction
     * (everything the paper proposes). Stateless, metadata-free codecs can
     * store their encoded form directly in DRAM; stateful link codecs
     * (BD-Encoding) cannot, because decode depends on transfer history.
     */
    virtual bool stateless() const { return true; }

  protected:
    /**
     * The codec's encoder: configure @p out to the batch geometry and
     * encode every transaction of @p in. The hand-written kernels are
     * checked against the naive reference codecs of src/verify
     * (src/verify/invariants.h).
     */
    virtual void encodeBatchKernel(const TxBatch &in, EncodedBatch &out) = 0;

    /** The codec's decoder: the inverse of encodeBatchKernel. */
    virtual void decodeBatchKernel(const EncodedBatch &in, TxBatch &out) = 0;

    /**
     * Run @p codec's kernels behind the same geometry checks as
     * encodeBatch / decodeBatch but without the `batch_size` sample.
     * Composite codecs (Pipeline, Adaptive) reach their member codecs
     * through these, so only the outermost call records a sample.
     */
    static void runEncodeKernel(Codec &codec, const TxBatch &in,
                                EncodedBatch &out);
    static void runDecodeKernel(Codec &codec, const EncodedBatch &in,
                                TxBatch &out);

  private:
    /** One-transaction scratch batches behind the per-transaction API. */
    TxBatch one_in_;
    EncodedBatch one_enc_;
    TxBatch one_out_;
};

/** Owning codec handle. */
using CodecPtr = std::unique_ptr<Codec>;

/**
 * The trivial codec: transmits data unchanged. This is the paper's
 * "baseline" conventional transfer scheme.
 */
class IdentityCodec : public Codec
{
  public:
    std::string name() const override { return "baseline"; }

  protected:
    void encodeBatchKernel(const TxBatch &in, EncodedBatch &out) override;
    void decodeBatchKernel(const EncodedBatch &in, TxBatch &out) override;
};

} // namespace bxt

#endif // BXT_CORE_CODEC_H
