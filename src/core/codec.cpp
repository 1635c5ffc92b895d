#include "core/codec.h"

#include <algorithm>
#include <cstring>

#include "common/error.h"
#include "telemetry/metrics.h"

namespace bxt {

namespace {

/** memcpy that tolerates empty ranges (vector data() may be null). */
void
copyBytes(std::uint8_t *dst, const std::uint8_t *src, std::size_t n)
{
    if (n != 0)
        std::memcpy(dst, src, n);
}

} // namespace

std::size_t
Encoded::ones() const
{
    return payload.ones() + metaOnes();
}

std::size_t
Encoded::metaOnes() const
{
    std::size_t count = 0;
    for (std::uint8_t bit : meta)
        count += bit;
    return count;
}

Encoded
Codec::encode(const Transaction &tx)
{
    Encoded enc;
    encodeInto(tx, enc);
    return enc;
}

Transaction
Codec::decode(const Encoded &enc)
{
    Transaction tx(enc.payload.size());
    decodeInto(enc, tx);
    return tx;
}

void
Codec::encodeInto(const Transaction &tx, Encoded &out)
{
    one_in_.reset(tx.size());
    one_in_.append(tx.data(), 1);
    runEncodeKernel(*this, one_in_, one_enc_);
    out.payload = Transaction(one_enc_.payload(0));
    out.meta.assign(one_enc_.meta(0).begin(), one_enc_.meta(0).end());
    out.metaWiresPerBeat = one_enc_.metaWiresPerBeat();
}

void
Codec::decodeInto(const Encoded &enc, Transaction &out)
{
    const std::size_t tx_bytes = enc.payload.size();
    one_enc_.configure(tx_bytes, enc.metaWiresPerBeat, enc.meta.size());
    one_enc_.resizeForOverwrite(1);
    std::memcpy(one_enc_.payloadData(), enc.payload.data(), tx_bytes);
    std::copy(enc.meta.begin(), enc.meta.end(), one_enc_.meta(0).begin());
    runDecodeKernel(*this, one_enc_, one_out_);
    out = Transaction(one_out_.tx(0));
}

void
Codec::runEncodeKernel(Codec &codec, const TxBatch &in, EncodedBatch &out)
{
    if (in.txBytes() == 0)
        throw CodecSizeError("encodeBatch: batch has no geometry");
    codec.encodeBatchKernel(in, out);
    BXT_ASSERT(out.size() == in.size() && out.txBytes() == in.txBytes());
}

void
Codec::runDecodeKernel(Codec &codec, const EncodedBatch &in, TxBatch &out)
{
    if (in.txBytes() == 0)
        throw CodecSizeError("decodeBatch: batch has no geometry");
    if (in.metaWiresPerBeat() != codec.metaWiresPerBeat()) {
        throw CodecSizeError(
            "decodeBatch: batch carries " +
            std::to_string(in.metaWiresPerBeat()) +
            " metadata wires/beat but codec " + codec.name() +
            " expects " + std::to_string(codec.metaWiresPerBeat()));
    }
    codec.decodeBatchKernel(in, out);
    BXT_ASSERT(out.size() == in.size() && out.txBytes() == in.txBytes());
}

void
Codec::encodeBatch(const TxBatch &in, EncodedBatch &out)
{
    runEncodeKernel(*this, in, out);
    if (telemetry::metricsEnabled()) {
        telemetry::histogram("bxt.codec." +
                             telemetry::sanitizeMetricName(name()) +
                             ".batch_size")
            .record(in.size());
    }
}

void
Codec::decodeBatch(const EncodedBatch &in, TxBatch &out)
{
    runDecodeKernel(*this, in, out);
}

void
IdentityCodec::encodeBatchKernel(const TxBatch &in, EncodedBatch &out)
{
    // The whole batch is one plane copy (resizeForOverwrite: the copy
    // covers the plane, so no zero-fill pass precedes it).
    out.configure(in.txBytes(), 0, 0);
    out.resizeForOverwrite(in.size());
    copyBytes(out.payloadData(), in.data(), in.planeBytes());
}

void
IdentityCodec::decodeBatchKernel(const EncodedBatch &in, TxBatch &out)
{
    out.reset(in.txBytes());
    out.resizeForOverwrite(in.size());
    copyBytes(out.data(), in.payloadData(), in.payloadBytes());
}

} // namespace bxt
