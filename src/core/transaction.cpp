#include "core/transaction.h"

#include <cctype>
#include <cstring>

#include "common/bitops.h"
#include "common/error.h"
#include "core/simd/simd.h"

namespace bxt {
namespace {

bool
validSize(std::size_t size)
{
    return isPowerOfTwo(size) && size >= Transaction::minBytes &&
           size <= Transaction::maxBytes;
}

} // namespace

Transaction::Transaction(std::size_t size) : size_(size)
{
    BXT_ASSERT(validSize(size));
    data_.fill(0);
}

Transaction::Transaction(std::span<const std::uint8_t> bytes)
    : size_(bytes.size())
{
    BXT_ASSERT(validSize(size_));
    data_.fill(0);
    std::memcpy(data_.data(), bytes.data(), size_);
}

Transaction
Transaction::fromWords32(std::initializer_list<std::uint32_t> words)
{
    Transaction tx(words.size() * 4);
    std::size_t offset = 0;
    for (std::uint32_t w : words) {
        tx.setWord32(offset, w);
        offset += 4;
    }
    return tx;
}

Transaction
Transaction::fromWords64(std::initializer_list<std::uint64_t> words)
{
    Transaction tx(words.size() * 8);
    std::size_t offset = 0;
    for (std::uint64_t w : words) {
        tx.setWord64(offset, w);
        offset += 8;
    }
    return tx;
}

Transaction
Transaction::fromHex(const std::string &hex)
{
    std::string digits;
    digits.reserve(hex.size());
    for (char c : hex) {
        if (std::isspace(static_cast<unsigned char>(c)))
            continue;
        if (!std::isxdigit(static_cast<unsigned char>(c)))
            fatal("Transaction::fromHex: non-hex character in input");
        digits += c;
    }
    if (digits.size() % 2 != 0 || !validSize(digits.size() / 2))
        fatal("Transaction::fromHex: bad input length");

    auto nibble = [](char c) -> std::uint8_t {
        if (c >= '0' && c <= '9')
            return static_cast<std::uint8_t>(c - '0');
        if (c >= 'a' && c <= 'f')
            return static_cast<std::uint8_t>(c - 'a' + 10);
        return static_cast<std::uint8_t>(c - 'A' + 10);
    };

    Transaction tx(digits.size() / 2);
    for (std::size_t i = 0; i < tx.size(); ++i) {
        tx.data()[i] = static_cast<std::uint8_t>(
            (nibble(digits[2 * i]) << 4) | nibble(digits[2 * i + 1]));
    }
    return tx;
}

std::size_t
Transaction::ones() const
{
    return static_cast<std::size_t>(
        simd::ops().popcountRange(data_.data(), size_));
}

bool
Transaction::isZero() const
{
    return allZero(data_.data(), size_);
}

std::uint32_t
Transaction::word32(std::size_t offset) const
{
    BXT_ASSERT(offset + 4 <= size_);
    return loadWord32(data_.data() + offset);
}

void
Transaction::setWord32(std::size_t offset, std::uint32_t value)
{
    BXT_ASSERT(offset + 4 <= size_);
    storeWord32(data_.data() + offset, value);
}

std::uint64_t
Transaction::word64(std::size_t offset) const
{
    BXT_ASSERT(offset + 8 <= size_);
    return loadWord64(data_.data() + offset);
}

void
Transaction::setWord64(std::size_t offset, std::uint64_t value)
{
    BXT_ASSERT(offset + 8 <= size_);
    storeWord64(data_.data() + offset, value);
}

std::string
Transaction::toHex() const
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    out.reserve(size_ * 2 + size_ / 4);
    for (std::size_t i = 0; i < size_; ++i) {
        if (i != 0 && i % 4 == 0)
            out += ' ';
        out += digits[data_[i] >> 4];
        out += digits[data_[i] & 0xf];
    }
    return out;
}

bool
Transaction::operator==(const Transaction &other) const
{
    return size_ == other.size_ &&
           std::memcmp(data_.data(), other.data_.data(), size_) == 0;
}

} // namespace bxt
