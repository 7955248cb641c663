#include "crypto/sha256.h"

#include <cstring>

#include "crypto/sha256_kernels.h"
#include "sim/stats/stats.h"
#include "util/check.h"

namespace lrs::crypto {

Sha256::Sha256()
    : state_{kSha256Init[0], kSha256Init[1], kSha256Init[2], kSha256Init[3],
             kSha256Init[4], kSha256Init[5], kSha256Init[6], kSha256Init[7]} {}

Sha256& Sha256::update(ByteView data) {
  LRS_CHECK(!finalized_);
  const Sha256Kernel& kernel = sha256_kernel();
  total_len_ += data.size();
  std::size_t offset = 0;

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ == 64) {
      kernel.compress(state_.data(), buffer_.data(), 1);
      buffer_len_ = 0;
    }
  }
  // All remaining whole blocks in one kernel call.
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    kernel.compress(state_.data(), data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
  return *this;
}

Sha256Digest Sha256::finalize() {
  LRS_CHECK(!finalized_);
  finalized_ = true;

  // Append 0x80, pad with zeros to 56 mod 64, then the 64-bit big-endian
  // message length — written straight into the block buffer (this runs
  // once per digest, which in MAC-heavy simulations means millions of
  // short messages; the byte-shuffling here is as hot as the compression).
  const Sha256Kernel& kernel = sha256_kernel();
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    kernel.compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  kernel.compress(state_.data(), buffer_.data(), 1);

  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Sha256Midstate Sha256::midstate() const {
  LRS_CHECK(!finalized_ && buffer_len_ == 0);
  return {state_, total_len_};
}

Sha256 Sha256::resume(const Sha256Midstate& m) {
  Sha256 ctx;
  ctx.state_ = m.state;
  ctx.total_len_ = m.processed;
  return ctx;
}

Sha256Digest Sha256::hash(ByteView data) {
  static stats::Timer& timer =
      stats::Registry::instance().timer("crypto.sha.oneshot");
  stats::TimerScope scope(timer);
  Sha256 ctx;
  ctx.update(data);
  return ctx.finalize();
}

}  // namespace lrs::crypto
