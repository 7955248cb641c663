#include "proto/rateless.h"

#include <optional>
#include <vector>

#include "erasure/gf256.h"
#include "erasure/matrix.h"
#include "proto/layout.h"
#include "util/check.h"
#include "util/rng.h"

namespace lrs::proto {

namespace {

std::uint64_t coeff_seed(std::uint64_t base, std::uint32_t page,
                         std::uint32_t index) {
  std::uint64_t z = base ^ (static_cast<std::uint64_t>(page) << 32) ^ index;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic coefficient row for encoded packet (page, index):
/// systematic for index < k, pseudorandom dense GF(256) otherwise.
Bytes coefficient_row(std::uint64_t seed, std::size_t k, std::uint32_t page,
                      std::uint32_t index) {
  Bytes row(k, 0);
  if (index < k) {
    row[index] = 1;
    return row;
  }
  Rng rng(coeff_seed(seed, page, index));
  bool nonzero = false;
  do {
    for (auto& c : row) {
      c = static_cast<std::uint8_t>(rng.uniform(256));
      nonzero = nonzero || c != 0;
    }
  } while (!nonzero);
  return row;
}

/// Rateless service: a requester asking for d more packets is satisfied by
/// ANY d fresh combinations, and one fresh packet serves every concurrent
/// requester at once — so the outstanding demand is the max, not the sum.
class FreshScheduler final : public TxScheduler {
 public:
  explicit FreshScheduler(std::size_t window) : window_(window) {}

  void on_snack(NodeId, const BitVec& requested, std::size_t needed) override {
    LRS_CHECK(requested.size() == window_);
    pending_ = std::max(pending_, needed);
  }

  std::optional<std::uint32_t> next_packet() override {
    if (pending_ == 0) return std::nullopt;
    --pending_;
    const std::uint32_t idx = next_;
    next_ = (next_ + 1) % static_cast<std::uint32_t>(window_);
    return idx;
  }

  void on_overheard_data(std::uint32_t) override {
    if (pending_ > 0) --pending_;
  }

  void set_start(std::uint32_t index) override {
    next_ = index % static_cast<std::uint32_t>(window_);
  }

  bool idle() const override { return pending_ == 0; }
  std::size_t backlog() const override { return pending_; }

 private:
  std::size_t window_;
  std::size_t pending_ = 0;
  std::uint32_t next_ = 0;
};

class RatelessState final : public SchemeState {
 public:
  RatelessState(const CommonParams& params, std::size_t image_size)
      : params_(params),
        layout_(compute_layout(image_size, page_capacity(), page_capacity())),
        pages_(layout_.content_pages) {
    reset_collection();
  }

  RatelessState(const CommonParams& params, const Bytes& image)
      : RatelessState(params, image.size()) {
    for (std::size_t p = 1; p <= layout_.content_pages; ++p) {
      const Bytes slice = page_slice(view(image), layout_, p);
      pages_[p - 1] = split_fixed(view(slice), params_.payload_size,
                                  params_.k);
    }
    complete_pages_ = static_cast<std::uint32_t>(layout_.content_pages);
  }

  Version version() const override { return params_.version; }
  std::uint32_t num_pages() const override {
    return static_cast<std::uint32_t>(layout_.content_pages);
  }
  std::size_t packets_in_page(std::uint32_t) const override {
    return window();
  }
  std::size_t decode_threshold(std::uint32_t) const override {
    return params_.k;
  }

  std::uint32_t pages_complete() const override { return complete_pages_; }
  bool image_complete() const override {
    return complete_pages_ == layout_.content_pages;
  }

  Bytes assemble_image() const override {
    LRS_CHECK_MSG(image_complete(), "image not complete yet");
    Bytes image(layout_.image_size, 0);
    for (std::size_t p = 1; p <= layout_.content_pages; ++p) {
      Bytes slice;
      for (const auto& block : pages_[p - 1])
        slice.insert(slice.end(), block.begin(), block.end());
      slice.resize(p < layout_.content_pages ? layout_.mid_capacity
                                             : layout_.last_capacity);
      place_slice(image, layout_, p, view(slice));
    }
    return image;
  }

  BitVec request_bits(std::uint32_t page) const override {
    BitVec bits(window());
    if (page != complete_pages_ || page >= pages_.size()) return bits;
    for (std::size_t j = 0; j < window(); ++j) {
      if (!have_.get(j)) bits.set(j);
    }
    return bits;
  }

  std::size_t buffered_packets() const override {
    if (image_complete()) return 0;
    std::size_t n = 0;
    for (std::size_t j = 0; j < window(); ++j) n += have_.get(j);
    return n;
  }

  void on_reboot() override {
    // Decoded pages persist; the partial elimination state is RAM.
    if (!image_complete()) reset_collection();
  }

  DataStatus on_data(std::uint32_t page, std::uint32_t index,
                     ByteView payload, sim::NodeMetrics& m,
                     RxDigestMemo*) override {
    if (page != complete_pages_ || page >= pages_.size()) {
      return DataStatus::kStale;
    }
    if (index >= window() || payload.size() != params_.payload_size) {
      return DataStatus::kRejected;
    }
    if (have_.get(index)) return DataStatus::kStale;
    have_.set(index);
    // NO authentication: any well-formed combination enters the decoder —
    // exactly the exposure LR-Seluge eliminates.
    const Bytes row =
        coefficient_row(params_.code_seed, params_.k, page + 1, index);
    const bool innovative = eliminator_->add(view(row), payload);
    if (!innovative) return DataStatus::kStale;
    if (eliminator_->complete()) {
      m.decode_operations += 1;
      pages_[page] = eliminator_->solve();
      ++complete_pages_;
      reset_collection();
      return image_complete() ? DataStatus::kImageComplete
                              : DataStatus::kPageComplete;
    }
    return DataStatus::kStored;
  }

  bool verify_stored_packet(std::uint32_t page, std::uint32_t index,
                            ByteView payload, sim::NodeMetrics&,
                            RxDigestMemo*) const override {
    return page < complete_pages_ && index < window() &&
           payload.size() == params_.payload_size;
  }

  bool needs_signature() const override { return false; }
  bool bootstrapped() const override { return true; }
  bool on_signature(ByteView, sim::NodeMetrics&, SignatureMemo*) override {
    return false;
  }
  std::optional<Bytes> signature_frame() const override {
    return std::nullopt;
  }

  std::optional<Bytes> packet_payload(std::uint32_t page,
                                      std::uint32_t index) override {
    if (page >= complete_pages_ || index >= window()) return std::nullopt;
    const auto& blocks = pages_[page];
    if (index < params_.k) return blocks[index];
    const Bytes row =
        coefficient_row(params_.code_seed, params_.k, page + 1, index);
    Bytes out(params_.payload_size, 0);
    for (std::size_t j = 0; j < params_.k; ++j) {
      erasure::Gf256::addmul(MutByteView(out.data(), out.size()),
                             view(blocks[j]), row[j]);
    }
    return out;
  }

  std::unique_ptr<TxScheduler> make_scheduler(
      std::uint32_t) const override {
    return std::make_unique<FreshScheduler>(window());
  }

 private:
  std::size_t page_capacity() const {
    return params_.k * params_.payload_size;
  }
  std::size_t window() const { return kRatelessWindowFactor * params_.k; }

  void reset_collection() {
    eliminator_ = std::make_unique<erasure::Gf256Eliminator>(
        params_.k, params_.payload_size);
    have_ = BitVec(window());
  }

  CommonParams params_;
  PageLayout layout_;
  std::vector<std::vector<Bytes>> pages_;  // decoded blocks per page
  std::unique_ptr<erasure::Gf256Eliminator> eliminator_;
  BitVec have_;
  std::uint32_t complete_pages_ = 0;
};

}  // namespace

std::unique_ptr<SchemeState> make_rateless_source(const CommonParams& params,
                                                  const Bytes& image) {
  return std::make_unique<RatelessState>(params, image);
}

std::unique_ptr<SchemeState> make_rateless_receiver(
    const CommonParams& params, std::size_t image_size) {
  return std::make_unique<RatelessState>(params, image_size);
}

}  // namespace lrs::proto
