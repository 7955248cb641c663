#include "proto/deluge.h"

#include <optional>
#include <vector>

#include "proto/layout.h"
#include "util/check.h"

namespace lrs::proto {

namespace {

class DelugeState final : public SchemeState {
 public:
  DelugeState(const CommonParams& params, std::size_t image_size)
      : params_(params),
        layout_(compute_layout(image_size, page_capacity(), page_capacity())),
        pages_(layout_.content_pages) {
    for (auto& page : pages_) page.assign(params_.k, std::nullopt);
  }

  /// Base-station constructor: pre-populates every page.
  DelugeState(const CommonParams& params, const Bytes& image)
      : DelugeState(params, image.size()) {
    for (std::size_t p = 1; p <= layout_.content_pages; ++p) {
      const Bytes slice = page_slice(view(image), layout_, p);
      auto blocks = split_blocks(view(slice), params_.k);
      for (std::size_t j = 0; j < params_.k; ++j) {
        LRS_CHECK(blocks[j].size() == params_.payload_size);
        pages_[p - 1][j] = std::move(blocks[j]);
      }
    }
    complete_pages_ = layout_.content_pages;
  }

  Version version() const override { return params_.version; }
  std::uint32_t num_pages() const override {
    return static_cast<std::uint32_t>(layout_.content_pages);
  }
  std::size_t packets_in_page(std::uint32_t) const override {
    return params_.k;
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
      for (const auto& block : pages_[p - 1]) {
        slice.insert(slice.end(), block->begin(), block->end());
      }
      slice.resize(p < layout_.content_pages ? layout_.mid_capacity
                                             : layout_.last_capacity);
      place_slice(image, layout_, p, view(slice));
    }
    return image;
  }

  BitVec request_bits(std::uint32_t page) const override {
    BitVec bits(params_.k);
    if (page >= pages_.size()) return bits;
    for (std::size_t j = 0; j < params_.k; ++j) {
      if (!pages_[page][j].has_value()) bits.set(j);
    }
    return bits;
  }

  std::size_t buffered_packets() const override {
    if (complete_pages_ >= pages_.size()) return 0;
    std::size_t n = 0;
    for (const auto& slot : pages_[complete_pages_]) n += slot.has_value();
    return n;
  }

  void on_reboot() override {
    // Completed pages live in flash; the in-progress page buffer is RAM.
    if (complete_pages_ >= pages_.size()) return;
    for (auto& slot : pages_[complete_pages_]) slot.reset();
  }

  DataStatus on_data(std::uint32_t page, std::uint32_t index,
                     ByteView payload, sim::NodeMetrics&,
                     RxDigestMemo*) override {
    if (page != complete_pages_ || page >= pages_.size()) {
      return DataStatus::kStale;
    }
    if (index >= params_.k) return DataStatus::kRejected;
    // No authentication whatsoever: only shape is checked.
    if (payload.size() != params_.payload_size) return DataStatus::kRejected;
    auto& slot = pages_[page][index];
    if (slot.has_value()) return DataStatus::kStale;
    slot = Bytes(payload.begin(), payload.end());

    if (request_bits(page).none()) {
      ++complete_pages_;
      return image_complete() ? DataStatus::kImageComplete
                              : DataStatus::kPageComplete;
    }
    return DataStatus::kStored;
  }

  bool verify_stored_packet(std::uint32_t page, std::uint32_t index,
                            ByteView payload, sim::NodeMetrics&,
                            RxDigestMemo*) const override {
    // Deluge has no packet authentication; only shape is checked.
    return page < complete_pages_ && index < params_.k &&
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
    if (page >= complete_pages_ || index >= params_.k) return std::nullopt;
    return pages_[page][index];
  }

  std::unique_ptr<TxScheduler> make_scheduler(
      std::uint32_t page) const override {
    return make_union_scheduler(packets_in_page(page));
  }

 private:
  std::size_t page_capacity() const {
    return params_.k * params_.payload_size;
  }

  CommonParams params_;
  PageLayout layout_;
  // pages_[p][j]: packet j of content page p+1 (engine page p).
  std::vector<std::vector<std::optional<Bytes>>> pages_;
  std::uint32_t complete_pages_ = 0;
};

}  // namespace

std::unique_ptr<SchemeState> make_deluge_source(const CommonParams& params,
                                                const Bytes& image) {
  return std::make_unique<DelugeState>(params, image);
}

std::unique_ptr<SchemeState> make_deluge_receiver(const CommonParams& params,
                                                  std::size_t image_size) {
  return std::make_unique<DelugeState>(params, image_size);
}

}  // namespace lrs::proto
