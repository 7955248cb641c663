#include "core/lr_image.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "core/greedy_scheduler.h"
#include "crypto/merkle.h"
#include "crypto/puzzle.h"
#include "erasure/code.h"
#include "proto/layout.h"
#include "proto/packet.h"
#include "util/check.h"

namespace lrs::core {

namespace {

using proto::CommonParams;
using proto::compute_layout;
using proto::DataStatus;
using proto::PageLayout;
using proto::page_slice;
using proto::place_slice;
using proto::SignedMeta;

class LrSelugeState final : public proto::SchemeState {
 public:
  /// Receiver: empty until the signature packet verifies.
  LrSelugeState(const CommonParams& params, const crypto::PacketHash& root_pk)
      : params_(params),
        root_pk_(root_pk),
        // Cached: every node of a simulation (and every Monte Carlo trial)
        // shares one generator matrix per (codec, geometry, seed) instead of
        // rebuilding it per LrSelugeState.
        code_(erasure::make_code_cached(params.codec, params.k, params.n,
                                        params.delta, params.code_seed)),
        code0_(erasure::make_code_cached(params.codec, params.k0, params.n0,
                                         std::min(params.delta,
                                                  params.n0 - params.k0),
                                         params.code_seed ^ 0x9e3779b9ULL)) {
    validate_lr_params(params_);
  }

  /// Base station: preprocess + sign.
  LrSelugeState(const CommonParams& params, const Bytes& image,
                crypto::MultiKeySigner& signer)
      : LrSelugeState(params, signer.root_public_key()) {
    build_from_image(image, signer);
  }

  // --- geometry --------------------------------------------------------------

  Version version() const override { return params_.version; }

  /// Every member is value-copyable and the codec instances are shared
  /// through the process-wide cache, so the default copy constructor IS the
  /// cheap clone: the hash chain, decoded pages, Merkle root and signature
  /// frame are duplicated as bytes, never recomputed, and no one-time
  /// signing key is consumed. Only complete (serving-ready) states clone —
  /// a partially-filled receiver has nothing a fresh cell could serve.
  std::unique_ptr<proto::SchemeState> clone_source() const override {
    if (!image_complete()) return nullptr;
    return std::make_unique<LrSelugeState>(*this);
  }

  std::uint32_t num_pages() const override {
    return meta_ ? meta_->content_pages + 1 : 0;
  }

  std::size_t packets_in_page(std::uint32_t page) const override {
    return page == 0 ? params_.n0 : params_.n;
  }

  std::size_t decode_threshold(std::uint32_t page) const override {
    return page == 0 ? code0_->decode_threshold() : code_->decode_threshold();
  }

  // --- receiver --------------------------------------------------------------

  std::uint32_t pages_complete() const override { return complete_pages_; }

  bool image_complete() const override {
    return meta_ && complete_pages_ == meta_->content_pages + 1;
  }

  Bytes assemble_image() const override {
    LRS_CHECK_MSG(image_complete(), "image not complete yet");
    const PageLayout layout = current_layout();
    Bytes image(layout.image_size, 0);
    const std::size_t g = meta_->content_pages;
    for (std::size_t p = 1; p <= g; ++p) {
      place_slice(image, layout, p,
                  view(pages_).subspan((p - 1) * page_bytes(),
                                       p < g ? layout.mid_capacity
                                             : layout.last_capacity));
    }
    return image;
  }

  BitVec request_bits(std::uint32_t page) const override {
    const std::size_t count = packets_in_page(page);
    BitVec bits(count);
    if (!meta_ || page != complete_pages_) return bits;
    for (std::size_t j = 0; j < count; ++j) {
      if (!have_.get(j)) bits.set(j);
    }
    return bits;
  }

  std::size_t buffered_packets() const override {
    return image_complete() ? 0 : shares_.size();
  }

  void on_reboot() override {
    // Decoded pages and the verified signature metadata are flash-backed;
    // the partially collected share set for the current page is not.
    if (!meta_ || image_complete()) return;
    reset_collection(complete_pages_);
    serve_cache_.clear();
  }

  DataStatus on_data(std::uint32_t page, std::uint32_t index,
                     ByteView payload, sim::NodeMetrics& m,
                     proto::RxDigestMemo* dig) override {
    if (!meta_) return DataStatus::kStale;  // cannot authenticate yet
    if (page != complete_pages_ || page > meta_->content_pages) {
      return DataStatus::kStale;
    }
    const std::size_t count = packets_in_page(page);
    if (index >= count) {
      m.auth_failures += 1;
      return DataStatus::kRejected;
    }
    if (have_.get(index)) return DataStatus::kStale;

    if (page == 0) {
      if (!verify_page0_packet(index, payload, m)) {
        m.auth_failures += 1;
        return DataStatus::kRejected;
      }
      // Keep only the encoded block; auth paths are regenerated on demand.
      shares_.push_back(
          {index, Bytes(payload.begin(),
                        payload.begin() +
                            static_cast<std::ptrdiff_t>(page0_block_size()))});
    } else {
      m.hash_verifications += 1;
      if (payload.size() != params_.payload_size ||
          !crypto::equal(content_digest(page, index, payload, dig),
                         expected_hash(page, index))) {
        m.auth_failures += 1;
        return DataStatus::kRejected;
      }
      shares_.push_back({index, Bytes(payload.begin(), payload.end())});
    }
    have_.set(index);

    // Enough authenticated packets? Attempt the erasure decode.
    if (shares_.size() >= decode_threshold(page)) {
      m.decode_operations += 1;
      const auto& codec = page == 0 ? code0_ : code_;
      if (auto blocks = codec->decode(shares_)) {
        finish_page(page, *blocks);
        return image_complete() ? DataStatus::kImageComplete
                                : DataStatus::kPageComplete;
      }
      // Probabilistic code needed more rank; keep collecting.
    }
    return DataStatus::kStored;
  }

  // --- signature --------------------------------------------------------------

  bool verify_stored_packet(std::uint32_t page, std::uint32_t index,
                            ByteView payload, sim::NodeMetrics& m,
                            proto::RxDigestMemo* dig) const override {
    if (!meta_ || page >= complete_pages_ || index >= packets_in_page(page))
      return false;
    if (page == 0) return verify_page0_packet(index, payload, m);
    if (payload.size() != params_.payload_size) return false;
    m.hash_verifications += 1;
    return crypto::equal(content_digest(page, index, payload, dig),
                         expected_hash(page, index));
  }

  /// Packet-content digest with the cross-receiver memo: the preimage is
  /// identical for every receiver of one delivery, so the first computation
  /// is shared. Accounting (hash_verifications) stays with the caller.
  crypto::PacketHash content_digest(std::uint32_t page, std::uint32_t index,
                                    ByteView payload,
                                    proto::RxDigestMemo* dig) const {
    if (dig && dig->valid) return dig->digest;
    crypto::PacketHash h =
        proto::data_packet_hash(params_.version, page, index, payload);
    if (dig) {
      dig->digest = h;
      dig->valid = true;
    }
    return h;
  }

  bool needs_signature() const override { return true; }
  bool bootstrapped() const override { return meta_.has_value(); }

  bool on_signature(ByteView frame, sim::NodeMetrics& m,
                    proto::SignatureMemo* memo) override {
    if (meta_) return false;
    const auto packet =
        proto::check_signature(frame, params_, root_pk_, m, memo);
    if (!packet) return false;
    adopt_meta(packet->meta, packet->root);
    signature_frame_ = Bytes(frame.begin(), frame.end());
    return true;
  }

  std::optional<Bytes> signature_frame() const override {
    return signature_frame_;
  }

  // --- sender ----------------------------------------------------------------

  std::optional<Bytes> packet_payload(std::uint32_t page,
                                      std::uint32_t index) override {
    if (!meta_ || page >= complete_pages_ ||
        index >= packets_in_page(page)) {
      return std::nullopt;
    }
    const ByteView packet =
        encoded_page(page).subspan(index * packet_size(page),
                                   packet_size(page));
    return Bytes(packet.begin(), packet.end());
  }

  std::unique_ptr<proto::TxScheduler> make_scheduler(
      std::uint32_t page) const override {
    if (!params_.lr_greedy_scheduler)
      return proto::make_union_scheduler(packets_in_page(page));
    return make_greedy_scheduler(packets_in_page(page));
  }

 private:
  // --- geometry helpers -------------------------------------------------------

  std::size_t hash_block_bytes() const {
    return params_.n * crypto::kPacketHashSize;  // appended per mid page
  }
  std::size_t page0_bytes() const { return hash_block_bytes(); }
  std::size_t page0_block_size() const {
    return (page0_bytes() + params_.k0 - 1) / params_.k0;
  }
  std::size_t merkle_depth() const {
    std::size_t d = 0;
    while ((std::size_t{1} << d) < params_.n0) ++d;
    return d;
  }
  /// Bytes of one served packet: the encoded block, plus the Merkle
  /// authentication path on page 0.
  std::size_t packet_size(std::uint32_t page) const {
    return page == 0 ? page0_block_size() +
                           merkle_depth() * crypto::kPacketHashSize
                     : params_.payload_size;
  }
  /// Bytes of one decoded content page: k blocks of payload_size.
  std::size_t page_bytes() const { return params_.k * params_.payload_size; }

  PageLayout current_layout() const {
    LRS_CHECK(meta_.has_value());
    PageLayout l = compute_layout(meta_->image_size, mid_capacity(),
                                  last_capacity());
    LRS_CHECK_MSG(l.content_pages == meta_->content_pages,
                  "signed geometry disagrees with preloaded parameters");
    return l;
  }

  std::size_t mid_capacity() const {
    return params_.k * params_.payload_size - hash_block_bytes();
  }
  std::size_t last_capacity() const { return page_bytes(); }

  void adopt_meta(const SignedMeta& meta, const crypto::PacketHash& root) {
    LRS_CHECK(meta.content_pages >= 1 && meta.image_size >= 1);
    meta_ = meta;
    root_ = root;
    // Sized once: growing page by page would leave doubling slack on
    // every node.
    m0_.reserve(params_.k0 * page0_block_size());
    pages_.reserve(meta.content_pages * page_bytes());
    reset_collection(0);
  }

  void reset_collection(std::uint32_t page) {
    shares_.clear();
    have_ = BitVec(packets_in_page(page));
  }

  // --- verification helpers ----------------------------------------------------

  bool verify_page0_packet(std::uint32_t index, ByteView payload,
                           sim::NodeMetrics& m) const {
    const std::size_t depth = merkle_depth();
    const std::size_t block = page0_block_size();
    if (payload.size() != packet_size(0)) return false;
    std::vector<crypto::PacketHash> path;
    path.reserve(depth);
    for (std::size_t lvl = 0; lvl < depth; ++lvl) {
      path.push_back(crypto::read_packet_hash(
          payload, block + lvl * crypto::kPacketHashSize));
    }
    m.hash_verifications += depth + 1;
    return crypto::equal(crypto::MerkleTree::compute_root(
                             payload.subspan(0, block), index, path),
                         root_);
  }

  /// Authenticator of packet `index` of content page `page` (>= 1), read
  /// where it was authenticated: M0 holds page 1's, and the tail of page
  /// p - 1's decoded content holds page p's.
  crypto::PacketHash expected_hash(std::uint32_t page,
                                   std::size_t index) const {
    const std::size_t off = index * crypto::kPacketHashSize;
    if (page == 1) return crypto::read_packet_hash(view(m0_), off);
    return crypto::read_packet_hash(
        view(pages_), (page - 2) * page_bytes() + mid_capacity() + off);
  }

  // --- page completion -----------------------------------------------------------

  void finish_page(std::uint32_t page, const std::vector<Bytes>& blocks) {
    Bytes& decoded = page == 0 ? m0_ : pages_;
    for (const auto& b : blocks)
      decoded.insert(decoded.end(), b.begin(), b.end());
    ++complete_pages_;
    if (image_complete()) {
      // Nothing left to collect: give the share and bitmap storage back.
      std::vector<erasure::Share>().swap(shares_);
      have_ = BitVec();
    } else {
      reset_collection(complete_pages_);
    }
  }

  // --- serving ----------------------------------------------------------------

  /// Regenerates (and caches) all packets of a completed page, back to back.
  ByteView encoded_page(std::uint32_t page) {
    if (!serve_cache_.empty() && serve_page_ == page) return view(serve_cache_);

    Bytes packets;
    packets.reserve(packets_in_page(page) * packet_size(page));
    if (page == 0) {
      const auto encoded = code0_->encode(
          proto::split_fixed(view(m0_), page0_block_size(), params_.k0));
      const auto tree = crypto::MerkleTree::build(encoded);
      for (std::size_t j = 0; j < params_.n0; ++j) {
        packets.insert(packets.end(), encoded[j].begin(), encoded[j].end());
        for (const auto& sib : tree.auth_path(j)) crypto::append(packets, sib);
      }
    } else {
      const auto encoded = code_->encode(proto::split_fixed(
          view(pages_).subspan((page - 1) * page_bytes(), page_bytes()),
          params_.payload_size, params_.k));
      for (const auto& e : encoded)
        packets.insert(packets.end(), e.begin(), e.end());
    }
    serve_page_ = page;
    serve_cache_ = std::move(packets);
    return view(serve_cache_);
  }

  // --- build (base station) -----------------------------------------------------

  void build_from_image(const Bytes& image, crypto::MultiKeySigner& signer) {
    const PageLayout layout =
        compute_layout(image.size(), mid_capacity(), last_capacity());
    const std::size_t g = layout.content_pages;

    SignedMeta meta;
    meta.version = params_.version;
    meta.content_pages = static_cast<std::uint32_t>(g);
    meta.image_size = static_cast<std::uint32_t>(image.size());

    // Fill the receivers' layout back to front: page p's packet hashes go
    // where they will be read, the tail of page p - 1 (M0 for page 1), so
    // page p - 1's input is complete when the loop reaches it.
    Bytes pages(g * page_bytes(), 0);
    Bytes m0(params_.k0 * page0_block_size(), 0);
    for (std::size_t p = g; p >= 1; --p) {
      const auto input = MutByteView(pages).subspan((p - 1) * page_bytes(),
                                                    page_bytes());
      const Bytes slice = page_slice(view(image), layout, p);
      std::copy(slice.begin(), slice.end(), input.begin());
      auto encoded = code_->encode(
          proto::split_fixed(input, params_.payload_size, params_.k));
      // All n preimages share one length, so the whole page hashes as a
      // single multi-buffer batch (crypto/hash.h).
      std::vector<Bytes> preimages(params_.n);
      std::vector<ByteView> preimage_views(params_.n);
      for (std::size_t j = 0; j < params_.n; ++j) {
        proto::DataPacket probe;
        probe.version = params_.version;
        probe.page = static_cast<std::uint32_t>(p);
        probe.index = static_cast<std::uint32_t>(j);
        probe.payload = std::move(encoded[j]);
        preimages[j] = probe.hash_preimage();
        preimage_views[j] = view(preimages[j]);
      }
      std::vector<crypto::PacketHash> hashes(params_.n);
      crypto::packet_hash_batch(preimage_views.data(), params_.n,
                                hashes.data());
      std::uint8_t* dst =
          p == 1 ? m0.data()
                 : pages.data() + (p - 2) * page_bytes() + mid_capacity();
      for (const auto& h : hashes) dst = std::copy(h.begin(), h.end(), dst);
    }

    // Hash page: M0 = h_{1,1} || ... || h_{1,n}, coded with f0, Merkle tree.
    const auto encoded0 = code0_->encode(
        proto::split_fixed(view(m0), page0_block_size(), params_.k0));
    const auto tree = crypto::MerkleTree::build(encoded0);

    proto::SignaturePacket sig;
    sig.meta = meta;
    sig.root = tree.root();
    const Bytes msg = sig.signed_message();
    sig.puzzle = crypto::solve_puzzle(view(msg), params_.puzzle_strength);
    sig.signature = signer.sign(view(msg)).serialize();

    // Adopt as fully complete.
    adopt_meta(meta, tree.root());
    m0_ = std::move(m0);
    pages_ = std::move(pages);
    complete_pages_ = static_cast<std::uint32_t>(g + 1);
    signature_frame_ = sig.serialize();
    have_ = BitVec();
  }

  CommonParams params_;
  crypto::PacketHash root_pk_;
  std::shared_ptr<const erasure::ErasureCode> code_;   // k -> n, cached
  std::shared_ptr<const erasure::ErasureCode> code0_;  // k0 -> n0, cached

  std::optional<SignedMeta> meta_;
  crypto::PacketHash root_{};
  std::optional<Bytes> signature_frame_;

  // Decoded (flash-backed) state: M0's k0 blocks back to back, and content
  // pages 1.. back to back, page_bytes() each. Below page g a page's tail,
  // from mid_capacity(), holds the next page's packet hashes, so every
  // packet hash is read from where it was authenticated (expected_hash).
  Bytes m0_;
  Bytes pages_;

  // Collection state for the page currently being received; released once
  // the image is complete.
  std::vector<erasure::Share> shares_;
  BitVec have_;

  std::uint32_t complete_pages_ = 0;
  // The packets of page serve_page_, back to back; empty when nothing is
  // cached.
  std::uint32_t serve_page_ = 0;
  Bytes serve_cache_;
};

}  // namespace

void validate_lr_params(const proto::CommonParams& params) {
  LRS_CHECK_MSG(params.k >= 1 && params.k <= params.n,
                "need 1 <= k <= n");
  LRS_CHECK_MSG(params.k0 >= 1 && params.k0 <= params.n0,
                "need 1 <= k0 <= n0");
  LRS_CHECK_MSG((params.n0 & (params.n0 - 1)) == 0,
                "n0 must be a power of two (Merkle tree)");
  LRS_CHECK_MSG(
      params.k * params.payload_size > params.n * crypto::kPacketHashSize,
      "page too small to carry the next page's hash images");
}

std::unique_ptr<proto::SchemeState> make_lr_source(
    const proto::CommonParams& params, const Bytes& image,
    crypto::MultiKeySigner& signer) {
  return std::make_unique<LrSelugeState>(params, image, signer);
}

std::unique_ptr<proto::SchemeState> make_lr_receiver(
    const proto::CommonParams& params,
    const crypto::PacketHash& root_public_key) {
  return std::make_unique<LrSelugeState>(params, root_public_key);
}

}  // namespace lrs::core
