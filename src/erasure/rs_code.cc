// Systematic MDS Reed-Solomon code from a Cauchy construction.
//
// Generator G (n x k) = [ I_k ; C ] where C[r][j] = 1/(x_r + y_j) with
// x_r = r for parity row r in [0, n-k) and y_j = (n-k) + j for column j —
// all 2n-k points distinct, so every square submatrix of C is Cauchy and
// hence invertible, which makes every k x k submatrix of G invertible:
// expanding any selected identity rows reduces the determinant to a Cauchy
// minor. This is the classic Cauchy-RS construction (as used in Jerasure).
#include "erasure/code.h"
#include "erasure/gf256.h"
#include "erasure/matrix.h"
#include "sim/stats/stats.h"
#include "util/check.h"

namespace lrs::erasure {

namespace {

stats::Timer& rs_encode_timer() {
  static stats::Timer& t =
      stats::Registry::instance().timer("erasure.rs.encode");
  return t;
}
stats::Timer& rs_decode_timer() {
  static stats::Timer& t =
      stats::Registry::instance().timer("erasure.rs.decode");
  return t;
}
/// Sum over decodes of the erased data blocks actually solved: with the
/// .calls count, the GF work per decode (e*(k-e) + e^2 row addmuls).
stats::Counter& rs_erased_counter() {
  static stats::Counter& c =
      stats::Registry::instance().counter("erasure.rs.decode.erased");
  return c;
}

class ReedSolomonCode final : public ErasureCode {
 public:
  ReedSolomonCode(std::size_t k, std::size_t n)
      : k_(k), n_(n), generator_(n, k) {
    LRS_CHECK_MSG(k >= 1 && k <= n, "RS requires 1 <= k <= n");
    LRS_CHECK_MSG(n <= 255, "Cauchy RS over GF(256) supports n <= 255");
    for (std::size_t i = 0; i < k_; ++i) generator_.set(i, i, 1);
    for (std::size_t r = 0; r + k_ < n_; ++r) {
      const std::uint8_t x = static_cast<std::uint8_t>(r);
      for (std::size_t j = 0; j < k_; ++j) {
        const std::uint8_t y = static_cast<std::uint8_t>(n_ - k_ + j);
        generator_.set(k_ + r, j, Gf256::inv(Gf256::add(x, y)));
      }
    }
  }

  std::size_t k() const override { return k_; }
  std::size_t n() const override { return n_; }
  std::size_t decode_threshold() const override { return k_; }
  std::string name() const override { return "rs"; }

  std::vector<Bytes> encode(const std::vector<Bytes>& blocks) const override {
    stats::TimerScope scope(rs_encode_timer());
    LRS_CHECK(blocks.size() == k_);
    const std::size_t len = blocks.front().size();
    for (const auto& b : blocks) LRS_CHECK(b.size() == len);

    std::vector<Bytes> out;
    out.reserve(n_);
    // Systematic part: copies.
    for (std::size_t i = 0; i < k_; ++i) out.push_back(blocks[i]);
    // Parity part.
    for (std::size_t r = k_; r < n_; ++r) {
      Bytes e(len, 0);
      for (std::size_t j = 0; j < k_; ++j) {
        Gf256::addmul(MutByteView(e.data(), e.size()), view(blocks[j]),
                      generator_.at(r, j));
      }
      out.push_back(std::move(e));
    }
    return out;
  }

  std::optional<std::vector<Bytes>> decode(
      const std::vector<Share>& shares) const override {
    stats::TimerScope scope(rs_decode_timer());
    // Deduplicate by index, keep the first k distinct shares; afterwards
    // seen[i] marks exactly the picked indices.
    std::vector<const Share*> picked;
    std::vector<bool> seen(n_, false);
    for (const auto& s : shares) {
      LRS_CHECK(s.index < n_);
      if (seen[s.index]) continue;
      seen[s.index] = true;
      picked.push_back(&s);
      if (picked.size() == k_) break;
    }
    if (picked.size() < k_) return std::nullopt;

    const std::size_t len = picked.front()->data.size();
    for (const auto* s : picked) LRS_CHECK(s->data.size() == len);

    // Systematic solve: picked data shares copy straight through, and each
    // picked parity share stands in for one erased data block. With e
    // erasures, subtracting the known columns from those e parity shares
    // leaves an e x e system whose matrix is a Cauchy minor of the parity
    // rows: e*(k-e) + e^2 row addmuls plus an e x e inverse. The solution
    // is unique, so the bytes equal a full k x k solve's.
    std::vector<Bytes> out(k_);
    std::vector<const Share*> parity;
    for (const auto* s : picked) {
      if (s->index < k_) {
        out[s->index] = s->data;
      } else {
        parity.push_back(s);
      }
    }
    const std::size_t e = parity.size();
    rs_erased_counter().add(e);
    if (e == 0) return out;

    std::vector<std::size_t> erased;
    erased.reserve(e);
    for (std::size_t j = 0; j < k_; ++j)
      if (!seen[j]) erased.push_back(j);

    MatrixGf256 minor(e, e);
    for (std::size_t r = 0; r < e; ++r) {
      for (std::size_t c = 0; c < e; ++c)
        minor.set(r, c, generator_.at(parity[r]->index, erased[c]));
    }
    auto inv = minor.inverted();
    LRS_CHECK_MSG(inv.has_value(), "MDS property violated (bug)");

    // Syndromes: each parity share minus its known data columns.
    std::vector<Bytes> syndrome(e);
    for (std::size_t r = 0; r < e; ++r) {
      syndrome[r] = parity[r]->data;
      MutByteView dst(syndrome[r].data(), len);
      for (std::size_t j = 0; j < k_; ++j) {
        if (seen[j])
          Gf256::addmul(dst, view(out[j]), generator_.at(parity[r]->index, j));
      }
    }
    for (std::size_t c = 0; c < e; ++c) {
      Bytes m(len, 0);
      for (std::size_t r = 0; r < e; ++r) {
        Gf256::addmul(MutByteView(m.data(), m.size()), view(syndrome[r]),
                      inv->at(c, r));
      }
      out[erased[c]] = std::move(m);
    }
    return out;
  }

 private:
  std::size_t k_, n_;
  MatrixGf256 generator_;
};

}  // namespace

std::unique_ptr<ErasureCode> make_rs_code(std::size_t k, std::size_t n) {
  return std::make_unique<ReedSolomonCode>(k, n);
}

}  // namespace lrs::erasure
