#include "fleet/delta.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace lrs::fleet {

namespace {

constexpr std::uint8_t kMagic[4] = {'L', 'R', 'D', '1'};
// magic + base_version + new_version + image_size + page_size +
// changed_count + base_hash + new_hash
constexpr std::size_t kHeaderSize =
    4 + 4 + 4 + 8 + 4 + 4 + crypto::kPacketHashSize + crypto::kPacketHashSize;

// Upper bound on a plausible firmware image. Keeps a corrupted image_size
// header field from driving a multi-gigabyte allocation in apply_delta
// before the hash checks get a chance to reject the blob.
constexpr std::uint64_t kMaxImageSize = 1ULL << 30;

void put_u32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void put_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

std::uint32_t get_u32(ByteView b, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | b[off + static_cast<std::size_t>(i)];
  return v;
}

std::uint64_t get_u64(ByteView b, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | b[off + static_cast<std::size_t>(i)];
  return v;
}

/// Bytes of delta page `p` inside an image of `image_size`.
std::size_t page_bytes(std::uint64_t image_size, std::uint32_t page_size,
                       std::uint32_t p) {
  const std::uint64_t start =
      static_cast<std::uint64_t>(p) * page_size;
  if (start >= image_size) return 0;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(page_size, image_size - start));
}

}  // namespace

Bytes make_delta(const Bytes& base_image, const Bytes& new_image,
                 Version base_version, Version new_version,
                 std::size_t page_size) {
  LRS_CHECK_MSG(page_size >= 1, "delta page_size must be >= 1");
  LRS_CHECK_MSG(base_version < new_version,
                "delta must move the version forward");
  LRS_CHECK_MSG(new_image.size() <= kMaxImageSize,
                "image exceeds the delta format's size bound");

  const std::uint64_t size = new_image.size();
  const std::uint32_t pages = static_cast<std::uint32_t>(
      (size + page_size - 1) / page_size);

  std::vector<std::uint32_t> changed;
  for (std::uint32_t p = 0; p < pages; ++p) {
    const std::size_t off = static_cast<std::size_t>(p) * page_size;
    const std::size_t len =
        page_bytes(size, static_cast<std::uint32_t>(page_size), p);
    // A page is unchanged only if the base covers it fully with identical
    // bytes; growth past the base's end is always a changed page.
    const bool same =
        off + len <= base_image.size() &&
        std::memcmp(base_image.data() + off, new_image.data() + off, len) == 0;
    if (!same) changed.push_back(p);
  }

  Bytes out(kMagic, kMagic + 4);
  out.reserve(kHeaderSize + changed.size() * (4 + page_size));
  put_u32(out, base_version);
  put_u32(out, new_version);
  put_u64(out, size);
  put_u32(out, static_cast<std::uint32_t>(page_size));
  put_u32(out, static_cast<std::uint32_t>(changed.size()));
  crypto::append(out, crypto::packet_hash(view(base_image)));
  crypto::append(out, crypto::packet_hash(view(new_image)));
  for (const std::uint32_t p : changed) put_u32(out, p);
  for (const std::uint32_t p : changed) {
    const std::size_t off = static_cast<std::size_t>(p) * page_size;
    const std::size_t len =
        page_bytes(size, static_cast<std::uint32_t>(page_size), p);
    out.insert(out.end(), new_image.begin() + static_cast<std::ptrdiff_t>(off),
               new_image.begin() + static_cast<std::ptrdiff_t>(off + len));
  }
  return out;
}

std::optional<DeltaManifest> parse_delta(ByteView blob) {
  if (blob.size() < kHeaderSize) return std::nullopt;
  if (std::memcmp(blob.data(), kMagic, 4) != 0) return std::nullopt;

  DeltaManifest m;
  m.base_version = get_u32(blob, 4);
  m.new_version = get_u32(blob, 8);
  m.image_size = get_u64(blob, 12);
  m.page_size = get_u32(blob, 20);
  const std::uint32_t count = get_u32(blob, 24);
  m.base_hash = crypto::read_packet_hash(blob, 28);
  m.new_hash = crypto::read_packet_hash(blob, 28 + crypto::kPacketHashSize);

  if (m.page_size == 0) return std::nullopt;
  if (m.image_size > kMaxImageSize) return std::nullopt;
  if (m.base_version >= m.new_version) return std::nullopt;
  const std::uint64_t pages =
      (m.image_size + m.page_size - 1) / m.page_size;
  if (count > pages) return std::nullopt;

  std::size_t off = kHeaderSize;
  if (blob.size() < off + static_cast<std::size_t>(count) * 4) {
    return std::nullopt;
  }
  m.changed_pages.reserve(count);
  std::uint64_t payload = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t p = get_u32(blob, off + static_cast<std::size_t>(i) * 4);
    if (p >= pages) return std::nullopt;
    if (!m.changed_pages.empty() && p <= m.changed_pages.back()) {
      return std::nullopt;  // must be strictly ascending (unique)
    }
    m.changed_pages.push_back(p);
    payload += page_bytes(m.image_size, m.page_size, p);
  }
  off += static_cast<std::size_t>(count) * 4;
  // The blob length must be exactly header + index table + page payloads:
  // a truncated or padded artifact fails loudly instead of mis-patching.
  if (blob.size() != off + payload) return std::nullopt;
  return m;
}

std::optional<Bytes> apply_delta(const Bytes& base_image, ByteView blob) {
  const auto m = parse_delta(blob);
  if (!m) return std::nullopt;
  if (!crypto::equal(m->base_hash, crypto::packet_hash(view(base_image)))) {
    return std::nullopt;  // wrong installed base — replayed/misrouted delta
  }

  // Start from the base truncated/zero-extended to the new size, then
  // overwrite the changed pages from the blob's payload section.
  Bytes image(base_image);
  image.resize(static_cast<std::size_t>(m->image_size), 0);
  std::size_t off = kHeaderSize + m->changed_pages.size() * 4;
  for (const std::uint32_t p : m->changed_pages) {
    const std::size_t len = static_cast<std::size_t>(
        std::min<std::uint64_t>(m->page_size,
                                m->image_size -
                                    static_cast<std::uint64_t>(p) *
                                        m->page_size));
    std::memcpy(image.data() + static_cast<std::size_t>(p) * m->page_size,
                blob.data() + off, len);
    off += len;
  }

  if (!crypto::equal(m->new_hash, crypto::packet_hash(view(image)))) {
    return std::nullopt;  // patched result does not match the manifest
  }
  return image;
}

}  // namespace lrs::fleet
