#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace lrs {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  LRS_CHECK(bound > 0);
  // Rejection sampling: discard values in the biased tail.
  const std::uint64_t limit = (~std::uint64_t{0}) - (~std::uint64_t{0}) % bound;
  std::uint64_t v;
  do {
    v = next();
  } while (v >= limit);
  return v % bound;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  LRS_CHECK(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // may wrap to 0 for full range
  if (span == 0) return static_cast<std::int64_t>(next());
  return lo + static_cast<std::int64_t>(uniform(span));
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

std::uint64_t Rng::geometric(double p) {
  LRS_CHECK(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 1;
  const double u = 1.0 - uniform01();  // in (0, 1]
  return 1 + static_cast<std::uint64_t>(std::floor(std::log(u) /
                                                   std::log(1.0 - p)));
}

Rng Rng::fork() { return Rng(next()); }

}  // namespace lrs
