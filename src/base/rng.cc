#include "src/base/rng.h"

#include <bit>
#include <cmath>
#include <numbers>
#include <vector>

#include "src/base/check.h"
#include "src/base/mutex.h"

namespace siloz {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : state_) {
    word = SplitMix64(sm);
  }
}

double Rng::NextGaussian() {
  // Box-Muller; u1 is kept away from 0 so log() is finite.
  double u1 = NextDouble();
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  const double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

Rng Rng::Fork(uint64_t tag) {
  // Mix the tag into fresh state drawn from this stream.
  const uint64_t child_seed = NextU64() ^ (tag * 0x9E3779B97F4A7C15ull);
  return Rng(child_seed);
}

namespace {

double Zeta(uint64_t n, double theta) {
  double sum = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

// The head sum is O(n) pow calls and dominates sampler construction; the
// experiment runners rebuild samplers for every trial from a handful of
// distinct (n, theta) pairs, so memoize it. Thetas come from workload
// literals, so keying on the exact bit pattern is the right equality.
class ZetaCache {
 public:
  double Get(uint64_t n, double theta) {
    const uint64_t bits = std::bit_cast<uint64_t>(theta);
    {
      MutexLock lock(mutex_);
      if (const Entry* entry = Find(entries_, n, bits)) {
        return entry->value;
      }
    }
    // Compute outside the lock. Concurrent misses on one key compute the
    // identical value and only the first stores it, so entries stay unique.
    const double value = Zeta(n, theta);
    MutexLock lock(mutex_);
    if (Find(entries_, n, bits) == nullptr) {
      entries_.push_back(Entry{n, bits, value});
    }
    return value;
  }

 private:
  struct Entry {
    uint64_t n = 0;
    uint64_t theta_bits = 0;
    double value = 0.0;
  };

  static const Entry* Find(const std::vector<Entry>& entries, uint64_t n, uint64_t bits) {
    for (const Entry& entry : entries) {
      if (entry.n == n && entry.theta_bits == bits) {
        return &entry;
      }
    }
    return nullptr;
  }

  Mutex mutex_;
  std::vector<Entry> entries_ GUARDED_BY(mutex_);
};

ZetaCache& GlobalZetaCache() {
  static ZetaCache* cache = new ZetaCache();  // leaked: outlives static dtors
  return *cache;
}

}  // namespace

ZipfianSampler::ZipfianSampler(uint64_t n, double theta) : n_(n), theta_(theta) {
  SILOZ_CHECK_GT(n, 0u);
  SILOZ_CHECK_GT(theta, 0.0);
  SILOZ_CHECK_LT(theta, 1.0);  // the closed form below requires theta < 1
  // Exact zeta for small n, Euler-Maclaurin-style approximation for large n
  // (the constructor must stay O(1)-ish for multi-GiB footprints).
  constexpr uint64_t kExactLimit = 100000;
  if (n <= kExactLimit) {
    zetan_ = GlobalZetaCache().Get(n, theta);
  } else {
    const double zeta_head = GlobalZetaCache().Get(kExactLimit, theta);
    // integral_{kExactLimit}^{n} x^-theta dx
    const double tail = (std::pow(static_cast<double>(n), 1.0 - theta) -
                         std::pow(static_cast<double>(kExactLimit), 1.0 - theta)) /
                        (1.0 - theta);
    zetan_ = zeta_head + tail;
  }
  const double zeta2 = Zeta(2, theta);
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) / (1.0 - zeta2 / zetan_);
  threshold_ = 1.0 + std::pow(0.5, theta);
}

uint64_t ZipfianSampler::Next(Rng& rng) const {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) {
    return 0;
  }
  if (uz < threshold_) {
    return 1;
  }
  const double rank = static_cast<double>(n_) *
                      std::pow(eta_ * u - eta_ + 1.0, alpha_);
  const auto index = static_cast<uint64_t>(rank);
  return index >= n_ ? n_ - 1 : index;
}

}  // namespace siloz
