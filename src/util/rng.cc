#include "util/rng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace anonsafe {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformUint64(uint64_t bound) {
  assert(bound > 0);
  if (bound == 0) return 0;
  // Rejection to avoid modulo bias: draws below (2^64 mod bound) are
  // rejected. That threshold is always below `bound`, so it only needs
  // the (slow) 64-bit division when a draw lands under `bound`; accepted
  // values and the draw count are the same as computing it up front.
  for (;;) {
    uint64_t r = Next();
    if (r >= bound || r >= (-bound) % bound) return r % bound;
  }
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  // Unsigned (two's-complement) arithmetic: `hi - lo` and `lo + r`
  // overflow int64_t for wide spans but wrap to the right value here.
  const uint64_t ulo = static_cast<uint64_t>(lo);
  const uint64_t span = static_cast<uint64_t>(hi) - ulo + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // full 64-bit range
  return static_cast<int64_t>(ulo + UniformUint64(span));
}

double Rng::UniformDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

double Rng::Normal() {
  // Box–Muller; discard the second variate to keep the generator stateless
  // with respect to caching.
  double u1 = UniformDouble();
  double u2 = UniformDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  constexpr double kTwoPi = 6.283185307179586476925287;
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

double Rng::Exponential(double lambda) {
  assert(lambda > 0.0);
  double u = UniformDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / lambda;
}

int64_t Rng::Poisson(double lambda) {
  assert(lambda >= 0.0);
  if (lambda <= 0.0) return 0;
  if (lambda < 64.0) {
    // Knuth's multiplication method.
    double limit = std::exp(-lambda);
    double prod = UniformDouble();
    int64_t k = 0;
    while (prod > limit) {
      ++k;
      prod *= UniformDouble();
    }
    return k;
  }
  // Normal approximation with continuity correction for large lambda.
  double v = Normal(lambda, std::sqrt(lambda));
  return v < 0.0 ? 0 : static_cast<int64_t>(v + 0.5);
}

std::vector<size_t> Rng::Permutation(size_t n) {
  std::vector<size_t> p(n);
  for (size_t i = 0; i < n; ++i) p[i] = i;
  Shuffle(&p);
  return p;
}

namespace {

// The one k-of-n draw behind SampleWithoutReplacement and SampleMask.
// Dense case (k*3 >= n): shuffle all n indices and take a prefix.
// Sparse case: Floyd's algorithm, O(k) draws, with `chosen` (size n,
// all false on entry) as its membership set. `emit` sees each chosen
// index once, in draw order.
template <typename Mask, typename Emit>
void DrawSubset(Rng* rng, size_t n, size_t k, Mask* chosen, Emit emit) {
  if (k == 0) return;
  if (k * 3 >= n) {
    std::vector<size_t> idx(n);
    for (size_t i = 0; i < n; ++i) idx[i] = i;
    rng->Shuffle(&idx);
    for (size_t i = 0; i < k; ++i) emit(idx[i]);
  } else {
    for (size_t j = n - k; j < n; ++j) {
      size_t t = static_cast<size_t>(rng->UniformUint64(j + 1));
      if ((*chosen)[t]) t = j;
      (*chosen)[t] = true;
      emit(t);
    }
  }
}

}  // namespace

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  assert(k <= n);
  std::vector<size_t> out;
  out.reserve(k);
  std::vector<bool> chosen(k * 3 >= n ? 0 : n, false);
  DrawSubset(this, n, k, &chosen, [&](size_t t) { out.push_back(t); });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint8_t> Rng::SampleMask(size_t n, size_t k) {
  assert(k <= n);
  std::vector<uint8_t> mask(n, 0);
  DrawSubset(this, n, k, &mask, [&](size_t t) { mask[t] = 1; });
  return mask;
}

Rng Rng::Fork() { return Rng(Next() ^ 0xd1b54a32d192ed03ULL); }

}  // namespace anonsafe
