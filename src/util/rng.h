#ifndef ANONSAFE_UTIL_RNG_H_
#define ANONSAFE_UTIL_RNG_H_

#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

namespace anonsafe {

/// \brief Deterministic pseudo-random number generator (xoshiro256++).
///
/// Every randomized component in the library (dataset generation, matching
/// sampler, α-compliant subset selection, transaction sampling) draws from
/// an explicitly seeded `Rng` so experiments are reproducible run-to-run
/// and machine-to-machine. The engine is xoshiro256++ seeded through
/// splitmix64, which passes BigCrush and is far faster than mt19937_64.
class Rng {
 public:
  /// Seeds the generator; equal seeds produce equal streams.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// \brief Returns the next raw 64-bit value.
  uint64_t Next();

  /// \brief Returns an unbiased uniform integer in `[0, bound)`.
  /// Requires `bound > 0` (asserted in debug builds; returns 0 otherwise).
  uint64_t UniformUint64(uint64_t bound);

  /// \brief Returns a uniform integer in `[lo, hi]` inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// \brief Returns a uniform double in `[0, 1)` with 53 random bits.
  double UniformDouble();

  /// \brief Returns a uniform double in `[lo, hi)`.
  double UniformDouble(double lo, double hi);

  /// \brief Returns true with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// \brief Standard normal variate (Box–Muller, no caching).
  double Normal();

  /// \brief Normal variate with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// \brief Log-normal variate: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);

  /// \brief Exponential variate with rate `lambda` (> 0).
  double Exponential(double lambda);

  /// \brief Poisson variate with mean `lambda` (Knuth for small lambda,
  /// normal approximation above 64).
  int64_t Poisson(double lambda);

  /// \brief In-place Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformUint64(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// \brief Returns a uniformly random permutation of `{0, ..., n-1}`.
  std::vector<size_t> Permutation(size_t n);

  /// \brief Samples `k` distinct indices from `{0, ..., n-1}` uniformly
  /// (Floyd's algorithm for k << n, otherwise shuffle-prefix). Result is
  /// sorted ascending. Requires `k <= n`.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// \brief The same draw as `SampleWithoutReplacement` (identical RNG
  /// stream and chosen set) as a membership mask: `mask[i] == 1` iff
  /// index `i` was chosen. Lets callers visit the sample in index order
  /// without sorting. Requires `k <= n`.
  std::vector<uint8_t> SampleMask(size_t n, size_t k);

  /// \brief Forks a statistically independent child generator. Useful for
  /// giving each parallel experiment repetition its own stream.
  Rng Fork();

 private:
  uint64_t s_[4];
};

}  // namespace anonsafe

#endif  // ANONSAFE_UTIL_RNG_H_
