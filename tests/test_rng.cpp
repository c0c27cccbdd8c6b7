#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>

#include "common/rng.hpp"

namespace bnsgcn {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_below(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

TEST(Rng, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, NextIntBoundsInclusive) {
  Rng rng(23);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto w = v;
  rng.shuffle(w);
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(31);
  const auto s = rng.sample_without_replacement(100, 30);
  ASSERT_EQ(s.size(), 30u);
  std::set<NodeId> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (const NodeId v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 100);
  }
  EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
}

TEST(Rng, SampleWithoutReplacementFull) {
  Rng rng(37);
  const auto s = rng.sample_without_replacement(10, 10);
  ASSERT_EQ(s.size(), 10u);
  for (NodeId i = 0; i < 10; ++i) EXPECT_EQ(s[static_cast<std::size_t>(i)], i);
}

TEST(Rng, SampleWithoutReplacementUniform) {
  // Each element of [0,10) should appear in a 5-of-10 sample ~half the time.
  Rng rng(41);
  std::vector<int> counts(10, 0);
  constexpr int kTrials = 20000;
  for (int t = 0; t < kTrials; ++t) {
    for (const NodeId v : rng.sample_without_replacement(10, 5))
      ++counts[static_cast<std::size_t>(v)];
  }
  for (const int c : counts)
    EXPECT_NEAR(static_cast<double>(c) / kTrials, 0.5, 0.02);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng base(5);
  Rng a = base.split(0);
  Rng b = base.split(1);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitIsDeterministic) {
  Rng base1(5), base2(5);
  Rng a = base1.split(3);
  Rng b = base2.split(3);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// Golden values: the generator's output for fixed seeds, recorded from the
// reference implementation. Dropout masks, boundary-node draws, weight init
// and every replay artifact derive from this stream, so any change to it
// (an inlined or vectorized rewrite included) must fail here first.
struct GoldenStream {
  std::uint64_t seed;
  std::uint64_t u64[16];
  std::uint32_t f32_bits[16];
  std::uint64_t f64_bits[16];
};

constexpr GoldenStream kGolden[] = {
    {42ULL,
     {
      0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL, 0xae17533239e499a1ULL,
      0xecb8ad4703b360a1ULL, 0xfde6dc7fe2ec5e64ULL, 0xc50da53101795238ULL,
      0xb82154855a65ddb2ULL, 0xd99a2743ebe60087ULL, 0xc2e96e726e97647eULL,
      0x9556615f775fbc3dULL, 0xaeb53b340c103971ULL, 0x4a69db9873af8965ULL,
      0xcd0feda93006c6b6ULL, 0x52480865a4b42742ULL, 0xb60dec3bf2d887cdULL,
      0xe0b55a68b96677faULL,
     },
     {
      0x3dabc058u, 0x3ec209b2u, 0x3f2e1753u, 0x3f6cb8adu,
      0x3f7de6dcu, 0x3f450da5u, 0x3f382154u, 0x3f599a27u,
      0x3f42e96eu, 0x3f155661u, 0x3f2eb53bu, 0x3e94d3b6u,
      0x3f4d0fedu, 0x3ea49010u, 0x3f360decu, 0x3f60b55au,
     },
     {
      0x3fb5780b2e0c2ec0ULL, 0x3fd84136619b444eULL, 0x3fe5c2ea66473c93ULL,
      0x3fed9715a8e0766cULL, 0x3fefbcdb8ffc5d8bULL, 0x3fe8a1b4a6202f2aULL,
      0x3fe7042a90ab4cbbULL, 0x3feb3344e87d7cc0ULL, 0x3fe85d2dce4dd2ecULL,
      0x3fe2aacc2beeebf7ULL, 0x3fe5d6a766818207ULL, 0x3fd29a76e61cebe2ULL,
      0x3fe9a1fdb52600d8ULL, 0x3fd4920219692d08ULL, 0x3fe6c1bd877e5b10ULL,
      0x3fec16ab4d172cceULL,
     }},
    {0x9E3779B97F4A7C15ULL,
     {
      0x422ea740d0977210ULL, 0xe062b061b42e2928ULL, 0x5a071fc5930841b6ULL,
      0x01334ef8ed3cc2bdULL, 0xe45cbd6a2d9e96dbULL, 0x3bc1fe841a5f292fULL,
      0x60001d95ebbbd8e6ULL, 0xa0aee00b5b303762ULL, 0x9e23c8d7514cf750ULL,
      0xfc79b675a1a76a3cULL, 0xd430797eb1952242ULL, 0x5d8c1e38c042f56dULL,
      0x62192f394c129095ULL, 0xb66848e210a0f50dULL, 0x2d1d2eb24edaba45ULL,
      0x794532bcac68202cULL,
     },
     {
      0x3e845d4eu, 0x3f6062b0u, 0x3eb40e3eu, 0x3b99a700u,
      0x3f645cbdu, 0x3e6f07f8u, 0x3ec0003au, 0x3f20aee0u,
      0x3f1e23c8u, 0x3f7c79b6u, 0x3f543079u, 0x3ebb183cu,
      0x3ec4325eu, 0x3f366848u, 0x3e3474b8u, 0x3ef28a64u,
     },
     {
      0x3fd08ba9d03425dcULL, 0x3fec0c560c3685c5ULL, 0x3fd681c7f164c210ULL,
      0x3f7334ef8ed3cc00ULL, 0x3fec8b97ad45b3d2ULL, 0x3fcde0ff420d2f94ULL,
      0x3fd80007657aeef6ULL, 0x3fe415dc016b6606ULL, 0x3fe3c4791aea299eULL,
      0x3fef8f36ceb434edULL, 0x3fea860f2fd632a4ULL, 0x3fd763078e3010bcULL,
      0x3fd8864bce5304a4ULL, 0x3fe6cd091c42141eULL, 0x3fc68e9759276d5cULL,
      0x3fde514caf2b1a08ULL,
     }},
};

// Rng(5).split(3): the per-rank stream derivation.
constexpr std::uint64_t kGoldenSplit[16] = {
      0x8a49814c19e55784ULL, 0x90ccca8c40bdecfcULL, 0xb08d0383aaa61921ULL,
      0x314d87d08124f2f7ULL, 0x4739c5834b902922ULL, 0xeac073bd16f393d5ULL,
      0x6eea5e8d851fd7c2ULL, 0x80b7780fef767634ULL, 0x97fa50063c18a0c2ULL,
      0x5aeb78ad80a4cc75ULL, 0x095cf863238566a7ULL, 0x5ec9b946714c6d9eULL,
      0xf2c867bbc3d82902ULL, 0xf581a2adab28f895ULL, 0x04186682e301de54ULL,
      0x1d31924ba9e92d52ULL,
};

TEST(Rng, GoldenStreamsForFixedSeeds) {
  for (const GoldenStream& g : kGolden) {
    SCOPED_TRACE(g.seed);
    Rng a(g.seed), b(g.seed), c(g.seed);
    for (int i = 0; i < 16; ++i) {
      EXPECT_EQ(a.next_u64(), g.u64[i]) << "next_u64 #" << i;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(b.next_float()), g.f32_bits[i])
          << "next_float #" << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(c.next_double()), g.f64_bits[i])
          << "next_double #" << i;
    }
  }
}

TEST(Rng, GoldenSplitStream) {
  Rng s = Rng(5).split(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(s.next_u64(), kGoldenSplit[i]) << i;
}

} // namespace
} // namespace bnsgcn
