// Property tests for the 2-bit packed pass-2 hot path: PackedSeq
// round-trips, window extraction vs the string-slice encode path, and
// the batched spectrum/tile-table probes vs their single-probe
// counterparts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kspec/kspectrum.hpp"
#include "kspec/tile_table.hpp"
#include "seq/alphabet.hpp"
#include "seq/kmer.hpp"
#include "seq/packed.hpp"
#include "seq/read.hpp"
#include "util/rng.hpp"

namespace {

using namespace ngs;

/// Random sequence of length n over ACGT with occasional N runs and
/// lowercase/invalid characters, exercising every normalization rule.
std::string random_bases(util::Rng& rng, std::size_t n, bool with_junk) {
  static constexpr char kUpper[] = {'A', 'C', 'G', 'T'};
  static constexpr char kLower[] = {'a', 'c', 'g', 't'};
  std::string s;
  s.reserve(n);
  while (s.size() < n) {
    const std::uint64_t roll = rng.below(100);
    if (with_junk && roll < 6) {
      // N run of length 1-5 (clipped at n).
      const std::size_t run = 1 + rng.below(5);
      for (std::size_t i = 0; i < run && s.size() < n; ++i) s.push_back('N');
    } else if (with_junk && roll < 9) {
      s.push_back(kLower[rng.below(4)]);
    } else if (with_junk && roll < 10) {
      s.push_back("RYKMX."[rng.below(6)]);  // other non-ACGT junk
    } else {
      s.push_back(kUpper[rng.below(4)]);
    }
  }
  return s;
}

/// The round-trip normalization contract: uppercase ACGT survive,
/// everything else becomes 'N'.
std::string normalized(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    const auto code = seq::base_to_code(c);
    c = code == seq::kInvalidBase ? 'N' : seq::code_to_base(code);
  }
  return out;
}

// ---------------------------------------------------------------------
// PackedSeq round trips.

TEST(PackedSeq, RoundTripAllLengths) {
  util::Rng rng(1234);
  seq::PackedSeq ps;
  for (std::size_t n = 0; n <= 512; ++n) {
    const std::string s = random_bases(rng, n, /*with_junk=*/true);
    ps.assign(s);
    ASSERT_EQ(ps.size(), n);
    EXPECT_EQ(ps.to_string(), normalized(s)) << "length " << n;
    for (std::size_t i = 0; i < n; ++i) {
      const auto code = seq::base_to_code(s[i]);
      ASSERT_EQ(ps.is_n(i), code == seq::kInvalidBase) << "pos " << i;
      if (code != seq::kInvalidBase) {
        ASSERT_EQ(ps.base_code(i), code) << "pos " << i;
      }
    }
  }
}

TEST(PackedSeq, AssignReusesBuffers) {
  seq::PackedSeq ps;
  ps.assign("ACGTNNACGTACGTACGTACGTACGTACGTACGTACGT");
  ps.assign("TTT");
  EXPECT_EQ(ps.size(), 3u);
  EXPECT_EQ(ps.to_string(), "TTT");
  ps.assign("");
  EXPECT_TRUE(ps.empty());
  EXPECT_EQ(ps.to_string(), "");
}

TEST(PackedSeq, WindowMatchesEncodeKmerAtAllOffsets) {
  util::Rng rng(99);
  seq::PackedSeq ps;
  for (const std::size_t n : {1ul, 31ul, 32ul, 33ul, 63ul, 64ul, 65ul,
                              127ul, 200ul, 512ul}) {
    const std::string s = random_bases(rng, n, /*with_junk=*/true);
    ps.assign(s);
    for (const int len : {1, 2, 10, 15, 16, 20, 31, 32}) {
      if (static_cast<std::size_t>(len) > n) continue;
      for (std::size_t pos = 0; pos + static_cast<std::size_t>(len) <= n;
           ++pos) {
        const auto expect = seq::encode_kmer(
            std::string_view(s).substr(pos, static_cast<std::size_t>(len)));
        const auto got = ps.window(pos, len);
        ASSERT_EQ(got.has_value(), expect.has_value())
            << "n=" << n << " pos=" << pos << " len=" << len;
        if (expect) {
          ASSERT_EQ(*got, *expect)
              << "n=" << n << " pos=" << pos << " len=" << len;
        }
      }
    }
  }
}

TEST(PackedSeq, SetBaseWritesCodeAndClearsN) {
  util::Rng rng(7);
  seq::PackedSeq ps;
  const std::string s = random_bases(rng, 200, /*with_junk=*/true);
  ps.assign(s);
  std::string mirror = normalized(s);
  for (int round = 0; round < 500; ++round) {
    const std::size_t i = rng.below(200);
    const auto code = static_cast<std::uint8_t>(rng.below(4));
    ps.set_base(i, code);
    mirror[i] = seq::code_to_base(code);
    ASSERT_FALSE(ps.is_n(i));
    ASSERT_EQ(ps.base_code(i), code);
  }
  EXPECT_EQ(ps.to_string(), mirror);
}

TEST(PackedSeq, ReverseComplementMatchesStringPath) {
  util::Rng rng(31337);
  seq::PackedSeq ps, rc, back;
  for (const std::size_t n :
       {0ul, 1ul, 2ul, 31ul, 32ul, 33ul, 64ul, 65ul, 100ul, 511ul, 512ul}) {
    const std::string s = random_bases(rng, n, /*with_junk=*/true);
    ps.assign(s);
    ps.reverse_complement_into(rc);
    ASSERT_EQ(rc.size(), n);
    EXPECT_EQ(rc.to_string(), seq::reverse_complement(s)) << "length " << n;
    // Double reverse complement restores the normalized sequence.
    rc.reverse_complement_into(back);
    EXPECT_EQ(back.to_string(), normalized(s)) << "length " << n;
  }
}

// ---------------------------------------------------------------------
// Batched probes agree with the single-probe paths.

TEST(BatchedLookup, SpectrumIndexOfBatchMatchesSingle) {
  util::Rng rng(2024);
  seq::ReadSet reads;
  for (int i = 0; i < 300; ++i) {
    reads.reads.push_back({"r", random_bases(rng, 50, false), {}});
  }
  constexpr int kK = 11;
  const auto spectrum = kspec::KSpectrum::build(reads, kK, true);
  const std::uint64_t mask = (std::uint64_t{1} << (2 * kK)) - 1;
  for (const std::size_t n : {0ul, 1ul, 15ul, 16ul, 17ul, 63ul, 64ul, 65ul,
                              200ul, 1000ul}) {
    std::vector<seq::KmerCode> probes(n);
    for (auto& p : probes) {
      p = rng.below(2) ? spectrum.code_at(rng.below(spectrum.size()))
                       : (rng() & mask);
    }
    std::vector<std::int64_t> got(n);
    spectrum.index_of_batch(probes, got);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], spectrum.index_of(probes[i])) << "n=" << n << " i=" << i;
    }
  }
  std::vector<std::int64_t> bad(3);
  EXPECT_THROW(
      spectrum.index_of_batch(std::vector<seq::KmerCode>(2), bad),
      std::invalid_argument);
}

TEST(BatchedLookup, TileTableOgBatchMatchesSingle) {
  util::Rng rng(555);
  seq::ReadSet reads;
  for (int i = 0; i < 300; ++i) {
    reads.reads.push_back({"r", random_bases(rng, 50, false), {}});
  }
  kspec::TileParams tp;
  tp.k = 10;
  tp.overlap = 0;  // 20bp tiles, the D3 configuration
  const auto table = kspec::TileTable::build(reads, tp);
  ASSERT_GT(table.size(), 0u);
  const std::uint64_t mask = (std::uint64_t{1} << (2 * tp.tile_length())) - 1;
  for (const std::size_t n : {0ul, 1ul, 16ul, 63ul, 64ul, 65ul, 500ul}) {
    std::vector<seq::KmerCode> tiles(n);
    for (auto& t : tiles) {
      t = rng.below(2) ? table.code_at(rng.below(table.size()))
                       : (rng() & mask);
    }
    std::vector<std::uint32_t> got(n);
    table.og_batch(tiles, got);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], table.og(tiles[i])) << "n=" << n << " i=" << i;
    }
  }
}

// og_cross must agree with per-pair counts() for every (a1, a2) pair —
// including the overlap > 0 layout (distinct a2 kmers masking to the
// same tile contribution) and the large-side fallback path.
TEST(BatchedLookup, TileTableOgCrossMatchesPerPairCounts) {
  util::Rng rng(777);
  seq::ReadSet reads;
  for (int i = 0; i < 300; ++i) {
    reads.reads.push_back({"r", random_bases(rng, 50, false), {}});
  }
  for (const int overlap : {0, 3}) {
    kspec::TileParams tp;
    tp.k = 10;
    tp.overlap = overlap;
    const auto table = kspec::TileTable::build(reads, tp);
    ASSERT_GT(table.size(), 0u);
    const std::uint64_t kmask = (std::uint64_t{1} << (2 * tp.k)) - 1;
    const int low_bits = 2 * (tp.k - tp.overlap);
    const auto ref_og = [&](seq::KmerCode a1, seq::KmerCode a2) {
      return table
          .counts((a1 << low_bits) |
                  (a2 & ((seq::KmerCode{1} << low_bits) - 1)))
          .og;
    };
    // Mix present tile halves (so some pairs hit) with random kmers.
    const auto random_side = [&](std::size_t n) {
      std::vector<seq::KmerCode> side(n);
      for (auto& v : side) {
        if (rng.below(2)) {
          const seq::KmerCode tile = table.code_at(rng.below(table.size()));
          v = rng.below(2) ? (tile >> low_bits) : (tile & kmask);
        } else {
          v = rng() & kmask;
        }
      }
      return side;
    };
    for (const auto& [n1, n2] : {std::pair<std::size_t, std::size_t>{0, 5},
                                {5, 0},
                                {1, 1},
                                {16, 16},
                                {17, 33},
                                {70, 3},   // n1 fallback
                                {3, 70}})  // n2 fallback
    {
      const auto a1 = random_side(n1);
      const auto a2 = random_side(n2);
      std::vector<std::uint32_t> got(n1 * n2);
      table.og_cross(a1, a2, got);
      for (std::size_t i = 0; i < n1; ++i) {
        for (std::size_t j = 0; j < n2; ++j) {
          ASSERT_EQ(got[i * n2 + j], ref_og(a1[i], a2[j]))
              << "overlap=" << overlap << " n1=" << n1 << " n2=" << n2
              << " i=" << i << " j=" << j;
        }
      }
    }
    std::vector<std::uint32_t> bad(3);
    EXPECT_THROW(
        table.og_cross(std::vector<seq::KmerCode>(2),
                       std::vector<seq::KmerCode>(2), bad),
        std::invalid_argument);
  }
}

}  // namespace
