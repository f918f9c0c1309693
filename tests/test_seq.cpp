#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "seq/alphabet.hpp"
#include "seq/kmer.hpp"
#include "util/rng.hpp"

namespace {

using namespace ngs::seq;

TEST(Alphabet, CodesRoundTrip) {
  for (char c : {'A', 'C', 'G', 'T'}) {
    EXPECT_EQ(code_to_base(base_to_code(c)), c);
  }
  EXPECT_EQ(base_to_code('N'), kInvalidBase);
  EXPECT_EQ(base_to_code('x'), kInvalidBase);
  EXPECT_EQ(base_to_code('a'), base_to_code('A'));
}

TEST(Alphabet, Complement) {
  EXPECT_EQ(complement_base('A'), 'T');
  EXPECT_EQ(complement_base('T'), 'A');
  EXPECT_EQ(complement_base('C'), 'G');
  EXPECT_EQ(complement_base('G'), 'C');
  EXPECT_EQ(complement_base('N'), 'N');
}

TEST(Alphabet, ReverseComplement) {
  EXPECT_EQ(reverse_complement("ACGT"), "ACGT");
  EXPECT_EQ(reverse_complement("AACG"), "CGTT");
  EXPECT_EQ(reverse_complement("ANT"), "ANT");
  EXPECT_EQ(reverse_complement(""), "");
}

TEST(Alphabet, HammingDistance) {
  EXPECT_EQ(hamming_distance("ACGT", "ACGT"), 0u);
  EXPECT_EQ(hamming_distance("ACGT", "TCGA"), 2u);
  EXPECT_EQ(hamming_distance("", ""), 0u);
}

TEST(Kmer, EncodeDecodeRoundTrip) {
  ngs::util::Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const int k = 1 + static_cast<int>(rng.below(32));
    std::string s;
    for (int i = 0; i < k; ++i) {
      s.push_back(code_to_base(static_cast<std::uint8_t>(rng.below(4))));
    }
    const auto code = encode_kmer(s);
    ASSERT_TRUE(code.has_value());
    EXPECT_EQ(decode_kmer(*code, k), s);
  }
}

TEST(Kmer, EncodeRejectsAmbiguous) {
  EXPECT_FALSE(encode_kmer("ACNG").has_value());
  EXPECT_EQ(encode_kmer_lossy("ACNG"), encode_kmer("ACAG").value());
}

TEST(Kmer, LexicographicOrderMatchesNumericOrder) {
  const auto a = encode_kmer("AAAC").value();
  const auto b = encode_kmer("AACA").value();
  const auto c = encode_kmer("TTTT").value();
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
}

TEST(Kmer, BaseAccessAndMutation) {
  const auto code = encode_kmer("ACGT").value();
  EXPECT_EQ(kmer_base(code, 4, 0), base_to_code('A'));
  EXPECT_EQ(kmer_base(code, 4, 3), base_to_code('T'));
  const auto mutated = kmer_with_base(code, 4, 1, base_to_code('T'));
  EXPECT_EQ(decode_kmer(mutated, 4), "ATGT");
}

TEST(Kmer, ReverseComplementPacked) {
  for (const char* s : {"ACGT", "AAAA", "GATTACA", "CCGGAATT"}) {
    const int k = static_cast<int>(std::string(s).size());
    const auto code = encode_kmer(s).value();
    EXPECT_EQ(decode_kmer(reverse_complement(code, k), k),
              reverse_complement(std::string_view(s)))
        << s;
  }
}

TEST(Kmer, ReverseComplementIsInvolution) {
  ngs::util::Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const int k = 1 + static_cast<int>(rng.below(32));
    const KmerCode code =
        rng() & (k == 32 ? ~KmerCode{0} : ((KmerCode{1} << (2 * k)) - 1));
    EXPECT_EQ(reverse_complement(reverse_complement(code, k), k), code);
  }
}

TEST(Kmer, HammingOnPackedCodes) {
  const auto a = encode_kmer("ACGTACGTACGT").value();
  const auto b = encode_kmer("ACGTACGTACGT").value();
  EXPECT_EQ(kmer_hamming(a, b), 0);
  const auto c = encode_kmer("TCGTACGAACGT").value();
  EXPECT_EQ(kmer_hamming(a, c), 2);
}

TEST(Kmer, HammingAgreesWithStringVersion) {
  ngs::util::Rng rng(21);
  for (int trial = 0; trial < 500; ++trial) {
    const int k = 1 + static_cast<int>(rng.below(32));
    std::string s1, s2;
    for (int i = 0; i < k; ++i) {
      s1.push_back(code_to_base(static_cast<std::uint8_t>(rng.below(4))));
      s2.push_back(code_to_base(static_cast<std::uint8_t>(rng.below(4))));
    }
    EXPECT_EQ(
        static_cast<std::size_t>(kmer_hamming(encode_kmer(s1).value(),
                                              encode_kmer(s2).value())),
        hamming_distance(s1, s2));
  }
}

TEST(Kmer, ConcatWithOverlap) {
  const auto a = encode_kmer("ACGT").value();
  const auto b = encode_kmer("GTCA").value();  // overlap "GT" with a's suffix
  const auto t = concat_kmers(a, 4, b, 4, 2);
  EXPECT_EQ(decode_kmer(t, 6), "ACGTCA");
  const auto t0 = concat_kmers(a, 4, b, 4, 0);
  EXPECT_EQ(decode_kmer(t0, 8), "ACGTGTCA");
}

TEST(Kmer, ExtractSkipsAmbiguousWindows) {
  std::vector<std::pair<KmerCode, std::uint32_t>> kmers;
  extract_kmers("ACGTNACGTT", 4, kmers);
  // Valid windows: positions 0 ("ACGT") and 5,6 ("ACGT","CGTT").
  ASSERT_EQ(kmers.size(), 3u);
  EXPECT_EQ(kmers[0].second, 0u);
  EXPECT_EQ(kmers[1].second, 5u);
  EXPECT_EQ(kmers[2].second, 6u);
  EXPECT_EQ(decode_kmer(kmers[2].first, 4), "CGTT");
}

TEST(Kmer, ExtractHandlesShortInput) {
  std::vector<KmerCode> codes;
  extract_kmer_codes("ACG", 4, codes);
  EXPECT_TRUE(codes.empty());
}

TEST(Kmer, BothStrandsExtractionMatchesTwoPasses) {
  ngs::util::Rng rng(17);
  for (const int k : {1, 4, 12, 31, 32}) {
    for (int trial = 0; trial < 200; ++trial) {
      std::string s(rng.below(80), 'A');
      for (auto& c : s) c = "ACGTacgtNn"[rng.below(trial % 2 == 0 ? 4 : 10)];
      std::vector<KmerCode> want = {7, 9};  // appends after existing codes
      extract_kmer_codes(s, k, want);
      extract_kmer_codes(reverse_complement(s), k, want);
      std::vector<KmerCode> got = {7, 9};
      extract_kmer_codes_both_strands(s, k, got);
      ASSERT_EQ(got, want) << "k=" << k << " s=" << s;
    }
  }
}

TEST(Kmer, NeighborEnumerationCountsAndDistances) {
  const int k = 6;
  const auto code = encode_kmer("ACGTCA").value();
  for (int d = 1; d <= 2; ++d) {
    std::vector<KmerCode> nbrs;
    enumerate_neighbors(code, k, d, nbrs);
    // Exact count: sum_{e=1..d} C(k,e) 3^e.
    std::size_t expect = 0;
    double cum = 1;
    for (int e = 1; e <= d; ++e) {
      cum = cum * (k - e + 1) / e;
      expect += static_cast<std::size_t>(cum * std::pow(3.0, e) + 0.5);
    }
    EXPECT_EQ(nbrs.size(), expect) << "d=" << d;
    // No duplicates, all within distance, none equal to the original.
    std::set<KmerCode> unique(nbrs.begin(), nbrs.end());
    EXPECT_EQ(unique.size(), nbrs.size());
    for (const auto n : nbrs) {
      const int hd = kmer_hamming(code, n);
      EXPECT_GE(hd, 1);
      EXPECT_LE(hd, d);
    }
  }
}

}  // namespace
