#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "kspec/hamming_graph.hpp"
#include "kspec/kspectrum.hpp"
#include "kspec/neighborhood.hpp"
#include "kspec/radix.hpp"
#include "kspec/tile_table.hpp"
#include "seq/alphabet.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ngs;
using kspec::KSpectrum;

seq::ReadSet tiny_reads() {
  seq::ReadSet set;
  set.reads.push_back({"a", "ACGTACGT", {}});
  set.reads.push_back({"b", "ACGTACGT", {}});
  set.reads.push_back({"c", "CGTACGTA", {}});
  return set;
}

TEST(KSpectrum, CountsSingleStrand) {
  const auto spec = KSpectrum::build(tiny_reads(), 4, /*both_strands=*/false);
  // "ACGTACGT" contributes ACGT (x2... per read), CGTA, GTAC, TACG, ACGT.
  const auto acgt = seq::encode_kmer("ACGT").value();
  // Two copies of read a/b: each has ACGT twice; read c has ACGT once.
  EXPECT_EQ(spec.count(acgt), 2u * 2u + 1u);
  EXPECT_EQ(spec.count(seq::encode_kmer("AAAA").value()), 0u);
  EXPECT_FALSE(spec.contains(seq::encode_kmer("AAAA").value()));
}

TEST(KSpectrum, BothStrandsAddsReverseComplements) {
  seq::ReadSet set;
  set.reads.push_back({"a", "AACC", {}});
  const auto spec = KSpectrum::build(set, 4, /*both_strands=*/true);
  EXPECT_TRUE(spec.contains(seq::encode_kmer("AACC").value()));
  EXPECT_TRUE(spec.contains(seq::encode_kmer("GGTT").value()));
  EXPECT_EQ(spec.total_instances(), 2u);
}

TEST(KSpectrum, SortedAndIndexable) {
  util::Rng rng(1);
  const auto genome = sim::random_sequence(5000, {0.25, 0.25, 0.25, 0.25}, rng);
  const auto spec = KSpectrum::build_from_sequence(genome, 10);
  for (std::size_t i = 1; i < spec.size(); ++i) {
    ASSERT_LT(spec.code_at(i - 1), spec.code_at(i));
  }
  for (std::size_t i = 0; i < spec.size(); i += 97) {
    EXPECT_EQ(spec.index_of(spec.code_at(i)), static_cast<std::int64_t>(i));
  }
}

seq::ReadSet simulated_reads(std::uint64_t seed, std::size_t genome_len) {
  util::Rng rng(seed);
  sim::GenomeSpec gspec;
  gspec.length = genome_len;
  const auto genome = sim::simulate_genome(gspec, rng);
  const auto model = sim::ErrorModel::illumina(36, 0.02);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = 20.0;
  return sim::simulate_reads(genome.sequence, model, cfg, rng).reads;
}

void expect_byte_identical(const KSpectrum& a, const KSpectrum& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.total_instances(), b.total_instances());
  ASSERT_TRUE(std::equal(a.codes().begin(), a.codes().end(),
                         b.codes().begin(), b.codes().end()));
  ASSERT_TRUE(std::equal(a.counts().begin(), a.counts().end(),
                         b.counts().begin(), b.counts().end()));
}

TEST(RadixBuild, ByteIdenticalToSerialAcrossThreadCounts) {
  const auto reads = simulated_reads(11, 15000);
  for (const bool both : {false, true}) {
    kspec::SpectrumBuildOptions serial;
    serial.threads = 1;
    const auto reference = KSpectrum::build(reads, 13, both, serial);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{3},
                                      std::size_t{8}}) {
      for (const int radix_bits : {-1, 0, 3, 8}) {
        kspec::SpectrumBuildOptions opts;
        opts.threads = threads;
        opts.radix_bits = radix_bits;
        const auto parallel = KSpectrum::build(reads, 13, both, opts);
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " radix_bits=" << radix_bits
                     << " both=" << both);
        expect_byte_identical(parallel, reference);
      }
    }
  }
}

TEST(RadixBuild, DegenerateInputs) {
  kspec::SpectrumBuildOptions parallel;
  parallel.threads = 4;
  parallel.radix_bits = 6;

  seq::ReadSet empty;
  expect_byte_identical(KSpectrum::build(empty, 13, true, parallel),
                        KSpectrum::build(empty, 13, true, {.threads = 1}));

  seq::ReadSet short_read;  // shorter than k: zero windows
  short_read.reads.push_back({"s", "ACGT", {}});
  const auto spec = KSpectrum::build(short_read, 13, true, parallel);
  EXPECT_TRUE(spec.empty());
  EXPECT_EQ(spec.total_instances(), 0u);

  seq::ReadSet one;
  one.reads.push_back({"a", "ACGTACGTACGTACGT", {}});
  expect_byte_identical(KSpectrum::build(one, 13, true, parallel),
                        KSpectrum::build(one, 13, true, {.threads = 1}));

  seq::ReadSet dup;  // every instance identical: a single fat bucket
  for (int i = 0; i < 64; ++i) dup.reads.push_back({"d", "AAAAAAAAAAAAA", {}});
  const auto dups = KSpectrum::build(dup, 13, false, parallel);
  ASSERT_EQ(dups.size(), 1u);
  EXPECT_EQ(dups.count_at(0), 64u);
  expect_byte_identical(dups, KSpectrum::build(dup, 13, false, {.threads = 1}));
}

TEST(RadixBuild, ExternalPoolAndSortOnlyEntryPoint) {
  util::ThreadPool pool(3);
  util::Rng rng(99);
  std::vector<seq::KmerCode> codes;
  const seq::KmerCode mask = (seq::KmerCode{1} << 26) - 1;
  for (int i = 0; i < 50000; ++i) codes.push_back(rng() & mask);
  auto expected = codes;
  std::sort(expected.begin(), expected.end());

  kspec::RadixSortOptions opts;
  opts.pool = &pool;
  for (const int bits : {-1, 0, 5, 11}) {
    auto sorted = codes;
    opts.radix_bits = bits;
    kspec::radix_sort_codes(sorted, 13, opts);
    ASSERT_EQ(sorted, expected) << "radix_bits=" << bits;
  }
}

// --- LSD radix kernel: radix_sort_low_bits + run-length count ---------

/// `n` codes that all carry `prefix` above their low `key_bits` bits;
/// the low bits come from a pool of `distinct` values, so runs repeat.
std::vector<seq::KmerCode> shared_prefix_codes(std::size_t n, int key_bits,
                                               seq::KmerCode prefix,
                                               std::size_t distinct,
                                               std::uint64_t seed) {
  const seq::KmerCode low_mask =
      key_bits >= 64 ? ~seq::KmerCode{0}
                     : (seq::KmerCode{1} << key_bits) - 1;
  const seq::KmerCode high = key_bits >= 64 ? 0 : prefix << key_bits;
  util::Rng rng(seed);
  std::vector<seq::KmerCode> values(std::max<std::size_t>(1, distinct));
  for (auto& v : values) v = high | (rng() & low_mask);
  std::vector<seq::KmerCode> codes(n);
  for (auto& c : codes) c = values[rng.below(values.size())];
  return codes;
}

/// Sorts `codes` with radix_sort_low_bits and sorts-and-counts them with
/// sort_and_count_in_place, checking both against std::sort and
/// serial_sort_and_count.
void expect_kernel_matches_reference(std::vector<seq::KmerCode> codes,
                                     int key_bits) {
  auto expected_sorted = codes;
  std::sort(expected_sorted.begin(), expected_sorted.end());
  std::vector<seq::KmerCode> expected_codes;
  std::vector<std::uint32_t> expected_counts;
  kspec::serial_sort_and_count(std::vector<seq::KmerCode>(codes),
                               expected_codes, expected_counts);

  auto sorted = codes;
  std::vector<seq::KmerCode> scratch(codes.size());
  kspec::radix_sort_low_bits(sorted, key_bits, scratch);
  ASSERT_EQ(sorted, expected_sorted);

  std::vector<std::uint32_t> counts;
  kspec::sort_and_count_in_place(codes, key_bits, counts);
  EXPECT_EQ(codes, expected_codes);
  EXPECT_EQ(counts, expected_counts);
}

TEST(RadixKernel, MatchesStdSortAcrossKeyWidths) {
  // 1-3 passes at <= 11 bits each up to 23 bits, 4-6 passes beyond;
  // odd pass counts end in the scratch and are copied back. 64 is the
  // tile-length-32 case: a full-width key with no shared bits.
  for (const int key_bits : {0, 1, 2, 11, 12, 18, 22, 23, 34, 50, 64}) {
    const seq::KmerCode prefix = key_bits >= 64 ? 0 : 0x2d;
    for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                                std::size_t{2}, std::size_t{5000}}) {
      for (const std::size_t distinct : {std::size_t{1}, std::size_t{700},
                                         std::size_t{100000}}) {
        SCOPED_TRACE(::testing::Message() << "key_bits=" << key_bits
                                          << " n=" << n
                                          << " distinct=" << distinct);
        expect_kernel_matches_reference(
            shared_prefix_codes(n, key_bits, prefix, distinct,
                                1000 + key_bits + n + distinct),
            key_bits);
      }
    }
  }
}

TEST(RadixKernel, ConstantDigitsKeepTheOrder) {
  // Low 11 bits all zero: the first pass scatters every code into one
  // digit and must leave the order for the later passes unchanged.
  util::Rng rng(5);
  for (const int key_bits : {22, 23, 33}) {
    const seq::KmerCode high_mask = (seq::KmerCode{1} << (key_bits - 11)) - 1;
    std::vector<seq::KmerCode> codes(3000);
    for (auto& c : codes) c = (rng() & high_mask) << 11;
    SCOPED_TRACE(::testing::Message() << "key_bits=" << key_bits);
    expect_kernel_matches_reference(codes, key_bits);
  }
  // Two codes, every digit but one constant.
  expect_kernel_matches_reference({seq::KmerCode{1} << 40, 0}, 50);
  // All equal: every digit is constant.
  expect_kernel_matches_reference(std::vector<seq::KmerCode>(513, 0xabcdef),
                                  24);
}

TEST(RadixKernel, SortAndCountMatchSerialAcrossPoolsAndWidths) {
  constexpr int k = 13;
  const seq::KmerCode mask = (seq::KmerCode{1} << (2 * k)) - 1;
  util::Rng rng(77);
  std::vector<seq::KmerCode> uniform(60000);
  for (auto& c : uniform) c = rng() & mask;
  for (std::size_t i = 0; i < uniform.size(); i += 3) {
    uniform[i] = uniform[i / 2];  // repeats, so counts exceed 1
  }
  // Skewed: almost everything in the bucket of prefix 0 at any width.
  std::vector<seq::KmerCode> skewed(60000);
  for (std::size_t i = 0; i < skewed.size(); ++i) {
    skewed[i] = i % 97 == 0 ? (rng() & mask) : (rng() & 0x3fff);
  }

  for (const auto* input : {&uniform, &skewed}) {
    std::vector<seq::KmerCode> expected_codes;
    std::vector<std::uint32_t> expected_counts;
    kspec::serial_sort_and_count(std::vector<seq::KmerCode>(*input),
                                 expected_codes, expected_counts);
    auto expected_sorted = *input;
    std::sort(expected_sorted.begin(), expected_sorted.end());
    for (const std::size_t threads : {1ul, 2ul, 4ul}) {
      util::ThreadPool pool(threads);
      for (const int bits : {0, 4, 14}) {
        SCOPED_TRACE(::testing::Message()
                     << (input == &uniform ? "uniform" : "skewed")
                     << " threads=" << threads << " radix_bits=" << bits);
        kspec::RadixSortOptions opts;
        opts.pool = &pool;
        opts.radix_bits = bits;
        std::vector<seq::KmerCode> codes;
        std::vector<std::uint32_t> counts;
        kspec::radix_sort_and_count(std::vector<seq::KmerCode>(*input), k,
                                    codes, counts, opts);
        ASSERT_EQ(codes, expected_codes);
        ASSERT_EQ(counts, expected_counts);
        auto sorted = *input;
        kspec::radix_sort_codes(sorted, k, opts);
        ASSERT_EQ(sorted, expected_sorted);
      }
    }
  }
}

TEST(RadixKernel, FullWidthTileKeysMatchSerial) {
  // Tile keys of length 32 fill all 64 bits: the bucket prefix takes the
  // top bits and the kernel sorts the remaining 64 - bits.
  constexpr int tile_length = 32;
  util::Rng rng(3);
  std::vector<seq::KmerCode> codes(20000);
  for (auto& c : codes) c = rng();
  for (std::size_t i = 0; i < codes.size(); i += 4) codes[i] = codes[i / 3];
  std::vector<seq::KmerCode> expected_codes;
  std::vector<std::uint32_t> expected_counts;
  kspec::serial_sort_and_count(std::vector<seq::KmerCode>(codes),
                               expected_codes, expected_counts);
  util::ThreadPool pool(2);
  for (const int bits : {0, 4, 14}) {
    kspec::RadixSortOptions opts;
    opts.pool = &pool;
    opts.radix_bits = bits;
    std::vector<seq::KmerCode> out_codes;
    std::vector<std::uint32_t> out_counts;
    kspec::radix_sort_and_count(std::vector<seq::KmerCode>(codes),
                                tile_length, out_codes, out_counts, opts);
    ASSERT_EQ(out_codes, expected_codes) << "radix_bits=" << bits;
    ASSERT_EQ(out_counts, expected_counts) << "radix_bits=" << bits;
  }
}

TEST(PrefixIndex, AgreesWithPlainLowerBound) {
  const auto reads = simulated_reads(23, 20000);
  auto spec = KSpectrum::build(reads, 13, true);
  ASSERT_GT(spec.prefix_index_bits(), 0);  // auto index kicks in

  util::Rng rng(7);
  const seq::KmerCode mask = (seq::KmerCode{1} << 26) - 1;
  std::vector<seq::KmerCode> queries;
  for (std::size_t i = 0; i < spec.size(); i += 37) {
    queries.push_back(spec.code_at(i));  // guaranteed hits
  }
  for (int i = 0; i < 2000; ++i) queries.push_back(rng() & mask);  // misses too

  const auto codes = spec.codes();
  auto plain_index_of = [&](seq::KmerCode code) -> std::int64_t {
    const auto it = std::lower_bound(codes.begin(), codes.end(), code);
    if (it == codes.end() || *it != code) return -1;
    return static_cast<std::int64_t>(it - codes.begin());
  };

  for (const int bits : {-1, 0, 1, 4, 10, 16}) {
    spec.rebuild_prefix_index(bits);
    for (const auto q : queries) {
      ASSERT_EQ(spec.index_of(q), plain_index_of(q))
          << "bits=" << bits << " query=" << q;
    }
  }
}

TEST(PrefixIndex, DisabledIndexReportsZeroWidth) {
  const auto spec = KSpectrum::from_codes(
      {seq::encode_kmer("ACGT").value(), seq::encode_kmer("TTTT").value()}, 4);
  // Tiny spectrum: the auto heuristic leaves the index off.
  EXPECT_EQ(spec.prefix_index_bits(), 0);
  EXPECT_EQ(spec.prefix_index_bytes(), 0u);
  EXPECT_TRUE(spec.contains(seq::encode_kmer("TTTT").value()));
}

TEST(Neighborhood, EnumeratorFindsPlantedNeighbors) {
  std::vector<seq::KmerCode> codes;
  const auto base = seq::encode_kmer("ACGTACGTAC").value();
  codes.push_back(base);
  const auto n1 = seq::kmer_with_base(base, 10, 3, 0);  // 1 mutation
  const auto n2 = seq::kmer_with_base(n1, 10, 7, 1);    // 2 mutations
  codes.push_back(n1);
  codes.push_back(n2);
  codes.push_back(seq::encode_kmer("TTTTTTTTTT").value());
  const auto spec = KSpectrum::from_codes(codes, 10);

  kspec::CandidateEnumerator enumerator(spec);
  std::set<seq::KmerCode> found;
  enumerator.for_each_neighbor(base, 1,
                               [&](seq::KmerCode c, std::size_t) {
                                 found.insert(c);
                               });
  EXPECT_EQ(found, std::set<seq::KmerCode>{n1});
  found.clear();
  enumerator.for_each_neighbor(base, 2,
                               [&](seq::KmerCode c, std::size_t) {
                                 found.insert(c);
                               });
  EXPECT_EQ(found, (std::set<seq::KmerCode>{n1, n2}));
}

struct MaskedIndexCase {
  int k;
  int c;
  int d;
};

class MaskedIndexEquivalence
    : public ::testing::TestWithParam<MaskedIndexCase> {};

TEST_P(MaskedIndexEquivalence, MatchesEnumeratorOnRandomSpectra) {
  const auto [k, c, d] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(k * 100 + c * 10 + d));
  // Random spectrum with planted mutation clusters so neighborhoods are
  // nonempty.
  std::vector<seq::KmerCode> codes;
  const seq::KmerCode mask =
      k == 32 ? ~seq::KmerCode{0} : ((seq::KmerCode{1} << (2 * k)) - 1);
  for (int i = 0; i < 300; ++i) {
    const seq::KmerCode base = rng() & mask;
    codes.push_back(base);
    for (int m = 0; m < 3; ++m) {
      seq::KmerCode mut = base;
      for (int e = 0; e <= static_cast<int>(rng.below(2)); ++e) {
        mut = seq::kmer_with_base(
            mut, k, static_cast<int>(rng.below(static_cast<std::uint64_t>(k))),
            static_cast<std::uint8_t>(rng.below(4)));
      }
      codes.push_back(mut);
    }
  }
  const auto spec = KSpectrum::from_codes(codes, k);
  const kspec::CandidateEnumerator enumerator(spec);
  const kspec::MaskedSortIndex index(spec, c, d);

  for (std::size_t i = 0; i < spec.size(); i += 7) {
    const auto code = spec.code_at(i);
    std::set<seq::KmerCode> expect, got;
    enumerator.for_each_neighbor(code, d,
                                 [&](seq::KmerCode x, std::size_t) {
                                   expect.insert(x);
                                 });
    index.for_each_neighbor(code, [&](seq::KmerCode x, std::size_t) {
      got.insert(x);
    });
    ASSERT_EQ(got, expect) << "k=" << k << " c=" << c << " d=" << d;
  }

  // Non-member queries, as pass 2 issues them for erroneous kmers: half
  // perturb one base of a spectrum kmer (so the neighborhood is never
  // empty), half are uniform. Both strategies must visit the same
  // (code, spectrum index) pairs.
  std::vector<std::uint32_t> hits;
  std::vector<seq::KmerCode> enum_scratch;
  std::size_t perturbed = 0, nonempty = 0;
  for (int q = 0; q < 2000; ++q) {
    const bool perturb = q % 2 == 0;
    const seq::KmerCode query =
        perturb ? spec.code_at(rng.below(spec.size())) ^
                      (seq::KmerCode{3}
                       << (2 * rng.below(static_cast<std::uint64_t>(k))))
                : (rng() & mask);
    if (spec.contains(query)) continue;
    std::vector<std::pair<seq::KmerCode, std::size_t>> expect, got;
    enumerator.for_each_neighbor(
        query, d,
        [&](seq::KmerCode x, std::size_t i) { expect.emplace_back(x, i); },
        enum_scratch);
    index.for_each_neighbor(
        query, [&](seq::KmerCode x, std::size_t i) { got.emplace_back(x, i); },
        hits);
    std::sort(expect.begin(), expect.end());
    std::sort(got.begin(), got.end());
    ASSERT_EQ(got, expect) << "k=" << k << " c=" << c << " d=" << d
                           << " query " << q;
    if (perturb) ++perturbed;
    if (perturb && !got.empty()) ++nonempty;
  }
  EXPECT_GT(perturbed, 0u);
  EXPECT_EQ(nonempty, perturbed);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MaskedIndexEquivalence,
    ::testing::Values(MaskedIndexCase{8, 4, 1}, MaskedIndexCase{12, 4, 1},
                      MaskedIndexCase{12, 6, 2}, MaskedIndexCase{13, 5, 2},
                      MaskedIndexCase{16, 4, 1}, MaskedIndexCase{16, 8, 2}));

TEST(MaskedSortIndex, RejectsBadParameters) {
  const auto spec = KSpectrum::from_codes(
      {seq::encode_kmer("ACGTACGT").value()}, 8);
  EXPECT_THROW(kspec::MaskedSortIndex(spec, 2, 2), std::invalid_argument);
  EXPECT_THROW(kspec::MaskedSortIndex(spec, 9, 1), std::invalid_argument);
}

TEST(HammingGraph, EdgesAreSymmetricAndBounded) {
  util::Rng rng(5);
  const auto genome =
      sim::random_sequence(3000, {0.25, 0.25, 0.25, 0.25}, rng);
  const auto spec = KSpectrum::build_from_sequence(genome, 11);
  const kspec::HammingGraph graph(spec, 1);
  EXPECT_EQ(graph.num_vertices(), spec.size());
  for (std::size_t i = 0; i < spec.size(); i += 13) {
    for (const std::uint32_t j : graph.neighbors(i)) {
      const int hd = seq::kmer_hamming(spec.code_at(i), spec.code_at(j));
      ASSERT_EQ(hd, 1);
      // Symmetry: i must appear in j's list.
      const auto back = graph.neighbors(j);
      ASSERT_NE(std::find(back.begin(), back.end(),
                          static_cast<std::uint32_t>(i)),
                back.end());
    }
  }
}

TEST(TileTable, CountsOccurrences) {
  seq::ReadSet set;
  set.reads.push_back({"a", "ACGTACGTACGT", {}});  // 12 bases
  kspec::TileParams params;
  params.k = 4;
  params.overlap = 0;  // tile length 8
  params.both_strands = false;
  const auto table = kspec::TileTable::build(set, params);
  const auto t = seq::encode_kmer("ACGTACGT").value();
  EXPECT_EQ(table.counts(t).oc, 2u);  // positions 0 and 4
  EXPECT_EQ(table.counts(t).og, 2u);  // no quality filter -> og == oc
  EXPECT_EQ(table.counts(seq::encode_kmer("AAAAAAAA").value()).oc, 0u);
}

TEST(TileTable, QualityFilterSeparatesOg) {
  seq::ReadSet set;
  seq::Read r;
  r.id = "a";
  r.bases = "ACGTACGTACGT";
  r.quality.assign(12, 40);
  r.quality[5] = 5;  // low-quality base inside tiles covering position 5
  set.reads = {r};
  kspec::TileParams params;
  params.k = 4;
  params.quality_cutoff = 20;
  params.both_strands = false;
  const auto table = kspec::TileTable::build(set, params);
  const auto t0 = seq::encode_kmer("ACGTACGT").value();
  // Tile at position 0 covers base 5 (low quality); tile at position 4
  // also covers base 5. Both instances of this tile are low quality.
  EXPECT_EQ(table.counts(t0).oc, 2u);
  EXPECT_EQ(table.counts(t0).og, 0u);
  // Tile at position 3..10 "TACGTACG" misses nothing... covers 3-10 incl 5.
  // The only windows avoiding base 5 start at >= 6: no full window fits
  // after 6? positions 3 and 4 remain; all cover 5. Verify og histogram
  // total matches distinct tiles.
  EXPECT_EQ(table.og_histogram().total(), table.size());
}

TEST(TileTable, OverlapConcatenation) {
  seq::ReadSet set;
  set.reads.push_back({"a", "ACGTACGTAC", {}});
  kspec::TileParams params;
  params.k = 4;
  params.overlap = 2;  // tile length 6
  params.both_strands = false;
  const auto table = kspec::TileTable::build(set, params);
  EXPECT_EQ(table.tile_length(), 6);
  EXPECT_GT(table.counts(seq::encode_kmer("ACGTAC").value()).oc, 0u);
}

TEST(TileTable, RejectsInvalidParams) {
  seq::ReadSet set;
  kspec::TileParams params;
  params.k = 20;
  params.overlap = 2;  // tile length 38 > 32
  EXPECT_THROW(kspec::TileTable::build(set, params), std::invalid_argument);
}

TEST(TileTable, BothStrandsCountRevcompTiles) {
  seq::ReadSet set;
  set.reads.push_back({"a", "AACCGGTT", {}});
  kspec::TileParams params;
  params.k = 4;
  params.both_strands = true;
  const auto table = kspec::TileTable::build(set, params);
  // "AACCGGTT" is its own reverse complement, so its single 8-base tile
  // counts twice.
  EXPECT_EQ(table.counts(seq::encode_kmer("AACCGGTT").value()).oc, 2u);
}

// --- Parallel phase-1 identity: TileTable and HammingGraph must equal a
// plain sort + run-length reference and a brute-force neighbor search at
// every pool size.

/// Reads sampled from a random genome with substitutions, N breaks,
/// random qualities (some reads without any), and a few reads shorter
/// than any tile.
seq::ReadSet phase1_reads(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  const auto genome =
      sim::random_sequence(3000, {0.25, 0.25, 0.25, 0.25}, rng);
  seq::ReadSet set;
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = i % 50 == 0 ? 7 : 40 + rng.below(25);
    std::string bases =
        genome.substr(rng.below(genome.size() - len), len);
    for (char& b : bases) {
      const std::uint64_t roll = rng.below(1000);
      if (roll < 8) {
        b = "ACGT"[rng.below(4)];
      } else if (roll < 12) {
        b = 'N';
      }
    }
    std::vector<std::uint8_t> quality;
    if (i % 7 != 0) {
      for (std::size_t j = 0; j < len; ++j) {
        quality.push_back(static_cast<std::uint8_t>(2 + rng.below(39)));
      }
    }
    set.reads.push_back({std::to_string(i), bases, quality});
  }
  return set;
}

struct TileRef {
  std::vector<seq::KmerCode> codes;
  std::vector<std::uint32_t> oc;
  std::vector<std::uint32_t> og;
};

/// Sort + run-length reference over string-level window extraction; the
/// reverse strand comes from reverse_complement and reversed qualities.
TileRef reference_tiles(const seq::ReadSet& reads,
                        const kspec::TileParams& params) {
  const auto tl = static_cast<std::size_t>(params.tile_length());
  std::vector<seq::KmerCode> all, hq;
  const auto scan = [&](const std::string& bases,
                        const std::vector<std::uint8_t>& quality) {
    for (std::size_t s = 0; s + tl <= bases.size(); ++s) {
      const auto code =
          seq::encode_kmer(std::string_view(bases).substr(s, tl));
      if (!code) continue;
      all.push_back(*code);
      bool good = true;
      if (params.quality_cutoff > 0 && quality.size() == bases.size()) {
        for (std::size_t j = s; j < s + tl; ++j) {
          good = good && quality[j] >= params.quality_cutoff;
        }
      }
      if (good) hq.push_back(*code);
    }
  };
  for (const auto& r : reads.reads) {
    scan(r.bases, r.quality);
    if (params.both_strands) {
      scan(seq::reverse_complement(r.bases),
           std::vector<std::uint8_t>(r.quality.rbegin(), r.quality.rend()));
    }
  }
  std::sort(all.begin(), all.end());
  std::sort(hq.begin(), hq.end());
  TileRef ref;
  for (std::size_t i = 0; i < all.size();) {
    std::size_t j = i;
    while (j < all.size() && all[j] == all[i]) ++j;
    const auto [lo, hi] = std::equal_range(hq.begin(), hq.end(), all[i]);
    ref.codes.push_back(all[i]);
    ref.oc.push_back(static_cast<std::uint32_t>(j - i));
    ref.og.push_back(static_cast<std::uint32_t>(hi - lo));
    i = j;
  }
  return ref;
}

void expect_table_equals(const kspec::TileTable& table, const TileRef& ref,
                         const std::string& what) {
  ASSERT_EQ(table.size(), ref.codes.size()) << what;
  for (std::size_t i = 0; i < ref.codes.size(); ++i) {
    ASSERT_EQ(table.code_at(i), ref.codes[i]) << what << " entry " << i;
    ASSERT_EQ(table.counts_at(i).oc, ref.oc[i]) << what << " entry " << i;
    ASSERT_EQ(table.counts_at(i).og, ref.og[i]) << what << " entry " << i;
  }
}

TEST(TileTable, ParallelBuildMatchesSortReferenceAcrossPools) {
  // 1200 reads hold enough instances (> 8192) for the radix partition to
  // split them into buckets.
  const auto reads = phase1_reads(17, 1200);
  struct Case {
    int k, overlap, qc;
    bool both;
  };
  const Case cases[] = {{8, 0, 0, true},   {8, 0, 20, true},
                        {8, 3, 20, true},  {10, 2, 25, false},
                        {16, 0, 20, true}, {16, 0, 0, false}};
  util::ThreadPool pools[] = {util::ThreadPool(1), util::ThreadPool(2),
                              util::ThreadPool(4)};
  for (const auto& c : cases) {
    kspec::TileParams params;
    params.k = c.k;
    params.overlap = c.overlap;
    params.quality_cutoff = c.qc;
    params.both_strands = c.both;
    const auto ref = reference_tiles(reads, params);
    ASSERT_GT(ref.codes.size(), 1000u);
    for (auto& pool : pools) {
      const auto table = kspec::TileTable::build(reads, params, &pool);
      EXPECT_EQ(table.params(), params);
      expect_table_equals(table, ref,
                          "k=" + std::to_string(c.k) + " l=" +
                              std::to_string(c.overlap) + " qc=" +
                              std::to_string(c.qc) + " both=" +
                              std::to_string(c.both) + " pool=" +
                              std::to_string(pool.size()));
    }
  }
  // Empty read set: an empty table at every pool size.
  for (auto& pool : pools) {
    EXPECT_EQ(kspec::TileTable::build(seq::ReadSet{}, kspec::TileParams{},
                                      &pool)
                  .size(),
              0u);
  }
}

TEST(TileTable, QualityOfWrongLengthCountsAsAbsent) {
  // A quality string shorter (or longer) than the bases is ignored: every
  // instance is high quality, exactly as with no qualities at all.
  seq::ReadSet set;
  set.reads.push_back({"short", "ACGTACGTACGTTT", {40, 40, 2}});
  set.reads.push_back(
      {"long", "TTGCATGCAAGG", std::vector<std::uint8_t>(40, 2)});
  kspec::TileParams params;
  params.k = 4;
  params.quality_cutoff = 20;
  const auto table = kspec::TileTable::build(set, params);
  ASSERT_GT(table.size(), 0u);
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table.counts_at(i).og, table.counts_at(i).oc);
  }
  expect_table_equals(table, reference_tiles(set, params), "mismatched");
}

TEST(HammingGraph, ParallelAdjacencyMatchesBruteForceAcrossPools) {
  const auto reads = phase1_reads(23, 400);
  const auto spec = KSpectrum::build(reads, 11, /*both_strands=*/true);
  const kspec::CandidateEnumerator enumerator(spec);
  util::ThreadPool pools[] = {util::ThreadPool(1), util::ThreadPool(2),
                              util::ThreadPool(4)};
  for (const int d : {1, 2}) {
    std::vector<std::vector<std::uint32_t>> expect(spec.size());
    std::vector<seq::KmerCode> scratch;
    std::uint64_t edges = 0;
    for (std::size_t i = 0; i < spec.size(); ++i) {
      enumerator.for_each_neighbor(
          spec.code_at(i), d,
          [&](seq::KmerCode, std::size_t j) {
            expect[i].push_back(static_cast<std::uint32_t>(j));
          },
          scratch);
      std::sort(expect[i].begin(), expect[i].end());
      edges += expect[i].size();
    }
    ASSERT_GT(edges, 0u);
    for (auto& pool : pools) {
      const kspec::HammingGraph graph(spec, d, 0, &pool);
      ASSERT_EQ(graph.num_vertices(), spec.size());
      EXPECT_EQ(graph.num_edges(), edges / 2);
      for (std::size_t i = 0; i < spec.size(); ++i) {
        const auto got = graph.neighbors(i);
        ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                  expect[i])
            << "d=" << d << " pool=" << pool.size() << " vertex " << i;
      }
    }
  }
  // Empty spectrum: no vertices at every pool size.
  for (auto& pool : pools) {
    const kspec::HammingGraph graph(KSpectrum::from_codes({}, 11), 1, 0,
                                    &pool);
    EXPECT_EQ(graph.num_vertices(), 0u);
  }
}

}  // namespace
