// Tests for the bounded-memory spectrum builder (Sec. 2.3's
// divide-and-merge strategy).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "io/fastx.hpp"
#include "kspec/chunked_builder.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ngs;

sim::SimulatedReads make_run(std::uint64_t seed) {
  util::Rng rng(seed);
  sim::GenomeSpec gspec;
  gspec.length = 20000;
  const auto genome = sim::simulate_genome(gspec, rng);
  const auto model = sim::ErrorModel::illumina(36, 0.01);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = 25.0;
  return sim::simulate_reads(genome.sequence, model, cfg, rng);
}

TEST(ChunkedBuilder, MatchesMonolithicBuild) {
  const auto run = make_run(3);
  const auto reference = kspec::KSpectrum::build(run.reads, 13, true);

  for (const std::size_t batch : {2048ul, 16384ul, std::size_t{1} << 22}) {
    kspec::ChunkedSpectrumBuilder builder(13, true, batch);
    builder.add_reads(run.reads);
    int rounds = 0;
    const auto chunked = builder.finish(&rounds);
    ASSERT_EQ(chunked.size(), reference.size()) << "batch=" << batch;
    ASSERT_EQ(chunked.total_instances(), reference.total_instances());
    for (std::size_t i = 0; i < reference.size(); i += 101) {
      ASSERT_EQ(chunked.code_at(i), reference.code_at(i));
      ASSERT_EQ(chunked.count_at(i), reference.count_at(i));
    }
  }
}

TEST(ChunkedBuilder, ByteIdenticalAcrossPoolSizes) {
  const auto run = make_run(9);
  kspec::SpectrumBuildOptions serial;
  serial.threads = 1;
  const auto reference = kspec::KSpectrum::build(run.reads, 13, true, serial);

  for (const std::size_t threads : {1ul, 2ul, 4ul}) {
    util::ThreadPool pool(threads);
    kspec::ChunkedSpectrumBuilder builder(13, true, 4096, &pool);
    builder.add_reads(run.reads);
    const auto chunked = builder.finish();
    ASSERT_EQ(chunked.size(), reference.size()) << "threads=" << threads;
    ASSERT_EQ(chunked.total_instances(), reference.total_instances());
    ASSERT_TRUE(std::equal(chunked.codes().begin(), chunked.codes().end(),
                           reference.codes().begin(),
                           reference.codes().end()));
    ASSERT_TRUE(std::equal(chunked.counts().begin(), chunked.counts().end(),
                           reference.counts().begin(),
                           reference.counts().end()));
  }
}

TEST(ChunkedBuilder, PeakBufferIsBounded) {
  const auto run = make_run(5);
  constexpr std::size_t kBatch = 4096;
  kspec::ChunkedSpectrumBuilder builder(13, true, kBatch);
  builder.add_reads(run.reads);
  // A read contributes at most 2*(L-k+1) instances past the threshold.
  EXPECT_LE(builder.peak_buffered(), kBatch + 2 * 36);
  (void)builder.finish();
}

TEST(ChunkedBuilder, StreamsFastqWithoutReadSet) {
  const auto run = make_run(7);
  std::stringstream fastq;
  io::write_fastq(fastq, run.reads);

  kspec::ChunkedSpectrumBuilder builder(13, true, 8192);
  builder.add_fastq(fastq);
  const auto streamed = builder.finish();
  const auto reference = kspec::KSpectrum::build(run.reads, 13, true);
  EXPECT_EQ(streamed.size(), reference.size());
  EXPECT_EQ(streamed.total_instances(), reference.total_instances());
}

TEST(ChunkedBuilder, ReusableAfterFinish) {
  kspec::ChunkedSpectrumBuilder builder(8, false, 2048);
  builder.add_read("ACGTACGTACGT");
  const auto first = builder.finish();
  EXPECT_GT(first.size(), 0u);
  builder.add_read("TTTTTTTTTT");
  const auto second = builder.finish();
  EXPECT_TRUE(second.contains(seq::encode_kmer("TTTTTTTT").value()));
  EXPECT_FALSE(second.contains(seq::encode_kmer("ACGTACGT").value()));
}

TEST(ChunkedBuilder, EmptyInput) {
  kspec::ChunkedSpectrumBuilder builder(11);
  const auto spec = builder.finish();
  EXPECT_EQ(spec.size(), 0u);
  EXPECT_TRUE(spec.empty());
}

// --- Out-of-core (budget/spill) path ----------------------------------

kspec::SpillOptions spill_options(std::size_t budget) {
  kspec::SpillOptions spill;
  spill.memory_budget_bytes = budget;
  spill.spill_dir = testing::TempDir();
  return spill;
}

TEST(ChunkedBuilder, SpilledBuildMatchesInMemoryByteForByte) {
  const auto run = make_run(11);
  const auto reference = kspec::KSpectrum::build(run.reads, 13, true);

  // The floor for this dataset is the finish-phase working set of the
  // largest prefix bin (~301 KB); budgets below that cannot be honored.
  for (const std::size_t budget : {std::size_t{350000}, std::size_t{600000}}) {
    kspec::ChunkedSpectrumBuilder builder(13, true, 1 << 20, nullptr,
                                          spill_options(budget));
    builder.add_reads(run.reads);
    EXPECT_TRUE(builder.spilled()) << "budget=" << budget;
    const auto spilled = builder.finish();
    EXPECT_GT(builder.spill_bytes(), 0u);
    EXPECT_GT(builder.peak_tracked_bytes(), 0u);
    EXPECT_LE(builder.peak_tracked_bytes(), budget) << "budget=" << budget;
    ASSERT_EQ(spilled.size(), reference.size()) << "budget=" << budget;
    ASSERT_EQ(spilled.total_instances(), reference.total_instances());
    ASSERT_TRUE(std::equal(spilled.codes().begin(), spilled.codes().end(),
                           reference.codes().begin(),
                           reference.codes().end()));
    ASSERT_TRUE(std::equal(spilled.counts().begin(), spilled.counts().end(),
                           reference.counts().begin(),
                           reference.counts().end()));
  }
}

TEST(ChunkedBuilder, UnderBudgetNeverSpills) {
  const auto run = make_run(13);
  kspec::ChunkedSpectrumBuilder builder(13, true, 1 << 20, nullptr,
                                        spill_options(std::size_t{1} << 30));
  builder.add_reads(run.reads);
  EXPECT_FALSE(builder.spilled());
  const auto spec = builder.finish();
  EXPECT_EQ(builder.spill_bytes(), 0u);
  const auto reference = kspec::KSpectrum::build(run.reads, 13, true);
  EXPECT_EQ(spec.size(), reference.size());
  EXPECT_EQ(spec.total_instances(), reference.total_instances());
}

TEST(ChunkedBuilder, FinishSpilledStreamsDisjointAscendingRuns) {
  const auto run = make_run(17);
  const auto reference = kspec::KSpectrum::build(run.reads, 13, true);

  kspec::ChunkedSpectrumBuilder builder(13, true, 1 << 20, nullptr,
                                        spill_options(250000));
  builder.add_reads(run.reads);
  ASSERT_TRUE(builder.spilled());
  builder.flush_spill();
  const std::size_t bins = builder.spill_nonempty_bins();
  EXPECT_GE(bins, 2u);
  const int shard_bits = builder.spill_shard_bits();
  const int shift = 2 * 13 - shard_bits;

  std::vector<seq::KmerCode> codes;
  std::vector<std::uint32_t> counts;
  std::size_t runs = 0;
  std::uint32_t last_prefix = 0;
  builder.finish_spilled([&](kspec::ChunkedSpectrumBuilder::SortedRun&& r) {
    if (runs > 0) {
      EXPECT_GT(r.prefix, last_prefix) << "prefix order";
    }
    last_prefix = r.prefix;
    ++runs;
    ASSERT_FALSE(r.codes.empty());
    for (const seq::KmerCode c : r.codes) {
      ASSERT_EQ(static_cast<std::uint32_t>(c >> shift), r.prefix);
    }
    codes.insert(codes.end(), r.codes.begin(), r.codes.end());
    counts.insert(counts.end(), r.counts.begin(), r.counts.end());
  });
  EXPECT_EQ(runs, bins);
  ASSERT_EQ(codes.size(), reference.size());
  EXPECT_TRUE(std::equal(codes.begin(), codes.end(),
                         reference.codes().begin(), reference.codes().end()));
  EXPECT_TRUE(std::equal(counts.begin(), counts.end(),
                         reference.counts().begin(),
                         reference.counts().end()));
}

TEST(ChunkedBuilder, SpilledBuilderIsReusable) {
  kspec::ChunkedSpectrumBuilder builder(8, true, 1 << 20,
                                        nullptr, spill_options(100000));
  // Force a spill on the first build by exceeding the minimum threshold.
  std::string read(5000, 'A');
  for (std::size_t i = 0; i < read.size(); i += 7) read[i] = 'C';
  for (int r = 0; r < 12; ++r) builder.add_read(read);
  EXPECT_TRUE(builder.spilled());
  const auto first = builder.finish();
  EXPECT_GT(first.size(), 0u);

  builder.add_read("TTTTTTTTTT");
  EXPECT_FALSE(builder.spilled()) << "finish() must reset the spill state";
  const auto second = builder.finish();
  EXPECT_TRUE(second.contains(seq::encode_kmer("TTTTTTTT").value()));
}

TEST(KSpectrum, FromSortedCountsValidates) {
  // Size mismatch throws in every build mode; the O(n) order/count scan
  // is debug-only, so out-of-order codes are asserted through the
  // always-available validate_sorted_counts entry point instead.
  EXPECT_THROW(kspec::KSpectrum::from_sorted_counts({1, 2}, {1}, 8),
               std::invalid_argument);
  const std::vector<seq::KmerCode> unsorted{2, 1};
  const std::vector<std::uint32_t> ones{1, 1};
  EXPECT_TRUE(
      kspec::KSpectrum::validate_sorted_counts(unsorted, ones, 8).has_value());
#ifndef NDEBUG
  EXPECT_THROW(kspec::KSpectrum::from_sorted_counts({2, 1}, {1, 1}, 8),
               std::invalid_argument);
#endif
  const auto s = kspec::KSpectrum::from_sorted_counts({5, 9}, {3, 4}, 8);
  EXPECT_EQ(s.count(5), 3u);
  EXPECT_EQ(s.total_instances(), 7u);
}

}  // namespace
