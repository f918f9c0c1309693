// Tests for the ngs::core layer: the corrector registry, the streaming
// FASTQ reader, and the two-pass CorrectionPipeline — in particular the
// guarantee that the pipeline's file-to-file output is byte-identical to
// the in-memory Corrector::correct_all path for every registered method.

#include <gtest/gtest.h>

#include <algorithm>

#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "core/corrector.hpp"
#include "core/pipeline.hpp"
#include "core/registry.hpp"
#include "io/fastq_stream.hpp"
#include "io/fastx.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace ngs;

sim::SimulatedReads make_run(std::uint64_t seed, double coverage = 25.0) {
  util::Rng rng(seed);
  sim::GenomeSpec gspec;
  gspec.length = 20000;
  const auto genome = sim::simulate_genome(gspec, rng);
  const auto model = sim::ErrorModel::illumina(36, 0.01);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = coverage;
  return sim::simulate_reads(genome.sequence, model, cfg, rng);
}

std::string to_fastq(const seq::ReadSet& reads) {
  std::ostringstream os;
  io::write_fastq(os, reads);
  return os.str();
}

core::CorrectionPipeline::StreamFactory factory_for(std::string fastq) {
  return [fastq = std::move(fastq)] {
    return std::make_unique<std::istringstream>(fastq);
  };
}

TEST(CorrectionReport, BumpExtraMergeSummary) {
  core::CorrectionReport a;
  a.reads = 10;
  a.reads_changed = 2;
  a.bases_changed = 3;
  a.bump("tiles", 5);
  a.bump("tiles", 2);
  EXPECT_EQ(a.extra("tiles"), 7u);
  EXPECT_EQ(a.extra("missing"), 0u);

  core::CorrectionReport b;
  b.reads = 1;
  b.bump("other", 1);
  b.bump("tiles", 1);
  a.merge(b);
  EXPECT_EQ(a.reads, 11u);
  EXPECT_EQ(a.extra("tiles"), 8u);
  EXPECT_EQ(a.extra("other"), 1u);
  const std::string s = a.summary();
  EXPECT_NE(s.find("11 reads"), std::string::npos);
  EXPECT_NE(s.find("tiles=8"), std::string::npos);
}

TEST(Registry, ListsAllSevenBuiltins) {
  const auto methods = core::registered_methods();
  std::set<std::string> names;
  for (const auto& m : methods) names.insert(m.name);
  for (const char* expected :
       {"reptile", "redeem", "hybrid", "shrec", "sap", "hitec", "freclu"}) {
    EXPECT_TRUE(names.count(expected)) << expected;
  }
  EXPECT_EQ(names.size(), methods.size()) << "duplicate registrations";
}

TEST(Registry, UnknownMethodThrowsWithKnownNames) {
  try {
    core::make_corrector("bogus");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("reptile"), std::string::npos);
  }
}

TEST(Registry, StreamingFlagMatchesSpectrumK) {
  for (const auto& m : core::registered_methods()) {
    core::CorrectorConfig config;
    const auto corrector = core::make_corrector(m.name, config);
    EXPECT_EQ(m.streaming, corrector->spectrum_k() > 0) << m.name;
    EXPECT_FALSE(corrector->ready()) << m.name;
  }
}

TEST(Corrector, CorrectBeforeBuildThrows) {
  const auto corrector = core::make_corrector("sap");
  core::CorrectionReport report;
  seq::ReadSet reads;
  EXPECT_THROW(corrector->correct_all(reads, report), std::logic_error);
}

TEST(FastqStreamReader, MatchesReadFastq) {
  const auto run = make_run(3);
  const std::string fastq = to_fastq(run.reads);

  std::istringstream is(fastq);
  io::FastqStreamReader reader(is);
  seq::Read r;
  std::size_t i = 0;
  while (reader.next(r)) {
    ASSERT_LT(i, run.reads.size());
    EXPECT_EQ(r.id, run.reads.reads[i].id);
    EXPECT_EQ(r.bases, run.reads.reads[i].bases);
    ++i;
  }
  EXPECT_EQ(i, run.reads.size());
  EXPECT_EQ(reader.records(), run.reads.size());
}

TEST(FastqStreamReader, BatchSizeOneAndOversizedBatch) {
  const auto run = make_run(5, 2.0);
  const std::string fastq = to_fastq(run.reads);

  // Batch size 1: one record per call, then 0 at EOF.
  {
    std::istringstream is(fastq);
    io::FastqStreamReader reader(is);
    std::vector<seq::Read> batch;
    std::size_t total = 0;
    while (true) {
      batch.clear();
      const std::size_t n = reader.read_batch(batch, 1);
      if (n == 0) break;
      ASSERT_EQ(n, 1u);
      ASSERT_EQ(batch.size(), 1u);
      EXPECT_EQ(batch[0].bases, run.reads.reads[total].bases);
      ++total;
    }
    EXPECT_EQ(total, run.reads.size());
  }

  // Batch larger than the file: everything arrives in one call.
  {
    std::istringstream is(fastq);
    io::FastqStreamReader reader(is);
    std::vector<seq::Read> batch;
    EXPECT_EQ(reader.read_batch(batch, run.reads.size() * 10),
              run.reads.size());
    EXPECT_EQ(batch.size(), run.reads.size());
    EXPECT_EQ(reader.read_batch(batch, 8), 0u);
  }
}

TEST(FastqStreamReader, AppendsWithoutClearing) {
  std::istringstream is("@a\nACGT\n+\nIIII\n@b\nTTTT\n+\nIIII\n");
  io::FastqStreamReader reader(is);
  std::vector<seq::Read> batch;
  EXPECT_EQ(reader.read_batch(batch, 1), 1u);
  EXPECT_EQ(reader.read_batch(batch, 1), 1u);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].id, "a");
  EXPECT_EQ(batch[1].id, "b");
}

TEST(FastqStreamReader, TruncatedRecordThrows) {
  // Record cut off after the '+' separator.
  std::istringstream is("@a\nACGT\n+\nIIII\n@b\nTTTT\n+\n");
  io::FastqStreamReader reader(is);
  seq::Read r;
  EXPECT_TRUE(reader.next(r));
  EXPECT_THROW(reader.next(r), std::runtime_error);
}

TEST(FastqStreamReader, MalformedRecordsThrow) {
  seq::Read r;
  {
    std::istringstream is("ACGT\n+\nIIII\n");  // header missing '@'
    io::FastqStreamReader reader(is);
    EXPECT_THROW(reader.next(r), std::runtime_error);
  }
  {
    std::istringstream is("@a\nACGT\nIIII\n@b\n");  // '+' missing
    io::FastqStreamReader reader(is);
    EXPECT_THROW(reader.next(r), std::runtime_error);
  }
  {
    std::istringstream is("@a\nACGT\n+\nIII\n");  // length mismatch
    io::FastqStreamReader reader(is);
    EXPECT_THROW(reader.next(r), std::runtime_error);
  }
}

TEST(FastqStreamReader, MissingFileThrows) {
  EXPECT_THROW(io::FastqStreamReader("/nonexistent/path.fastq"),
               std::runtime_error);
}

// The central pipeline guarantee: file-to-file streaming correction is
// byte-identical to in-memory build + correct_all, for every method.
TEST(CorrectionPipeline, ByteIdenticalToCorrectAllForEveryMethod) {
  const auto run = make_run(11);
  const std::string input = to_fastq(run.reads);

  for (const auto& m : core::registered_methods()) {
    core::CorrectorConfig config;
    config.genome_length = 20000;
    if (m.name == "redeem" || m.name == "hybrid") config.error_rate = 0.01;

    // Reference: the in-memory path.
    auto reference = core::make_corrector(m.name, config);
    reference->build(run.reads);
    core::CorrectionReport ref_report;
    const auto ref_out = reference->correct_all(run.reads, ref_report);
    std::ostringstream ref_fastq;
    io::write_fastq(ref_fastq, std::span<const seq::Read>(ref_out));

    // Candidate: the streaming pipeline over the same bytes, with a batch
    // size that does not divide the input evenly.
    core::PipelineOptions options;
    options.batch_size = 257;
    core::CorrectionPipeline pipeline(core::make_corrector(m.name, config),
                                      options);
    std::ostringstream out;
    const auto result = pipeline.run(factory_for(input), out);

    EXPECT_EQ(out.str(), ref_fastq.str()) << m.name;
    EXPECT_EQ(result.report.reads, run.reads.size()) << m.name;
    EXPECT_EQ(result.report.reads_changed, ref_report.reads_changed) << m.name;
    EXPECT_EQ(result.report.bases_changed, ref_report.bases_changed) << m.name;
    EXPECT_EQ(result.streamed, m.streaming) << m.name;
    EXPECT_EQ(result.input.reads, run.reads.size()) << m.name;
  }
}

// O(batch) read buffering on the streamed path at its tightest setting
// (one worker, queue depth 1), via the pipeline's own accounting plus
// the util/memory.hpp RSS hook: one batch per pipeline slot, i.e. at
// most batch_size * (1 + 2*1 + 1) reads, well below the input size.
TEST(CorrectionPipeline, StreamedPathBuffersOnlyOneBatch) {
  const auto run = make_run(13);
  const std::string input = to_fastq(run.reads);

  core::CorrectorConfig config;
  core::PipelineOptions options;
  options.batch_size = 256;
  options.threads = 1;
  options.queue_depth = 1;
  const std::size_t cap = options.batch_size * (options.queue_depth + 3);
  ASSERT_GT(run.reads.size(), 2 * cap);
  core::CorrectionPipeline pipeline(core::make_corrector("sap", config),
                                    options);
  std::ostringstream out;
  const auto result = pipeline.run(factory_for(input), out);

  EXPECT_TRUE(result.streamed);
  EXPECT_LE(result.peak_buffered_reads, cap);
  EXPECT_GT(result.peak_rss_bytes, 0u);
  EXPECT_EQ(result.batches,
            (run.reads.size() + options.batch_size - 1) / options.batch_size);
}

// O(batch) read buffering on the streamed path: at every depth the
// reads resident stay under the executor's documented cap of
// batch_size * (queue_depth + 2*workers + 1), independent of input size.
TEST(CorrectionPipeline, OverlappedPathBuffersStayBounded) {
  const auto run = make_run(13);
  const std::string input = to_fastq(run.reads);
  ASSERT_GT(run.reads.size(), 256u);

  for (const std::size_t depth : {1ul, 2ul, 8ul}) {
    core::CorrectorConfig config;
    core::PipelineOptions options;
    options.batch_size = 64;
    options.threads = 2;
    options.queue_depth = depth;
    core::CorrectionPipeline pipeline(core::make_corrector("sap", config),
                                      options);
    std::ostringstream out;
    const auto result = pipeline.run(factory_for(input), out);

    EXPECT_TRUE(result.streamed) << depth;
    EXPECT_GT(result.peak_rss_bytes, 0u) << depth;
    const std::size_t cap =
        options.batch_size * (depth + 2 * options.threads + 1);
    EXPECT_LE(result.peak_buffered_reads, cap) << depth;
    EXPECT_EQ(result.batches,
              (run.reads.size() + options.batch_size - 1) /
                  options.batch_size)
        << depth;
    EXPECT_EQ(result.pass2_overlap.items, result.batches) << depth;
    EXPECT_LE(result.pass2_overlap.queue_peak, depth) << depth;
    EXPECT_EQ(result.report.extra("queue_depth"), depth) << depth;
  }
}

// The identity guarantee of the pass-2 executor: output is
// byte-identical to the in-memory Corrector::correct_all path at every
// thread count x queue depth, for both a spectrum-streamed and a
// buffered-input method.
TEST(CorrectionPipeline, OverlappedOutputByteIdenticalAcrossThreadsAndDepths) {
  const auto run = make_run(29);
  const std::string input = to_fastq(run.reads);

  for (const char* method : {"sap", "reptile"}) {
    core::CorrectorConfig config;
    config.genome_length = 20000;

    // Reference: the in-memory whole-set path.
    auto reference = core::make_corrector(method, config);
    reference->build(run.reads);
    core::CorrectionReport ref_report;
    const auto ref_reads = reference->correct_all(run.reads, ref_report);
    std::ostringstream ref_out;
    io::write_fastq(ref_out, std::span<const seq::Read>(ref_reads));
    ASSERT_FALSE(ref_out.str().empty()) << method;

    for (const std::size_t threads : {1ul, 2ul, 4ul, 8ul}) {
      for (const std::size_t depth : {1ul, 2ul, 8ul}) {
        core::PipelineOptions options;
        options.batch_size = 113;
        options.threads = threads;
        options.queue_depth = depth;
        core::CorrectionPipeline pipeline(
            core::make_corrector(method, config), options);
        std::ostringstream out;
        const auto result = pipeline.run(factory_for(input), out);
        EXPECT_EQ(result.pass2_overlap.workers, threads)
            << method << " t=" << threads << " d=" << depth;
        EXPECT_EQ(out.str(), ref_out.str())
            << method << " t=" << threads << " d=" << depth;
      }
    }
  }
}

TEST(CorrectionPipeline, BufferedPathHoldsWholeInput) {
  const auto run = make_run(17, 5.0);
  const std::string input = to_fastq(run.reads);

  core::PipelineOptions options;
  options.batch_size = 64;
  core::CorrectionPipeline pipeline(core::make_corrector("reptile", {}),
                                    options);
  std::ostringstream out;
  const auto result = pipeline.run(factory_for(input), out);

  EXPECT_FALSE(result.streamed);
  EXPECT_EQ(result.peak_buffered_reads, run.reads.size());
  EXPECT_EQ(result.report.reads, run.reads.size());
}

TEST(CorrectionPipeline, OwnThreadCountMatchesDefaultPoolOutput) {
  const auto run = make_run(19, 10.0);
  const std::string input = to_fastq(run.reads);

  std::string outputs[2];
  for (int i = 0; i < 2; ++i) {
    core::PipelineOptions options;
    options.batch_size = 100;
    options.threads = i == 0 ? 0 : 3;
    core::CorrectionPipeline pipeline(core::make_corrector("hitec", {}),
                                      options);
    std::ostringstream out;
    pipeline.run(factory_for(input), out);
    outputs[i] = out.str();
  }
  EXPECT_EQ(outputs[0], outputs[1]);
  EXPECT_FALSE(outputs[0].empty());
}

// The tile-decision memo must never change what the pipeline writes:
// cached and uncached runs are byte-identical at every thread count,
// and the cached run surfaces the standardized perf extras.
TEST(CorrectionPipeline, TileCacheOutputByteIdenticalAcrossThreadCounts) {
  const auto run = make_run(23);
  const std::string input = to_fastq(run.reads);

  auto run_pipeline = [&](std::size_t tile_cache_mb, std::size_t threads,
                          core::CorrectionReport& report) {
    core::CorrectorConfig config;
    config.genome_length = 20000;
    config.tile_cache_mb = tile_cache_mb;
    core::PipelineOptions options;
    options.batch_size = 301;
    options.threads = threads;
    core::CorrectionPipeline pipeline(core::make_corrector("reptile", config),
                                      options);
    std::ostringstream out;
    report = pipeline.run(factory_for(input), out).report;
    return out.str();
  };

  core::CorrectionReport uncached_report;
  const std::string uncached = run_pipeline(0, 1, uncached_report);
  ASSERT_FALSE(uncached.empty());
  EXPECT_EQ(uncached_report.extra("tile_cache_hits"), 0u);
  EXPECT_EQ(uncached_report.extra("tile_cache_misses"), 0u);

  for (const std::size_t threads : {0ul, 1ul, 2ul, 4ul}) {
    core::CorrectionReport report;
    EXPECT_EQ(run_pipeline(32, threads, report), uncached) << threads;
    EXPECT_GT(report.extra("tile_cache_hits") +
                  report.extra("tile_cache_misses"),
              0u)
        << threads;
    EXPECT_GT(report.extra("pass2_reads_per_sec"), 0u) << threads;
    EXPECT_EQ(report.reads_changed, uncached_report.reads_changed) << threads;
    EXPECT_EQ(report.bases_changed, uncached_report.bases_changed) << threads;
  }
}

// Phase 1 of a buffered method is timed: its report carries build_ms
// (possibly 0 on tiny inputs); a streamed run's report does not.
TEST(CorrectionPipeline, BufferedRunReportsBuildTime) {
  const auto run = make_run(29);
  const std::string input = to_fastq(run.reads);
  const auto has_build_ms = [&](const std::string& method) {
    core::CorrectorConfig config;
    config.genome_length = 20000;
    core::CorrectionPipeline pipeline(core::make_corrector(method, config));
    std::ostringstream out;
    const auto result = pipeline.run(factory_for(input), out);
    EXPECT_FALSE(out.str().empty()) << method;
    const auto& extras = result.report.extras;
    return std::any_of(extras.begin(), extras.end(),
                       [](const auto& e) { return e.first == "build_ms"; });
  };
  EXPECT_TRUE(has_build_ms("reptile"));
  EXPECT_TRUE(has_build_ms("freclu"));
  EXPECT_FALSE(has_build_ms("sap"));
}

TEST(CorrectionPipeline, NullCorrectorThrows) {
  EXPECT_THROW(core::CorrectionPipeline(nullptr), std::invalid_argument);
}

TEST(CorrectionPipeline, EmptyInputProducesEmptyOutput) {
  core::CorrectionPipeline pipeline(core::make_corrector("sap", {}));
  std::ostringstream out;
  const auto result = pipeline.run(factory_for(""), out);
  EXPECT_EQ(out.str(), "");
  EXPECT_EQ(result.report.reads, 0u);
  EXPECT_EQ(result.batches, 0u);
}

TEST(Registry, CustomRegistrationShadowsAndLists) {
  // A test double registered under a fresh name shows up in the list and
  // is constructible through make_corrector.
  class Passthrough final : public core::Corrector {
   public:
    std::string_view method() const noexcept override { return "identity"; }
    void build(const seq::ReadSet&) override { mark_ready(); }
    void correct_batch(std::span<const seq::Read> in,
                       std::vector<seq::Read>& out,
                       core::CorrectionReport& report,
                       core::BatchScratch*) const override {
      require_ready();
      for (const auto& r : in) {
        out.push_back(r);
        core::tally_read(r, r, report);
      }
    }
  };
  core::register_corrector({"identity", "test passthrough", false},
                           [](const core::CorrectorConfig&) {
                             return std::make_unique<Passthrough>();
                           });
  const auto corrector = core::make_corrector("identity");
  seq::ReadSet reads;
  reads.reads.push_back({"r1", "ACGT", {30, 30, 30, 30}});
  corrector->build(reads);
  core::CorrectionReport report;
  const auto out = corrector->correct_all(reads, report);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].bases, "ACGT");
  EXPECT_EQ(report.reads, 1u);
  EXPECT_EQ(report.reads_changed, 0u);
}

}  // namespace
