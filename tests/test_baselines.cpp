// Tests for the prior-art baselines the dissertation surveys: the SAP
// corrector, HiTEC-style witness correction, and Quake-style q-mer
// weighting.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>

#include "baselines/hitec.hpp"
#include "baselines/qmer.hpp"
#include "baselines/sap.hpp"
#include "core/pipeline.hpp"
#include "eval/correction_metrics.hpp"
#include "eval/kmer_classification.hpp"
#include "index/spectrum_index.hpp"
#include "io/fastx.hpp"
#include "seq/kmer.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ngs;

struct Setup {
  std::string genome;
  sim::SimulatedReads sim;
};

Setup make_setup(std::uint64_t seed, double err = 0.008,
                 double coverage = 50.0) {
  util::Rng rng(seed);
  sim::GenomeSpec gspec;
  gspec.length = 15000;
  Setup s;
  s.genome = sim::simulate_genome(gspec, rng).sequence;
  const auto model = sim::ErrorModel::illumina(36, err);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = coverage;
  s.sim = sim::simulate_reads(s.genome, model, cfg, rng);
  return s;
}

TEST(Sap, WeakKmerCounting) {
  const auto setup = make_setup(3);
  baselines::SapParams params;
  params.k = 11;
  params.solid_threshold = 3;
  baselines::SapCorrector corrector(setup.sim.reads, params);
  // An error-free genomic window at decent coverage has no weak kmers.
  EXPECT_EQ(corrector.weak_kmers(setup.genome.substr(1000, 36)), 0);
  // Random sequence is all-weak.
  util::Rng rng(4);
  const auto junk = sim::random_sequence(36, {0.25, 0.25, 0.25, 0.25}, rng);
  EXPECT_EQ(corrector.weak_kmers(junk), 36 - 11 + 1);
}

TEST(Sap, FixesMostReads) {
  const auto setup = make_setup(5);
  baselines::SapParams params;
  params.k = 11;
  baselines::SapCorrector corrector(setup.sim.reads, params);
  baselines::SapStats stats;
  const auto corrected = corrector.correct_all(setup.sim.reads, stats);
  const auto m = eval::evaluate_correction(setup.sim.reads, corrected);
  EXPECT_GT(m.gain(), 0.4) << "TP=" << m.tp << " FP=" << m.fp;
  EXPECT_GT(m.specificity(), 0.995);
  EXPECT_GT(stats.reads_fixed, 0u);
  EXPECT_GT(stats.reads_clean, stats.reads_unfixable);
}

TEST(Sap, CleanReadUntouched) {
  const auto setup = make_setup(7, 1e-7);
  baselines::SapParams params;
  params.k = 11;
  baselines::SapCorrector corrector(setup.sim.reads, params);
  baselines::SapStats stats;
  const auto corrected = corrector.correct_all(setup.sim.reads, stats);
  const auto m = eval::evaluate_correction(setup.sim.reads, corrected);
  EXPECT_GT(m.specificity(), 0.9995);
}

// --- SAP window-array scan vs the original greedy scan ------------------

/// The greedy SAP correction as first written: every candidate re-encodes
/// and looks up each covering window from the read string. Kept verbatim
/// (with the member accesses made parameters) as the reference the
/// window-array scan must reproduce read for read.
int reference_weak_kmers(const kspec::KSpectrum& spectrum,
                         const baselines::SapParams& params,
                         std::string_view bases) {
  std::vector<seq::KmerCode> codes;
  seq::extract_kmer_codes(bases, params.k, codes);
  int weak = 0;
  for (const auto code : codes) {
    weak += spectrum.count(code) < params.solid_threshold;
  }
  // Windows lost to ambiguous bases count as weak.
  if (bases.size() >= static_cast<std::size_t>(params.k)) {
    const auto windows = bases.size() - static_cast<std::size_t>(params.k) + 1;
    weak += static_cast<int>(windows - codes.size());
  }
  return weak;
}

seq::Read reference_correct(const kspec::KSpectrum& spectrum,
                            const baselines::SapParams& params,
                            const seq::Read& read,
                            baselines::SapStats& stats) {
  seq::Read out = read;
  int weak = reference_weak_kmers(spectrum, params, out.bases);
  if (weak == 0) {
    ++stats.reads_clean;
    return out;
  }
  const auto weak_covering = [&](const std::string& bases, std::size_t pos) {
    const auto k = static_cast<std::size_t>(params.k);
    if (bases.size() < k) return 0;
    const std::size_t lo = pos >= k - 1 ? pos - (k - 1) : 0;
    const std::size_t hi = std::min(pos, bases.size() - k);
    int weak_count = 0;
    for (std::size_t s = lo; s <= hi; ++s) {
      const auto code =
          seq::encode_kmer(std::string_view(bases).substr(s, k));
      if (!code || spectrum.count(*code) < params.solid_threshold) {
        ++weak_count;
      }
    }
    return weak_count;
  };

  for (int edit = 0; edit < params.max_edits && weak > 0; ++edit) {
    int best_delta = 0;
    std::size_t best_pos = 0;
    char best_base = 0;
    for (std::size_t pos = 0; pos < out.bases.size(); ++pos) {
      const char original = out.bases[pos];
      const int before = weak_covering(out.bases, pos);
      if (before == 0) continue;
      for (const char b : {'A', 'C', 'G', 'T'}) {
        if (b == original) continue;
        out.bases[pos] = b;
        const int delta = before - weak_covering(out.bases, pos);
        if (delta > best_delta) {
          best_delta = delta;
          best_pos = pos;
          best_base = b;
        }
      }
      out.bases[pos] = original;
    }
    if (best_base == 0) break;  // no improving change
    out.bases[best_pos] = best_base;
    ++stats.bases_changed;
    weak -= best_delta;
  }
  if (weak == 0) {
    ++stats.reads_fixed;
  } else {
    ++stats.reads_unfixable;
  }
  return out;
}

/// Reads exercising every branch of the scan: simulated errors, N's at
/// one position and at two positions within one window, lowercase
/// reads and mixed-case reads, reads shorter than k (empty included),
/// and reads with more errors than max_edits can fix.
std::vector<seq::Read> awkward_reads(const std::vector<seq::Read>& source,
                                     std::size_t n, int k,
                                     std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<seq::Read> reads;
  for (std::size_t i = 0; i < n; ++i) {
    seq::Read r = source[rng.below(source.size())];
    std::string& b = r.bases;
    const auto at = [&] { return rng.below(b.size()); };
    switch (i % 8) {
      case 0:
        b[at()] = 'N';
        break;
      case 1: {
        const std::size_t p = rng.below(b.size() - 4);
        b[p] = 'N';
        b[p + 1 + rng.below(3)] = 'N';
        break;
      }
      case 2:
        for (auto& c : b) c = static_cast<char>(std::tolower(c));
        break;
      case 3:
        for (auto& c : b) {
          if (rng.bernoulli(0.5)) c = static_cast<char>(std::tolower(c));
        }
        b[at()] = "acgt"[rng.below(4)];
        break;
      case 4:
        b.resize(rng.below(static_cast<std::uint64_t>(k)));
        break;
      case 5:
        for (int e = 0; e < 6; ++e) b[at()] = "ACGT"[rng.below(4)];
        break;
      case 6:
        b[at()] = "ACGT"[rng.below(4)];
        b[at()] = 'n';
        break;
      default:
        break;
    }
    reads.push_back(std::move(r));
  }
  return reads;
}

std::string sap_temp_path(const std::string& name) {
  return testing::TempDir() + "ngs_sap_test_" + std::to_string(::getpid()) +
         "_" + name;
}

TEST(Sap, WindowScanMatchesReferenceOnFlatAndSpilledSpectra) {
  const auto setup = make_setup(21, 0.01, 40.0);
  baselines::SapParams params;
  params.k = 12;
  params.solid_threshold = 3;
  const auto flat = kspec::KSpectrum::build(setup.sim.reads, params.k, true);

  // The same spectrum through pass 1 under a 1 MiB budget: spilled into
  // prefix bins, written as a sharded index, queried through the lazy
  // sharded view.
  std::ostringstream fastq;
  io::write_fastq(fastq, setup.sim.reads);
  core::PipelineOptions options;
  options.memory_budget_bytes = std::size_t{1} << 20;
  options.spill_dir = testing::TempDir();
  options.save_index_path = sap_temp_path("spilled.ngsx");
  util::ThreadPool pool(2);
  const auto built = core::build_spectrum(
      [text = fastq.str()] { return std::make_unique<std::istringstream>(text); },
      params.k, true, options, pool);
  ASSERT_GT(built.index_shards, 1u);
  const auto index = index::SpectrumIndex::load(options.save_index_path);
  ASSERT_TRUE(index.spectrum().sharded());

  const auto reads =
      awkward_reads(setup.sim.reads.reads, 4000, params.k, 22);
  for (const int max_edits : {1, 3}) {
    params.max_edits = max_edits;
    baselines::SapStats want;
    std::vector<seq::Read> expected;
    for (const auto& r : reads) {
      expected.push_back(reference_correct(flat, params, r, want));
    }
    ASSERT_GT(want.reads_fixed, 0u);
    ASSERT_GT(want.reads_unfixable, 0u);
    ASSERT_GT(want.reads_clean, 0u);
    for (const bool sharded : {false, true}) {
      const baselines::SapCorrector corrector(
          sharded ? index.share_spectrum() : flat, params);
      baselines::SapStats got;
      baselines::SapCorrector::Scratch scratch;
      for (std::size_t i = 0; i < reads.size(); ++i) {
        ASSERT_EQ(corrector.correct(reads[i], got, scratch).bases,
                  expected[i].bases)
            << "read " << i << " (" << reads[i].bases << ") sharded="
            << sharded << " max_edits=" << max_edits;
        ASSERT_EQ(corrector.weak_kmers(reads[i].bases),
                  reference_weak_kmers(flat, params, reads[i].bases));
      }
      EXPECT_EQ(got.reads_clean, want.reads_clean);
      EXPECT_EQ(got.reads_fixed, want.reads_fixed);
      EXPECT_EQ(got.reads_unfixable, want.reads_unfixable);
      EXPECT_EQ(got.bases_changed, want.bases_changed);
    }
  }
  std::remove(options.save_index_path.c_str());
}

TEST(Hitec, CorrectsWithWitnessSupport) {
  const auto setup = make_setup(9);
  baselines::HitecParams params;
  params.k = 11;
  baselines::HitecCorrector corrector(setup.sim.reads, params);
  baselines::HitecStats stats;
  const auto corrected = corrector.correct_all(setup.sim.reads, stats);
  const auto m = eval::evaluate_correction(setup.sim.reads, corrected);
  EXPECT_GT(m.gain(), 0.4) << "TP=" << m.tp << " FP=" << m.fp;
  EXPECT_GT(m.specificity(), 0.995);
  EXPECT_GT(stats.corrections, 0u);
}

TEST(Hitec, ShortReadsPassThrough) {
  const auto setup = make_setup(11);
  baselines::HitecParams params;
  params.k = 11;
  baselines::HitecCorrector corrector(setup.sim.reads, params);
  baselines::HitecStats stats;
  const seq::Read tiny{"t", "ACGTACGT", {}};
  EXPECT_EQ(corrector.correct(tiny, stats).bases, "ACGT" "ACGT");
}

TEST(Qmer, WeightsAreBoundedByCounts) {
  const auto setup = make_setup(13);
  baselines::QmerCounter counter(setup.sim.reads, 11);
  const auto& w = counter.weights();
  const auto y = counter.counts();
  ASSERT_EQ(w.size(), y.size());
  for (std::size_t i = 0; i < w.size(); i += 17) {
    ASSERT_GE(w[i], 0.0);
    ASSERT_LE(w[i], y[i] + 1e-9);
  }
}

TEST(Qmer, WeightsSharpenErrorSeparation) {
  // Error kmers carry low-quality bases, so their quality weight drops
  // further below the trusted mass than their raw count does: the best
  // achievable FP+FN with weights is no worse than with counts.
  const auto setup = make_setup(15, 0.015, 60.0);
  baselines::QmerCounter counter(setup.sim.reads, 11);
  const auto genome_spec =
      kspec::KSpectrum::build_from_sequence(setup.genome, 11, true);
  const auto truth = eval::genome_truth(counter.spectrum(), genome_spec);
  const auto thresholds = eval::linear_thresholds(80.0, 0.25);
  const auto by_weight =
      eval::best_point(eval::sweep_thresholds(counter.weights(), truth,
                                              thresholds));
  const auto by_count = eval::best_point(
      eval::sweep_thresholds(counter.counts(), truth, thresholds));
  EXPECT_LE(by_weight.wrong(), by_count.wrong() + by_count.wrong() / 10);
}

}  // namespace
