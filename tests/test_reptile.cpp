#include <gtest/gtest.h>

#include "eval/correction_metrics.hpp"
#include "reptile/corrector.hpp"
#include "reptile/params.hpp"
#include "seq/alphabet.hpp"
#include "sim/genome.hpp"
#include "sim/read_sim.hpp"
#include "util/rng.hpp"

namespace {

using namespace ngs;

struct SimSetup {
  std::string genome;
  sim::SimulatedReads sim;
};

SimSetup make_setup(std::size_t genome_len, double coverage, double err,
                    std::uint64_t seed, double ambiguous_rate = 0.0) {
  util::Rng rng(seed);
  sim::GenomeSpec gspec;
  gspec.length = genome_len;
  SimSetup s;
  s.genome = sim::simulate_genome(gspec, rng).sequence;
  const auto model = sim::ErrorModel::illumina(36, err);
  sim::ReadSimConfig cfg;
  cfg.read_length = 36;
  cfg.coverage = coverage;
  cfg.ambiguous_rate = ambiguous_rate;
  s.sim = sim::simulate_reads(s.genome, model, cfg, rng);
  return s;
}

reptile::ReptileParams small_params() {
  reptile::ReptileParams p;
  p.k = 10;
  p.d = 1;
  p.c_good = 8;
  p.c_min = 3;
  p.quality_cutoff = 15;
  return p;
}

TEST(ReptileParams, TileLengthAndDefaults) {
  reptile::ReptileParams p;
  p.k = 12;
  p.overlap = 2;
  EXPECT_EQ(p.tile_length(), 22);
  EXPECT_EQ(p.effective_ambig_window(), 12);
  EXPECT_EQ(p.effective_ambig_max(), p.d);
}

TEST(ReptileParams, SelectionFromData) {
  const auto setup = make_setup(20000, 40.0, 0.01, 7);
  const auto p = reptile::select_parameters(setup.sim.reads, 20000);
  // k = ceil(log4 20000) = 8 -> clamped to 10.
  EXPECT_EQ(p.k, 10);
  EXPECT_GT(p.quality_cutoff, 0);
  EXPECT_GT(p.c_good, p.c_min);
  EXPECT_GE(p.c_min, 2u);
}

TEST(ReptileCorrector, CorrectsMostErrorsAtHighCoverage) {
  const auto setup = make_setup(20000, 60.0, 0.008, 11);
  reptile::ReptileCorrector corrector(setup.sim.reads, small_params());
  reptile::CorrectionStats stats;
  const auto corrected = corrector.correct_all(setup.sim.reads, stats);
  const auto metrics = eval::evaluate_correction(setup.sim.reads, corrected);
  EXPECT_GT(metrics.gain(), 0.5) << "TP=" << metrics.tp << " FP=" << metrics.fp
                                 << " FN=" << metrics.fn;
  EXPECT_GT(metrics.sensitivity(), 0.5);
  EXPECT_GT(metrics.specificity(), 0.995);
  EXPECT_LT(metrics.eba(), 0.1);
  EXPECT_EQ(stats.reads, setup.sim.reads.size());
}

TEST(ReptileCorrector, ErrorFreeDataIsLeftAlmostUntouched) {
  const auto setup = make_setup(20000, 50.0, 0.000001, 13);
  reptile::ReptileCorrector corrector(setup.sim.reads, small_params());
  reptile::CorrectionStats stats;
  const auto corrected = corrector.correct_all(setup.sim.reads, stats);
  const auto metrics = eval::evaluate_correction(setup.sim.reads, corrected);
  // Specificity must stay essentially perfect on clean data.
  EXPECT_GT(metrics.specificity(), 0.9999);
}

TEST(ReptileCorrector, HandlesReadsShorterThanTile) {
  const auto setup = make_setup(5000, 10.0, 0.01, 17);
  reptile::ReptileCorrector corrector(setup.sim.reads, small_params());
  reptile::CorrectionStats stats;
  seq::Read tiny{"t", "ACGTACGT", {}};
  const auto out = corrector.correct(tiny, stats);
  EXPECT_EQ(out.bases, tiny.bases);  // shorter than a tile: untouched
}

TEST(ReptileCorrector, ConvertsEligibleAmbiguousBases) {
  const auto setup = make_setup(20000, 60.0, 0.005, 19, /*ambiguous=*/0.002);
  reptile::ReptileCorrector corrector(setup.sim.reads, small_params());
  reptile::CorrectionStats stats;
  const auto corrected = corrector.correct_all(setup.sim.reads, stats);
  EXPECT_GT(stats.ambiguous_converted, 0u);
  const auto ambig = eval::evaluate_ambiguous(setup.sim.reads, corrected);
  ASSERT_GT(ambig.total_n, 0u);
  // Most isolated N's should resolve to the true base.
  EXPECT_GT(ambig.accuracy(), 0.6);
}

TEST(ReptileCorrector, DenseAmbiguousRegionsAreNotConverted) {
  const auto setup = make_setup(10000, 30.0, 0.005, 23);
  auto params = small_params();
  reptile::ReptileCorrector corrector(setup.sim.reads, params);
  reptile::CorrectionStats stats;
  // A read drowning in N's: density constraint must leave them be.
  seq::Read bad{"bad", "NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN", {}};
  const auto out = corrector.correct(bad, stats);
  EXPECT_EQ(out.bases, bad.bases);
}

TEST(ReptileCorrector, HigherDFindsMoreErrors) {
  const auto setup = make_setup(15000, 80.0, 0.02, 29);
  auto p1 = small_params();
  auto p2 = small_params();
  p2.d = 2;
  reptile::ReptileCorrector c1(setup.sim.reads, p1);
  reptile::ReptileCorrector c2(setup.sim.reads, p2);
  reptile::CorrectionStats s1, s2;
  const auto out1 = c1.correct_all(setup.sim.reads, s1);
  const auto out2 = c2.correct_all(setup.sim.reads, s2);
  const auto m1 = eval::evaluate_correction(setup.sim.reads, out1);
  const auto m2 = eval::evaluate_correction(setup.sim.reads, out2);
  // The d=2 search space can only find at least as many true errors
  // (allow small slack for interaction effects).
  EXPECT_GE(m2.tp + 50, m1.tp);
}

TEST(ReptileCorrector, DeterministicAcrossRuns) {
  const auto setup = make_setup(10000, 40.0, 0.01, 31);
  reptile::ReptileCorrector corrector(setup.sim.reads, small_params());
  reptile::CorrectionStats s1, s2;
  const auto a = corrector.correct_all(setup.sim.reads, s1);
  const auto b = corrector.correct_all(setup.sim.reads, s2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].bases, b[i].bases);
  }
}

TEST(ReptileCorrector, CachedDecisionsMatchUncachedByteForByte) {
  const auto setup = make_setup(15000, 50.0, 0.015, 37);
  reptile::ReptileCorrector corrector(setup.sim.reads, small_params());
  ASSERT_TRUE(corrector.cacheable());
  reptile::TileDecisionCache cache(1 << 20);  // small: forces evictions
  reptile::CorrectionStats su, sc;
  reptile::ReptileCorrector::Scratch scratch_u, scratch_c;
  for (const auto& read : setup.sim.reads.reads) {
    const auto uncached = corrector.correct(read, su, scratch_u, nullptr);
    const auto cached = corrector.correct(read, sc, scratch_c, &cache);
    ASSERT_EQ(uncached.bases, cached.bases) << read.id;
  }
  EXPECT_EQ(su.bases_changed, sc.bases_changed);
  EXPECT_EQ(su.tiles_corrected, sc.tiles_corrected);
  const auto stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST(ReptileCorrector, AdoptedSelectionTableMatchesRebuiltTable) {
  // The selection's tile table is adopted when no N is converted and
  // rebuilt from the converted reads otherwise; both paths, and a
  // selection table whose parameters no longer match (a k override),
  // must correct exactly like the corrector that builds its own table.
  for (const double ambiguous_rate : {0.0, 0.01}) {
    const auto setup = make_setup(12000, 40.0, 0.01, 43, ambiguous_rate);
    const auto& reads = setup.sim.reads;
    std::size_t ns = 0;
    for (const auto& r : reads.reads) ns += seq::count_ambiguous(r.bases);
    EXPECT_EQ(ns > 0, ambiguous_rate > 0.0);
    for (const int k_override : {0, 11}) {
      kspec::TileTable selection;
      auto params = reptile::select_parameters(reads, 12000, &selection);
      ASSERT_GT(selection.size(), 0u);
      if (k_override > 0) params.k = k_override;
      const reptile::ReptileCorrector rebuilt(reads, params);
      const reptile::ReptileCorrector adopted(reads, params,
                                              std::move(selection));
      ASSERT_EQ(adopted.tiles().size(), rebuilt.tiles().size());
      for (std::size_t i = 0; i < rebuilt.tiles().size(); ++i) {
        ASSERT_EQ(adopted.tiles().code_at(i), rebuilt.tiles().code_at(i));
        ASSERT_EQ(adopted.tiles().counts_at(i).oc,
                  rebuilt.tiles().counts_at(i).oc);
        ASSERT_EQ(adopted.tiles().counts_at(i).og,
                  rebuilt.tiles().counts_at(i).og);
      }
      reptile::CorrectionStats sa, sr;
      const auto a = adopted.correct_all(reads, sa);
      const auto r = rebuilt.correct_all(reads, sr);
      ASSERT_EQ(a.size(), r.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].bases, r[i].bases) << "read " << i;
      }
      EXPECT_EQ(sa.bases_changed, sr.bases_changed);
      EXPECT_EQ(sa.ambiguous_converted, sr.ambiguous_converted);
      EXPECT_EQ(sa.ambiguous_converted > 0, ambiguous_rate > 0.0);
      EXPECT_GT(sa.bases_changed, 0u);
    }
  }
}

TEST(ReptileCorrector, RejectsOversizedTiles) {
  seq::ReadSet empty;
  reptile::ReptileParams p;
  p.k = 17;  // tile length 34 > 32
  EXPECT_THROW(reptile::ReptileCorrector(empty, p), std::invalid_argument);
}

}  // namespace
