#include "baselines/sap.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "seq/alphabet.hpp"
#include "seq/kmer.hpp"
#include "util/thread_pool.hpp"

namespace ngs::baselines {

SapCorrector::SapCorrector(const seq::ReadSet& reads, SapParams params)
    : params_(params),
      spectrum_(kspec::KSpectrum::build(reads, params.k,
                                        params.both_strands)) {}

SapCorrector::SapCorrector(kspec::KSpectrum spectrum, SapParams params)
    : params_(params), spectrum_(std::move(spectrum)) {
  if (!spectrum_.empty() && spectrum_.k() != params_.k) {
    throw std::invalid_argument("SapCorrector: spectrum k != params.k");
  }
}

int SapCorrector::scan_windows(std::string_view bases,
                               Scratch& scratch) const {
  const auto k = static_cast<std::size_t>(params_.k);
  const std::size_t windows = seq::max_kmer_windows(bases.size(), params_.k);
  scratch.codes.resize(windows);
  scratch.ambiguous.resize(windows);
  scratch.weak.resize(windows);
  const seq::KmerCode mask =
      k == 32 ? ~seq::KmerCode{0} : ((seq::KmerCode{1} << (2 * k)) - 1);
  seq::KmerCode code = 0;
  int ambiguous = 0;  // ambiguous bases in the current window
  int weak = 0;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    const std::uint8_t b = seq::base_to_code(bases[i]);
    code = ((code << 2) | (b == seq::kInvalidBase ? 0 : b)) & mask;
    ambiguous += b == seq::kInvalidBase;
    if (i >= k) ambiguous -= seq::is_ambiguous(bases[i - k]);
    if (i + 1 < k) continue;
    const std::size_t w = i + 1 - k;
    scratch.codes[w] = code;
    scratch.ambiguous[w] = static_cast<std::uint8_t>(ambiguous);
    scratch.weak[w] = ambiguous > 0 || is_weak(code);
    weak += scratch.weak[w];
  }
  return weak;
}

int SapCorrector::weak_kmers(std::string_view bases) const {
  Scratch scratch;
  return scan_windows(bases, scratch);
}

seq::Read SapCorrector::correct(const seq::Read& read, SapStats& stats,
                                Scratch& scratch) const {
  seq::Read out = read;
  int weak = scan_windows(out.bases, scratch);
  if (weak == 0) {
    ++stats.reads_clean;
    return out;
  }

  // Greedy: at each round, apply the single base change that removes the
  // most weak kmers; stop when clean or no change improves. Only the
  // windows covering the mutated position can change solidity, so each
  // candidate is scored from those windows' codes with the base swapped
  // in. A candidate can gain at most `before` (the weak windows covering
  // its position), and only a strictly greater gain replaces the best,
  // so positions and candidates that cannot win stop early; the winner
  // is the one the full scan would pick.
  const int k = params_.k;
  const std::size_t n = out.bases.size();
  const std::size_t last_window = n - static_cast<std::size_t>(k);
  auto& codes = scratch.codes;
  auto& ambiguous = scratch.ambiguous;
  auto& weak_bits = scratch.weak;
  auto& prefix = scratch.weak_prefix;
  prefix.resize(weak_bits.size() + 1);
  const auto covering = [&](std::size_t pos) {
    const auto span = static_cast<std::size_t>(k - 1);
    const std::size_t lo = pos >= span ? pos - span : 0;
    return std::pair{lo, std::min(pos, last_window)};
  };

  for (int edit = 0; edit < params_.max_edits && weak > 0; ++edit) {
    prefix[0] = 0;
    for (std::size_t w = 0; w < weak_bits.size(); ++w) {
      prefix[w + 1] = prefix[w] + weak_bits[w];
    }
    int best_delta = 0;
    std::size_t best_pos = 0;
    std::uint8_t best_base = seq::kInvalidBase;
    for (std::size_t pos = 0; pos < n; ++pos) {
      const auto [lo, hi] = covering(pos);
      const int before = prefix[hi + 1] - prefix[lo];
      if (before <= best_delta) continue;  // includes before == 0
      const std::uint8_t original = seq::base_to_code(out.bases[pos]);
      const int pos_ambiguous = original == seq::kInvalidBase;
      for (std::uint8_t b = 0; b < 4; ++b) {
        if (b == original) continue;  // same code: gains nothing
        // The candidate wins only with fewer than `limit` weak windows.
        const int limit = before - best_delta;
        int after = 0;
        for (std::size_t w = lo; w <= hi && after < limit; ++w) {
          after += ambiguous[w] > pos_ambiguous ||
                   is_weak(seq::kmer_with_base(codes[w], k,
                                               static_cast<int>(pos - w), b));
        }
        if (after < limit) {
          best_delta = before - after;
          best_pos = pos;
          best_base = b;
        }
      }
    }
    if (best_base == seq::kInvalidBase) break;  // no improving change
    const bool was_ambiguous = seq::is_ambiguous(out.bases[best_pos]);
    out.bases[best_pos] = seq::code_to_base(best_base);
    const auto [lo, hi] = covering(best_pos);
    for (std::size_t w = lo; w <= hi; ++w) {
      codes[w] = seq::kmer_with_base(codes[w], k,
                                     static_cast<int>(best_pos - w), best_base);
      ambiguous[w] -= was_ambiguous;
      weak_bits[w] = ambiguous[w] > 0 || is_weak(codes[w]);
    }
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

std::vector<seq::Read> SapCorrector::correct_all(const seq::ReadSet& reads,
                                                 SapStats& stats) const {
  std::vector<seq::Read> out(reads.reads.size());
  std::mutex stats_mutex;
  util::default_pool().parallel_for_blocked(
      0, reads.reads.size(), [&](std::size_t lo, std::size_t hi) {
        SapStats local;
        Scratch scratch;
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = correct(reads.reads[i], local, scratch);
        }
        std::lock_guard<std::mutex> lock(stats_mutex);
        stats.reads_clean += local.reads_clean;
        stats.reads_fixed += local.reads_fixed;
        stats.reads_unfixable += local.reads_unfixable;
        stats.bases_changed += local.bases_changed;
      });
  return out;
}

}  // namespace ngs::baselines
