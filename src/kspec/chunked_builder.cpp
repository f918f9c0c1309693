#include "kspec/chunked_builder.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "kspec/radix.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace ngs::kspec {

ChunkedSpectrumBuilder::ChunkedSpectrumBuilder(int k, bool both_strands,
                                               std::size_t batch_instances,
                                               util::ThreadPool* pool,
                                               SpillOptions spill)
    : k_(k),
      both_strands_(both_strands),
      batch_instances_(std::max<std::size_t>(1024, batch_instances)),
      pool_(pool),
      memory_budget_(spill.memory_budget_bytes) {
  if (memory_budget_ > 0) {
    spill_shard_bits_ = std::clamp(spill.shard_bits, 1, std::min(8, 2 * k));
    // A third of the budget buffers raw instances; the spill-bin
    // buffers take ~a sixth; the rest covers one bin's finish-phase
    // read + sort + count arrays (see note_tracked).
    spill_threshold_ = std::max<std::size_t>(
        4096, memory_budget_ / (3 * sizeof(seq::KmerCode)));
    if (!spill.spill_dir.empty()) {
      spill_dir_ = spill.spill_dir;
    } else {
      std::error_code ec;
      const auto tmp = std::filesystem::temp_directory_path(ec);
      spill_dir_ = ec ? std::string(".") : tmp.string();
    }
  }
}

ChunkedSpectrumBuilder::~ChunkedSpectrumBuilder() = default;

void ChunkedSpectrumBuilder::note_tracked(std::size_t finish_phase_bytes) {
  if (memory_budget_ == 0) return;
  std::size_t current = buffer_.capacity() * sizeof(seq::KmerCode);
  if (partitioner_ != nullptr) current += partitioner_->buffer_bytes();
  current += finish_phase_bytes;
  peak_tracked_bytes_ = std::max(peak_tracked_bytes_, current);
}

void ChunkedSpectrumBuilder::add_read(std::string_view bases) {
  if (finish_pending_reset_) {
    peak_tracked_bytes_ = 0;
    spill_bytes_ = 0;
    ingest_seconds_ = 0.0;
    finish_pending_reset_ = false;
  }
  if (memory_budget_ > 0 && buffer_.capacity() == 0) {
    // One up-front reservation so growth never doubles past the
    // threshold; the slack absorbs the final read's windows.
    buffer_.reserve(spill_threshold_ + 4096);
  }
  if (both_strands_) {
    seq::extract_kmer_codes_both_strands(bases, k_, buffer_);
  } else {
    seq::extract_kmer_codes(bases, k_, buffer_);
  }
  peak_buffered_ = std::max(peak_buffered_, buffer_.size());
  if (memory_budget_ > 0) {
    note_tracked(0);
    if (buffer_.size() >= spill_threshold_) spill_buffer();
  } else if (buffer_.size() >= batch_instances_) {
    flush_batch();
  }
}

void ChunkedSpectrumBuilder::spill_buffer() {
  if (partitioner_ == nullptr) {
    const std::size_t bins = std::size_t{1} << spill_shard_bits_;
    // Bin buffers together take ~a sixth of the budget.
    const std::size_t per_bin = std::clamp<std::size_t>(
        memory_budget_ / (6 * bins * sizeof(seq::KmerCode)), 64, 4096);
    partitioner_ = std::make_unique<SpillPartitioner>(
        k_, spill_shard_bits_, spill_dir_, per_bin);
  }
  partitioner_->add(buffer_);
  spilled_ = true;
  note_tracked(0);
  buffer_.clear();  // capacity is kept for the next fill
}

void ChunkedSpectrumBuilder::add_reads(const seq::ReadSet& reads) {
  for (const auto& r : reads.reads) add_read(r.bases);
}

void ChunkedSpectrumBuilder::add_read_batch(std::span<const seq::Read> reads) {
  const util::Timer batch_timer;
  for (const auto& r : reads) add_read(r.bases);
  ingest_seconds_ += batch_timer.seconds();
}

void ChunkedSpectrumBuilder::add_fastq(std::istream& fastq) {
  // Record-at-a-time FASTQ scan; malformed records raise as in io::.
  std::string header, bases, plus, qual;
  while (std::getline(fastq, header)) {
    if (header.empty()) continue;
    if (!std::getline(fastq, bases) || !std::getline(fastq, plus) ||
        !std::getline(fastq, qual)) {
      throw std::runtime_error("ChunkedSpectrumBuilder: truncated FASTQ");
    }
    if (!bases.empty() && bases.back() == '\r') bases.pop_back();
    add_read(bases);
  }
}

void ChunkedSpectrumBuilder::flush_batch() {
  if (buffer_.empty()) return;
  Run run;
  RadixSortOptions radix;
  radix.pool = pool_;  // nullptr -> default pool
  radix_sort_and_count(std::move(buffer_), k_, run.codes, run.counts, radix);
  buffer_ = {};

  // Binary-counter merging: a new run cascades into equal-or-smaller
  // predecessors, keeping O(log batches) live runs.
  while (!runs_.empty() && runs_.back().size() <= run.size()) {
    run = merge_runs(runs_.back(), run);
    runs_.pop_back();
    ++merge_rounds_;
  }
  runs_.push_back(std::move(run));
}

ChunkedSpectrumBuilder::Run ChunkedSpectrumBuilder::merge_runs(const Run& a,
                                                               const Run& b) {
  Run out;
  out.codes.reserve(a.size() + b.size());
  out.counts.reserve(a.size() + b.size());
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a.codes[i] < b.codes[j]) {
      out.codes.push_back(a.codes[i]);
      out.counts.push_back(a.counts[i]);
      ++i;
    } else if (b.codes[j] < a.codes[i]) {
      out.codes.push_back(b.codes[j]);
      out.counts.push_back(b.counts[j]);
      ++j;
    } else {
      out.codes.push_back(a.codes[i]);
      out.counts.push_back(a.counts[i] + b.counts[j]);
      ++i;
      ++j;
    }
  }
  for (; i < a.size(); ++i) {
    out.codes.push_back(a.codes[i]);
    out.counts.push_back(a.counts[i]);
  }
  for (; j < b.size(); ++j) {
    out.codes.push_back(b.codes[j]);
    out.counts.push_back(b.counts[j]);
  }
  return out;
}

void ChunkedSpectrumBuilder::flush_spill() {
  if (!spilled_ || spill_flushed_) return;
  if (!buffer_.empty()) {
    partitioner_->add(buffer_);
    buffer_.clear();
  }
  partitioner_->close_writes();
  spill_bytes_ = partitioner_->spilled_bytes();
  spill_flushed_ = true;
  // NB: `buffer_ = {}` would assign an empty initializer_list and keep
  // the capacity; move-assigning a fresh vector actually releases it.
  buffer_ = std::vector<seq::KmerCode>();
}

std::size_t ChunkedSpectrumBuilder::spill_nonempty_bins() const noexcept {
  return partitioner_ != nullptr ? partitioner_->nonempty_bins() : 0;
}

void ChunkedSpectrumBuilder::reset_spill_state() {
  partitioner_.reset();  // removes the bin files
  spilled_ = false;
  spill_flushed_ = false;
  finish_pending_reset_ = true;
}

void ChunkedSpectrumBuilder::finish_spilled(
    const std::function<void(SortedRun&&)>& consume) {
  if (!spilled_) {
    throw std::logic_error(
        "ChunkedSpectrumBuilder::finish_spilled: nothing was spilled "
        "(use finish())");
  }
  flush_spill();
  try {
    for (std::size_t b = 0; b < partitioner_->bin_count(); ++b) {
      if (partitioner_->bin_instances(b) == 0) continue;
      std::vector<seq::KmerCode> codes = partitioner_->read_bin(b);
      // Bins are a fraction of the multiset, so the in-place serial
      // sort (no partition copy) is the memory-lean choice: the bin's
      // 8n code bytes plus its 12n output bytes, and nothing else.
      std::sort(codes.begin(), codes.end());
      SortedRun run;
      run.prefix = static_cast<std::uint32_t>(b);
      run.codes.reserve(codes.size());
      run.counts.reserve(codes.size());
      for (std::size_t i = 0; i < codes.size();) {
        std::size_t j = i;
        while (j < codes.size() && codes[j] == codes[i]) ++j;
        run.codes.push_back(codes[i]);
        run.counts.push_back(static_cast<std::uint32_t>(j - i));
        i = j;
      }
      note_tracked(codes.capacity() * sizeof(seq::KmerCode) +
                   run.codes.capacity() * sizeof(seq::KmerCode) +
                   run.counts.capacity() * sizeof(std::uint32_t));
      codes = std::vector<seq::KmerCode>();  // free before handing off
      consume(std::move(run));
    }
  } catch (...) {
    reset_spill_state();
    peak_buffered_ = 0;
    throw;
  }
  reset_spill_state();
  peak_buffered_ = 0;
}

KSpectrum ChunkedSpectrumBuilder::finish(int* merge_rounds) {
  if (spilled_) {
    // Concatenating disjoint ascending prefix bins yields the globally
    // sorted arrays directly (no merging) — identical to what the
    // in-memory path would have produced.
    Run all;
    finish_spilled([&all](SortedRun&& run) {
      all.codes.insert(all.codes.end(), run.codes.begin(), run.codes.end());
      all.counts.insert(all.counts.end(), run.counts.begin(),
                        run.counts.end());
    });
    if (merge_rounds != nullptr) *merge_rounds = 0;
    merge_rounds_ = 0;
    return KSpectrum::from_sorted_counts(std::move(all.codes),
                                         std::move(all.counts), k_);
  }
  flush_batch();
  // Tree reduction: merge disjoint run pairs concurrently per round
  // (counts over equal keys are associative and commutative, so any
  // merge order yields the identical final arrays).
  util::ThreadPool& pool =
      pool_ != nullptr ? *pool_ : util::default_pool();
  while (runs_.size() > 1) {
    const std::size_t pairs = runs_.size() / 2;
    std::vector<Run> next(pairs + runs_.size() % 2);
    pool.parallel_for(0, pairs, [&](std::size_t p) {
      next[p] = merge_runs(runs_[2 * p], runs_[2 * p + 1]);
    });
    if (runs_.size() % 2 != 0) next.back() = std::move(runs_.back());
    merge_rounds_ += static_cast<int>(pairs);
    runs_ = std::move(next);
  }
  Run all = runs_.empty() ? Run{} : std::move(runs_.front());
  runs_.clear();
  if (merge_rounds != nullptr) *merge_rounds = merge_rounds_;
  merge_rounds_ = 0;
  peak_buffered_ = 0;
  finish_pending_reset_ = true;

  return KSpectrum::from_sorted_counts(std::move(all.codes),
                                       std::move(all.counts), k_);
}

}  // namespace ngs::kspec
