#include "kspec/radix.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "fault/fault.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ngs::kspec {

namespace {

/// Widest LSD digit: a 2^11-entry histogram (16 KiB) stays on the stack
/// and in L1, and a 64-bit key still needs only six passes.
constexpr int kMaxDigitBits = 11;
using DigitCounts = std::array<std::size_t, std::size_t{1} << kMaxDigitBits>;

/// Shift that maps a code to its bucket: bucket = code >> shift. The key
/// occupies the low 2k bits of the word, so the top `bits` of the key
/// start at bit 2k - bits.
inline int bucket_shift(int k, int bits) noexcept { return 2 * k - bits; }

/// The radix width an entry point uses: chosen from the input size, or
/// the caller's, capped at the key width; never negative.
int resolve_bits(std::size_t n, int k, const RadixSortOptions& options) {
  const int bits = options.radix_bits < 0 ? choose_radix_bits(n, k)
                                          : std::min(options.radix_bits, 2 * k);
  return std::max(bits, 0);
}

/// Distinct values in the ascending span `sorted`.
std::size_t count_runs(std::span<const seq::KmerCode> sorted) noexcept {
  std::size_t runs = sorted.empty() ? 0 : 1;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    runs += sorted[i] != sorted[i - 1];
  }
  return runs;
}

/// Run-length encodes the ascending span `sorted` into the first
/// count_runs(sorted) slots of `out_codes` / `out_counts` and returns
/// that count. `out_codes` may be sorted.data() itself: the write cursor
/// never passes the read cursor, so a span compacts in place.
std::size_t run_length_count(std::span<const seq::KmerCode> sorted,
                             seq::KmerCode* out_codes,
                             std::uint32_t* out_counts) noexcept {
  const std::size_t n = sorted.size();
  std::size_t w = 0;
  for (std::size_t i = 0; i < n;) {
    const seq::KmerCode code = sorted[i];
    std::size_t j = i + 1;
    while (j < n && sorted[j] == code) ++j;
    out_codes[w] = code;
    out_counts[w] = static_cast<std::uint32_t>(j - i);
    ++w;
    i = j;
  }
  return w;
}

struct Partition {
  std::vector<seq::KmerCode> sorted;    // bucket-major, each bucket sorted
  std::vector<std::size_t> offsets;     // size 2^bits + 1
};

/// Stable two-pass counting partition by the top `bits` (> 0) key bits,
/// then per-bucket radix_sort_low_bits on the pool over the 2k - bits
/// key bits below the prefix. Buckets cover disjoint ascending key
/// ranges, so `sorted` is globally sorted on return.
Partition partition_and_sort(std::vector<seq::KmerCode>&& codes, int k,
                             int bits, util::ThreadPool& pool) {
  const std::size_t n = codes.size();
  const std::size_t buckets = std::size_t{1} << bits;
  const int shift = bucket_shift(k, bits);

  // Pass 1: per-block histograms (blocks = contiguous input slices, one
  // task each), so the scatter below needs no atomics.
  const std::size_t num_blocks =
      std::min<std::size_t>(std::max<std::size_t>(1, pool.size() * 4),
                            std::max<std::size_t>(1, n / 4096));
  const std::size_t block = (n + num_blocks - 1) / num_blocks;
  std::vector<std::vector<std::size_t>> histograms(
      num_blocks, std::vector<std::size_t>(buckets, 0));
  pool.parallel_for(0, num_blocks, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t hi = std::min(n, lo + block);
    auto& h = histograms[b];
    for (std::size_t i = lo; i < hi; ++i) ++h[codes[i] >> shift];
  });

  // Exclusive prefix sums: offsets[bucket] plus each block's start within
  // its bucket. Block-major order within a bucket keeps the partition
  // stable (input order preserved), hence deterministic.
  Partition part;
  part.offsets.assign(buckets + 1, 0);
  std::size_t running = 0;
  for (std::size_t q = 0; q < buckets; ++q) {
    part.offsets[q] = running;
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const std::size_t c = histograms[b][q];
      histograms[b][q] = running;  // becomes this block's write cursor
      running += c;
    }
  }
  part.offsets[buckets] = running;

  // Pass 2: scatter. Each block owns disjoint write cursors.
  part.sorted.resize(n);
  seq::KmerCode* out = part.sorted.data();
  pool.parallel_for(0, num_blocks, [&](std::size_t b) {
    const std::size_t lo = b * block;
    const std::size_t hi = std::min(n, lo + block);
    auto& cursors = histograms[b];
    for (std::size_t i = lo; i < hi; ++i) {
      out[cursors[codes[i] >> shift]++] = codes[i];
    }
  });
  codes.clear();
  codes.shrink_to_fit();

  // Per-bucket radix sorts. Each block of buckets owns one scratch
  // buffer sized to its largest bucket; the blocks are disjoint, so the
  // scratch adds at most n codes while the input above is already freed.
  const int low_bits = 2 * k - bits;
  pool.parallel_for_blocked(0, buckets, [&](std::size_t lo, std::size_t hi) {
    std::size_t largest = 0;
    for (std::size_t q = lo; q < hi; ++q) {
      largest = std::max(largest, part.offsets[q + 1] - part.offsets[q]);
    }
    std::vector<seq::KmerCode> scratch(largest);
    for (std::size_t q = lo; q < hi; ++q) {
      radix_sort_low_bits({out + part.offsets[q], out + part.offsets[q + 1]},
                          low_bits, scratch);
    }
  });
  return part;
}

}  // namespace

void radix_sort_low_bits(std::span<seq::KmerCode> codes, int key_bits,
                         std::span<seq::KmerCode> scratch) {
  const std::size_t n = codes.size();
  key_bits = std::min(key_bits, 64);
  if (n < 2 || key_bits <= 0) return;
  // Balanced digits: 18 bits sort as 9 + 9 rather than 11 + 7.
  const int passes = (key_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (key_bits + passes - 1) / passes;

  seq::KmerCode* src = codes.data();
  seq::KmerCode* dst = scratch.data();
  // Only the first 2^digit_bits entries are ever used, so only those are
  // zeroed: small buckets should not pay for a full 16 KiB clear.
  const std::size_t radix = std::size_t{1} << digit_bits;
  DigitCounts counts;
  DigitCounts next;
  std::fill_n(counts.begin(), radix, 0);
  auto digit_mask = [&](int shift) {
    const int width = std::min(digit_bits, key_bits - shift);
    return (seq::KmerCode{1} << width) - 1;
  };
  {
    const seq::KmerCode mask = digit_mask(0);
    for (std::size_t i = 0; i < n; ++i) ++counts[src[i] & mask];
  }
  for (int shift = 0; shift < key_bits; shift += digit_bits) {
    const seq::KmerCode mask = digit_mask(shift);
    const int next_shift = shift + digit_bits;
    const bool last = next_shift >= key_bits;
    const seq::KmerCode next_mask = last ? 0 : digit_mask(next_shift);
    std::size_t running = 0;
    for (std::size_t d = 0; d <= mask; ++d) {
      const std::size_t c = counts[d];
      counts[d] = running;
      running += c;
    }
    // Scatter, counting the next pass's digit on the way.
    std::fill_n(next.begin(), radix, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const seq::KmerCode v = src[i];
      dst[counts[(v >> shift) & mask]++] = v;
      if (!last) ++next[(v >> next_shift) & next_mask];
    }
    std::swap(src, dst);
    std::swap(counts, next);
  }
  if (src != codes.data()) std::copy(src, src + n, codes.data());
}

void sort_and_count_in_place(std::vector<seq::KmerCode>& codes, int key_bits,
                             std::vector<std::uint32_t>& counts) {
  {
    std::vector<seq::KmerCode> scratch(codes.size());
    radix_sort_low_bits(codes, key_bits, scratch);
  }
  counts.resize(count_runs(codes));
  codes.resize(run_length_count(codes, codes.data(), counts.data()));
}

int choose_radix_bits(std::size_t n, int k) noexcept {
  if (n < 8192) return 0;
  // Aim for ~8k codes per bucket; clamp to [4, 14] and to the key width
  // so the per-block histograms (2^bits words each) stay cheap.
  const int target = std::bit_width(n / 8192);
  return std::clamp(target, 4, std::min(2 * k, 14));
}

void radix_sort_codes(std::vector<seq::KmerCode>& codes, int k,
                      const RadixSortOptions& options) {
  const int bits = resolve_bits(codes.size(), k, options);
  if (bits == 0) {  // one bucket: sorted where it lies, no pool
    std::vector<seq::KmerCode> scratch(codes.size());
    radix_sort_low_bits(codes, 2 * k, scratch);
    return;
  }
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::default_pool();
  codes = partition_and_sort(std::move(codes), k, bits, pool).sorted;
}

void serial_sort_and_count(std::vector<seq::KmerCode>&& codes,
                           std::vector<seq::KmerCode>& out_codes,
                           std::vector<std::uint32_t>& out_counts) {
  std::sort(codes.begin(), codes.end());
  out_codes.clear();
  out_counts.clear();
  for (std::size_t i = 0; i < codes.size();) {
    std::size_t j = i;
    while (j < codes.size() && codes[j] == codes[i]) ++j;
    out_codes.push_back(codes[i]);
    out_counts.push_back(static_cast<std::uint32_t>(j - i));
    i = j;
  }
}

void radix_sort_and_count(std::vector<seq::KmerCode>&& codes, int k,
                          std::vector<seq::KmerCode>& out_codes,
                          std::vector<std::uint32_t>& out_counts,
                          const RadixSortOptions& options) {
  const int bits = resolve_bits(codes.size(), k, options);
  if (bits == 0) {  // one bucket: sort and count serially, no pool
    sort_and_count_in_place(codes, 2 * k, out_counts);
    out_codes.assign(codes.begin(), codes.end());  // exact capacity
    codes = std::vector<seq::KmerCode>();
    return;
  }
  util::ThreadPool& pool =
      options.pool != nullptr ? *options.pool : util::default_pool();
  const Partition part = partition_and_sort(std::move(codes), k, bits, pool);
  const std::size_t buckets = part.offsets.size() - 1;
  auto bucket = [&](std::size_t q) {
    return std::span<const seq::KmerCode>(
        part.sorted.data() + part.offsets[q],
        part.sorted.data() + part.offsets[q + 1]);
  };

  // Aggregate per bucket: count distinct runs, prefix-sum into output
  // offsets, then run-length encode each bucket straight into its slice.
  // A run never crosses a bucket boundary (equal codes share a prefix).
  std::vector<std::size_t> distinct(buckets + 1, 0);
  pool.parallel_for(0, buckets, [&](std::size_t q) {
    distinct[q + 1] = count_runs(bucket(q));
  });
  for (std::size_t q = 0; q < buckets; ++q) distinct[q + 1] += distinct[q];

  out_codes.resize(distinct[buckets]);
  out_counts.resize(distinct[buckets]);
  pool.parallel_for(0, buckets, [&](std::size_t q) {
    run_length_count(bucket(q), out_codes.data() + distinct[q],
                     out_counts.data() + distinct[q]);
  });
}

namespace {

/// Unique-per-process spill-file stem so concurrent builders (or a
/// crashed predecessor's leftovers) never collide in a shared spill dir.
std::string spill_stem(const std::string& dir) {
  static std::atomic<std::uint64_t> seq{0};
  std::string stem = dir;
  if (!stem.empty() && stem.back() != '/') stem += '/';
  stem += "ngs_spill_";
#if defined(__unix__) || defined(__APPLE__)
  stem += std::to_string(static_cast<long>(::getpid()));
  stem += '_';
#endif
  stem += std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  return stem;
}

}  // namespace

SpillPartitioner::SpillPartitioner(int k, int shard_bits, std::string dir,
                                   std::size_t buffer_codes_per_bin)
    : k_(k),
      shard_bits_(shard_bits),
      shift_(2 * k - shard_bits),
      dir_(std::move(dir)),
      buffer_codes_per_bin_(std::max<std::size_t>(16, buffer_codes_per_bin)) {
  if (shard_bits < 1 || shard_bits > 2 * k) {
    throw Error(ErrorKind::kInternal, fault::sites::kSpillWrite,
                "SpillPartitioner: shard_bits out of range");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort; the
  // first bin open fails with a clear message if the dir is unusable
  const std::string stem = spill_stem(dir_);
  bins_.resize(std::size_t{1} << shard_bits);
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    bins_[b].path = stem + "_bin" + std::to_string(b) + ".spill";
  }
}

SpillPartitioner::~SpillPartitioner() {
  for (auto& bin : bins_) {
    bin.file.reset();  // unlinks an uncommitted temp
    std::remove(bin.path.c_str());
  }
}

void SpillPartitioner::flush_bin(Bin& bin) {
  if (bin.buffer.empty()) return;
  if (fault::should_fire(fault::sites::kSpillWrite)) {
    throw Error(ErrorKind::kIo, fault::sites::kSpillWrite,
                bin.path + ": write failed: injected fault at " +
                    fault::sites::kSpillWrite);
  }
  if (bin.file == nullptr) {
    util::AtomicFileOptions options;
    options.error_site = fault::sites::kSpillWrite;
    bin.file = std::make_unique<util::AtomicFile>(bin.path, options);
  }
  bin.file->write(bin.buffer.data(),
                  bin.buffer.size() * sizeof(seq::KmerCode));
  spilled_bytes_ += bin.buffer.size() * sizeof(seq::KmerCode);
  bin.buffer.clear();
}

void SpillPartitioner::add(std::span<const seq::KmerCode> codes) {
  if (!writable_) {
    throw Error(ErrorKind::kInternal, fault::sites::kSpillWrite,
                "SpillPartitioner: add after close_writes");
  }
  for (const seq::KmerCode code : codes) {
    Bin& bin = bins_[static_cast<std::size_t>(code >> shift_)];
    if (bin.buffer.capacity() == 0) bin.buffer.reserve(buffer_codes_per_bin_);
    bin.buffer.push_back(code);
    ++bin.instances;
    if (bin.buffer.size() >= buffer_codes_per_bin_) flush_bin(bin);
  }
}

void SpillPartitioner::close_writes() {
  if (!writable_) return;
  writable_ = false;
  for (auto& bin : bins_) {
    flush_bin(bin);
    // `= {}` would keep the capacity (initializer_list assignment);
    // move-assign a fresh vector to actually release the buffer.
    bin.buffer = std::vector<seq::KmerCode>();
    if (bin.file != nullptr) bin.file->commit();
  }
}

std::size_t SpillPartitioner::nonempty_bins() const noexcept {
  std::size_t n = 0;
  for (const auto& bin : bins_) n += bin.instances > 0;
  return n;
}

std::size_t SpillPartitioner::buffer_bytes() const noexcept {
  std::size_t bytes = 0;
  for (const auto& bin : bins_) {
    bytes += bin.buffer.capacity() * sizeof(seq::KmerCode);
  }
  return bytes;
}

std::vector<seq::KmerCode> SpillPartitioner::read_bin(std::size_t bin) const {
  if (writable_) {
    throw Error(ErrorKind::kInternal, fault::sites::kSpillRead,
                "SpillPartitioner: read_bin before close_writes");
  }
  const Bin& b = bins_[bin];
  std::vector<seq::KmerCode> codes;
  if (b.instances == 0) return codes;
  if (fault::should_fire(fault::sites::kSpillRead)) {
    throw Error(ErrorKind::kIo, fault::sites::kSpillRead,
                b.path + ": read failed: injected fault at " +
                    fault::sites::kSpillRead);
  }
  std::FILE* f = std::fopen(b.path.c_str(), "rb");
  if (f == nullptr) {
    throw Error(ErrorKind::kIo, fault::sites::kSpillRead,
                b.path + ": open failed: " + std::strerror(errno));
  }
  codes.resize(static_cast<std::size_t>(b.instances));
  const std::size_t got =
      std::fread(codes.data(), sizeof(seq::KmerCode), codes.size(), f);
  std::fclose(f);
  if (got != codes.size()) {
    throw Error(ErrorKind::kIo, fault::sites::kSpillRead,
                b.path + ": short read (spill bin truncated)");
  }
  return codes;
}

}  // namespace ngs::kspec
