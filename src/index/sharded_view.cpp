#include "index/sharded_view.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "fault/fault.hpp"
#include "fault/sites.hpp"
#include "index/format.hpp"
#include "index/spectrum_index.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define NGS_SHARDED_VIEW_POSIX 1
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#else
#include <fstream>
#endif

namespace ngs::index {

namespace {

using Kind = IndexError::Kind;

[[noreturn]] void fail(Kind kind, const std::string& path,
                       const std::string& detail) {
  throw IndexError(kind, path + ": " + detail);
}

}  // namespace

/// One prefix bin's lazily built state. `ready` flips exactly once,
/// after `spectrum` (and whichever backing store it views) is fully
/// constructed, so readers on the fast path never see a partial shard.
struct ShardedSpectrumView::Slot {
  std::atomic<const kspec::KSpectrum*> ready{nullptr};
  std::mutex mu;
  std::unique_ptr<kspec::KSpectrum> spectrum;
  // Backing storage: a private per-shard mapping, or owned buffers on
  // the fallback path.
  void* mmap_base = nullptr;
  std::size_t mmap_len = 0;
  std::vector<seq::KmerCode> owned_codes;
  std::vector<std::uint32_t> owned_counts;

  ~Slot() {
#if NGS_SHARDED_VIEW_POSIX
    if (mmap_base != nullptr) ::munmap(mmap_base, mmap_len);
#endif
  }
};

ShardedSpectrumView::ShardedSpectrumView(std::string path, int k,
                                         int shard_bits,
                                         std::vector<ShardRegion> shards,
                                         bool use_mmap)
    : path_(std::move(path)),
      k_(k),
      shard_bits_(shard_bits),
      use_mmap_(use_mmap),
      shards_(std::move(shards)) {
  const std::size_t prefixes = std::size_t{1} << shard_bits_;
  region_of_prefix_.assign(prefixes, -1);
  slots_.resize(prefixes);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::uint32_t p = shards_[i].prefix;
    if (p >= prefixes || region_of_prefix_[p] >= 0 ||
        (i > 0 && shards_[i - 1].prefix >= p)) {
      fail(Kind::kBadLayout, path_, "malformed shard table");
    }
    region_of_prefix_[p] = static_cast<std::int32_t>(i);
    slots_[p] = std::make_unique<Slot>();
  }
#if NGS_SHARDED_VIEW_POSIX
  fd_ = ::open(path_.c_str(), O_RDONLY);
  if (fd_ < 0) {
    fail(Kind::kIo, path_,
         std::string("open failed: ") + std::strerror(errno));
  }
#endif
}

ShardedSpectrumView::~ShardedSpectrumView() {
#if NGS_SHARDED_VIEW_POSIX
  if (fd_ >= 0) ::close(fd_);
#endif
}

std::vector<std::uint64_t> ShardedSpectrumView::shard_starts() const {
  std::vector<std::uint64_t> starts(region_of_prefix_.size() + 1, 0);
  for (std::size_t p = 0; p < region_of_prefix_.size(); ++p) {
    const std::int32_t r = region_of_prefix_[p];
    starts[p + 1] = starts[p] + (r < 0 ? 0 : shards_[r].distinct);
  }
  return starts;
}

void ShardedSpectrumView::materialize(Slot& slot,
                                      const ShardRegion& region) const {
  const std::uint64_t codes_bytes = region.distinct * sizeof(seq::KmerCode);
  const std::uint64_t counts_bytes = region.distinct * sizeof(std::uint32_t);
  const std::uint64_t region_begin = region.codes_offset;
  const std::uint64_t region_end = std::max(
      region.codes_offset + codes_bytes, region.counts_offset + counts_bytes);

  const seq::KmerCode* codes_ptr = nullptr;
  const std::uint32_t* counts_ptr = nullptr;

  // An injected fault (or a real mmap failure) must not fail the query:
  // the owned-buffer read below serves the identical bytes.
  bool try_mmap = use_mmap_ && region_end > region_begin;
  if (try_mmap && fault::should_fire(fault::sites::kShardMmap)) {
    try_mmap = false;
  }
#if NGS_SHARDED_VIEW_POSIX
  if (try_mmap) {
    const std::uint64_t page =
        static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    const std::uint64_t map_begin = region_begin & ~(page - 1);
    const std::size_t len = static_cast<std::size_t>(region_end - map_begin);
    void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd_,
                        static_cast<::off_t>(map_begin));
    if (base != MAP_FAILED) {
      slot.mmap_base = base;
      slot.mmap_len = len;
      const auto* bytes = static_cast<const unsigned char*>(base);
      codes_ptr = reinterpret_cast<const seq::KmerCode*>(
          bytes + (region.codes_offset - map_begin));
      counts_ptr = reinterpret_cast<const std::uint32_t*>(
          bytes + (region.counts_offset - map_begin));
    }
  }
  if (codes_ptr == nullptr) {
    const auto read_at = [&](void* dst, std::uint64_t bytes,
                             std::uint64_t offset) {
      auto* p = static_cast<unsigned char*>(dst);
      while (bytes > 0) {
        const ::ssize_t r =
            ::pread(fd_, p, static_cast<std::size_t>(bytes),
                    static_cast<::off_t>(offset));
        if (r < 0) {
          if (errno == EINTR) continue;
          fail(Kind::kIo, path_,
               std::string("shard read failed: ") + std::strerror(errno));
        }
        if (r == 0) {
          fail(Kind::kTruncated, path_,
               "unexpected end of file reading a shard");
        }
        p += r;
        offset += static_cast<std::uint64_t>(r);
        bytes -= static_cast<std::uint64_t>(r);
      }
    };
    slot.owned_codes.resize(static_cast<std::size_t>(region.distinct));
    slot.owned_counts.resize(static_cast<std::size_t>(region.distinct));
    read_at(slot.owned_codes.data(), codes_bytes, region.codes_offset);
    read_at(slot.owned_counts.data(), counts_bytes, region.counts_offset);
    codes_ptr = slot.owned_codes.data();
    counts_ptr = slot.owned_counts.data();
  }
#else
  {
    std::ifstream is(path_, std::ios::binary);
    if (!is) fail(Kind::kIo, path_, "open failed");
    const auto read_at = [&](void* dst, std::uint64_t bytes,
                             std::uint64_t offset) {
      is.seekg(static_cast<std::streamoff>(offset));
      is.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
      if (!is) fail(Kind::kIo, path_, "shard read failed");
    };
    slot.owned_codes.resize(static_cast<std::size_t>(region.distinct));
    slot.owned_counts.resize(static_cast<std::size_t>(region.distinct));
    read_at(slot.owned_codes.data(), codes_bytes, region.codes_offset);
    read_at(slot.owned_counts.data(), counts_bytes, region.counts_offset);
    codes_ptr = slot.owned_codes.data();
    counts_ptr = slot.owned_counts.data();
  }
#endif

  const auto codes = std::span<const seq::KmerCode>(
      codes_ptr, static_cast<std::size_t>(region.distinct));
  const auto counts = std::span<const std::uint32_t>(
      counts_ptr, static_cast<std::size_t>(region.distinct));
  // No keepalive: the slot (and the view that owns it) outlives every
  // use of the spectrum — from_shards holds the view via shared_ptr.
  slot.spectrum = std::make_unique<kspec::KSpectrum>(
      kspec::KSpectrum::adopt_external(codes, counts, {}, k_,
                                       region.total_instances, 0));
  slot.spectrum->rebuild_prefix_index(-1, shard_bits_);
  materialized_.fetch_add(1, std::memory_order_relaxed);
  slot.ready.store(slot.spectrum.get(), std::memory_order_release);
}

const kspec::KSpectrum* ShardedSpectrumView::shard(
    std::uint32_t prefix) const {
  if (prefix >= region_of_prefix_.size()) {
    std::ostringstream os;
    os << "shard prefix " << prefix << " out of range";
    fail(Kind::kBadLayout, path_, os.str());
  }
  const std::int32_t r = region_of_prefix_[prefix];
  if (r < 0) return nullptr;  // empty bin
  Slot& slot = *slots_[prefix];
  const kspec::KSpectrum* ready = slot.ready.load(std::memory_order_acquire);
  if (ready != nullptr) return ready;
  std::lock_guard<std::mutex> lock(slot.mu);
  ready = slot.ready.load(std::memory_order_acquire);
  if (ready != nullptr) return ready;
  materialize(slot, shards_[static_cast<std::size_t>(r)]);
  return slot.ready.load(std::memory_order_acquire);
}

}  // namespace ngs::index
