#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>

#include <sstream>

#include "fault/fault.hpp"
#include "index/spectrum_index.hpp"
#include "io/fastx.hpp"
#include "kspec/chunked_builder.hpp"
#include "util/atomic_file.hpp"
#include "util/bounded_queue.hpp"
#include "util/memory.hpp"
#include "util/pipeline_executor.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace ngs::core {

namespace {

std::string checksum_hex(std::uint64_t checksum) {
  std::ostringstream os;
  os << "0x" << std::hex << checksum;
  return os.str();
}

/// Unique sibling name for the transient sharded index of a budget run
/// that is not also saving an index (removed when the run ends).
std::string transient_index_path(const std::string& dir) {
  static std::atomic<unsigned long> seq{0};
#if defined(__unix__) || defined(__APPLE__)
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return dir + "/ngs_spectrum_" + std::to_string(pid) + "_" +
         std::to_string(seq.fetch_add(1)) + ".ngsx";
}

/// Removes a transient file when the run leaves scope (success or
/// unwind). Deferred to scope exit rather than unlinked eagerly so the
/// non-POSIX sharded view — which reopens the file per shard — keeps
/// working through pass 2.
struct FileRemover {
  std::string path;
  ~FileRemover() {
    if (!path.empty()) std::remove(path.c_str());
  }
};

/// One unit of pass 2: a batch of reads flowing reader → workers →
/// writer through the PipelineExecutor. `in` views either `owned`
/// (streamed path) or the buffered ReadSet; moving a chunk moves the
/// vectors, which keeps their heap buffers — and therefore the span —
/// valid.
struct Pass2Chunk {
  std::vector<seq::Read> owned;
  std::span<const seq::Read> in;
  std::vector<seq::Read> out;
};

/// Reads resident in one pass's own buffers (queued, being processed,
/// or awaiting the writer) and their high-water mark, for the
/// peak_buffered_reads bound.
class InFlightReads {
 public:
  void add(std::size_t n) {
    const std::size_t now = now_.fetch_add(n, std::memory_order_relaxed) + n;
    std::size_t peak = peak_.load(std::memory_order_relaxed);
    while (now > peak && !peak_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }
  void remove(std::size_t n) { now_.fetch_sub(n, std::memory_order_relaxed); }
  std::size_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::size_t> now_{0};
  std::atomic<std::size_t> peak_{0};
};

/// Opens the input for one pass. Transient open failures are absorbed
/// by a bounded exponential-backoff retry, counted into *retries.
std::unique_ptr<std::istream> open_with_retry(const StreamFactory& open_input,
                                              const PipelineOptions& options,
                                              std::uint64_t* retries) {
  const fault::RetryPolicy policy{std::max(1, options.io_retry_attempts),
                                  std::max(0, options.io_retry_backoff_ms)};
  return fault::with_retry(
      policy,
      [&]() -> std::unique_ptr<std::istream> {
        // The transient site models an open that succeeds on retry (NFS
        // hiccup, fd-limit race) and is absorbed by the budget; the hard
        // open site models a missing/unreadable input.
        fault::maybe_fail(fault::sites::kOpenInputTransient, ErrorKind::kIo,
                          "cannot open input", /*transient=*/true);
        fault::maybe_fail(fault::sites::kFastqOpen, ErrorKind::kIo,
                          "cannot open input");
        return open_input();
      },
      retries);
}

}  // namespace

SpectrumBuild build_spectrum(const StreamFactory& open_input, int k,
                             bool both_strands,
                             const PipelineOptions& options,
                             util::ThreadPool& pool) {
  SpectrumBuild result;
  std::optional<util::ThreadPool> spectrum_pool;
  if (options.spectrum_threads > 0) {
    spectrum_pool.emplace(options.spectrum_threads);
  }
  kspec::SpillOptions spill;
  spill.memory_budget_bytes = options.memory_budget_bytes;
  spill.spill_dir = options.spill_dir;
  kspec::ChunkedSpectrumBuilder builder(
      k, both_strands, options.spectrum_batch_instances,
      spectrum_pool ? &*spectrum_pool : &pool, spill);
  auto is = open_with_retry(open_input, options, &result.io_retries);
  io::FastqStreamReader reader(*is);
  reader.set_bad_record_policy(options.on_bad_record);

  // Overlapped ingest: a dedicated reader thread parses batches ahead
  // through a bounded queue while this thread streams them into the
  // builder — parsing and kmer extraction (including batch sorts and
  // spill writes) proceed concurrently instead of taking turns. The
  // builder itself is only ever touched from this thread, so it needs
  // no locking.
  const util::Timer pass1_timer;
  InFlightReads in_flight;
  util::BoundedQueue<std::vector<seq::Read>> queue(
      std::max<std::size_t>(1, options.queue_depth));
  std::vector<std::vector<seq::Read>> batch_recycle;
  std::mutex batch_recycle_mutex;
  std::exception_ptr reader_error;
  const std::size_t batch_size = std::max<std::size_t>(1, options.batch_size);
  std::thread reader_thread([&] {
    try {
      for (;;) {
        fault::maybe_fail(fault::sites::kPipelineReader, ErrorKind::kIo,
                          "pass-1 read-ahead failed");
        std::vector<seq::Read> batch;
        {
          std::lock_guard<std::mutex> lock(batch_recycle_mutex);
          if (!batch_recycle.empty()) {
            batch = std::move(batch_recycle.back());
            batch_recycle.pop_back();
          }
        }
        batch.clear();
        if (reader.read_batch(batch, batch_size) == 0) break;
        in_flight.add(batch.size());
        if (!queue.push(std::move(batch))) break;
      }
    } catch (...) {
      reader_error = std::current_exception();
    }
    queue.close();
  });
  std::size_t batches_ingested = 0;
  try {
    std::vector<seq::Read> batch;
    while (queue.pop(batch)) {
      builder.add_read_batch(batch);
      for (const auto& r : batch) result.input.add(r);
      in_flight.remove(batch.size());
      ++batches_ingested;
      batch.clear();
      std::lock_guard<std::mutex> lock(batch_recycle_mutex);
      batch_recycle.push_back(std::move(batch));
      batch = std::vector<seq::Read>();
    }
  } catch (...) {
    // Ingest (spill write, sort) failed: unblock a reader stuck on a
    // full queue, reap the thread, then surface the error.
    queue.abort();
    reader_thread.join();
    throw;
  }
  reader_thread.join();
  if (reader_error) std::rethrow_exception(reader_error);
  auto& s1 = result.overlap;
  s1.items = batches_ingested;
  s1.queue_peak = queue.peak_size();
  s1.workers = 1;
  s1.reader_busy_seconds = reader.parse_seconds();
  s1.reader_stall_seconds = queue.push_wait_seconds();
  s1.writer_busy_seconds = builder.ingest_seconds();
  s1.writer_stall_seconds = queue.pop_wait_seconds();
  s1.elapsed_seconds = pass1_timer.seconds();
  result.peak_buffered_reads = in_flight.peak();
  result.reads_skipped = reader.records_skipped();

  ngs::index::IndexBuildInfo build;
  build.k = k;
  build.both_strands = both_strands;
  build.input_reads = result.input.reads;
  build.input_bases = result.input.bases;
  build.max_read_length =
      static_cast<std::uint32_t>(result.input.max_read_length);
  result.index_path = options.save_index_path;
  if (builder.spilled()) {
    builder.flush_spill();
    result.spilled = true;
    result.spill_bytes = builder.spill_bytes();
  }
  const std::size_t bins = result.spilled ? builder.spill_nonempty_bins() : 0;
  if (bins > 1) {
    // Out-of-core finalization: stream the sorted prefix bins straight
    // into a sharded index file — the full spectrum never exists in this
    // process — then serve the spectrum from the file's lazily mapped
    // shards. Without a save path the file is transient; it is removed
    // here if anything below fails, and by the caller otherwise.
    FileRemover cleanup;
    if (result.index_path.empty()) {
      result.index_path = transient_index_path(builder.spill_dir());
      result.index_transient = true;
      cleanup.path = result.index_path;
    }
    {
      ngs::index::ShardedIndexWriter writer(
          result.index_path, build, builder.spill_shard_bits(), bins);
      builder.finish_spilled(
          [&writer](kspec::ChunkedSpectrumBuilder::SortedRun&& run) {
            writer.append_shard(run.prefix, std::move(run.codes),
                                std::move(run.counts));
          });
      result.index_checksum = writer.finish();
    }
    const auto index = ngs::index::SpectrumIndex::load(result.index_path);
    result.index_shards = index.info().shard_count;
    result.spectrum = index.share_spectrum();
    cleanup.path.clear();
  } else {
    // In memory, or a single non-empty spill bin: finish() rebuilds the
    // monolithic arrays, so the save below writes version-1 bytes.
    result.spectrum = builder.finish();
    if (!result.index_path.empty()) {
      result.index_checksum = ngs::index::write_spectrum_index(
          result.index_path, result.spectrum, build);
    }
  }
  result.peak_tracked_bytes = builder.peak_tracked_bytes();
  return result;
}

CorrectionPipeline::CorrectionPipeline(std::unique_ptr<Corrector> corrector,
                                       PipelineOptions options)
    : corrector_(std::move(corrector)), options_(options) {
  if (!corrector_) {
    throw std::invalid_argument("CorrectionPipeline: null corrector");
  }
  if (options_.batch_size == 0) options_.batch_size = 1;
  if (options_.queue_depth == 0) options_.queue_depth = 1;
}

CorrectionPipeline::~CorrectionPipeline() {
  for (std::size_t i = 0; i < scratch_slot_count_; ++i) {
    delete scratch_slots_[i].load(std::memory_order_relaxed);
  }
}

PipelineResult CorrectionPipeline::run_file(const std::string& in_fastq,
                                            const std::string& out_fastq) {
  // Atomic output via the shared util::AtomicFile protocol (the same
  // one the index writers use): correct into a uniquely named sibling
  // temp file and rename over the target only on success, so a failed
  // or interrupted run never leaves a truncated corrected FASTQ where
  // downstream tooling expects a complete one.
  util::AtomicFileOptions atomic_options;
  atomic_options.error_site = fault::sites::kOutputWrite;
  util::AtomicFile out_file(out_fastq, atomic_options);
  PipelineResult result;
  {
    std::ofstream os(out_file.temp_path());
    if (!os) {
      throw Error(ErrorKind::kIo, fault::sites::kOutputWrite,
                  "cannot open for writing: " + out_file.temp_path());
    }
    result = run(
        [&in_fastq]() -> std::unique_ptr<std::istream> {
          return io::open_input_stream(in_fastq);
        },
        os);
    os.close();
    if (!os) {
      throw Error(ErrorKind::kIo, fault::sites::kOutputWrite,
                  "error finalizing output: " + out_file.temp_path());
    }
  }
  out_file.commit();  // throws kIo and removes the temp on failure
  return result;
}

PipelineResult CorrectionPipeline::run(const StreamFactory& open_input,
                                       std::ostream& out) {
  PipelineResult result;
  std::optional<util::ThreadPool> own_pool;
  if (options_.threads > 0) own_pool.emplace(options_.threads);
  util::ThreadPool& pool = own_pool ? *own_pool : util::default_pool();
  const std::size_t batch_size = options_.batch_size;
  const std::size_t exec_workers = pool.size();
  // One scratch slot per executor worker.
  ensure_scratch_slots(exec_workers);

  // One batch-write primitive for every path below: injectable, and any
  // stream failure is a typed I/O error instead of a silent bad() bit.
  const auto write_batch = [&out](std::span<const seq::Read> reads) {
    fault::maybe_fail(fault::sites::kOutputWrite, ErrorKind::kIo,
                      "error writing corrected output");
    io::write_fastq(out, reads);
    if (!out) {
      throw Error(ErrorKind::kIo, fault::sites::kOutputWrite,
                  "error writing corrected output batch");
    }
  };

  // Pass 2 of every batch-capable method: reader thread → bounded queue
  // → dynamic workers → order-restoring writer (this thread), on
  // util::PipelineExecutor. `fill` produces the next chunk (serially,
  // on the reader thread); spent chunks are recycled so steady state
  // allocates nothing.
  InFlightReads in_flight;
  std::vector<Pass2Chunk> chunk_recycle;
  std::mutex recycle_mutex;
  const auto run_pass2 = [&](const std::function<bool(Pass2Chunk&)>& fill) {
    util::PipelineExecutorOptions exec_options;
    exec_options.workers = exec_workers;
    exec_options.queue_depth = options_.queue_depth;
    util::PipelineExecutor<Pass2Chunk> executor(exec_options);
    std::mutex report_mutex;
    const auto stats = executor.run(
        [&](Pass2Chunk& chunk) -> bool {
          fault::maybe_fail(fault::sites::kPipelineReader, ErrorKind::kIo,
                            "pass-2 read-ahead failed");
          {
            std::lock_guard<std::mutex> lock(recycle_mutex);
            if (!chunk_recycle.empty()) {
              chunk = std::move(chunk_recycle.back());
              chunk_recycle.pop_back();
            }
          }
          chunk.owned.clear();
          chunk.out.clear();
          chunk.in = {};
          if (!fill(chunk)) return false;
          in_flight.add(chunk.in.size());
          return true;
        },
        [&](Pass2Chunk& chunk, std::size_t worker) {
          CorrectionReport local;
          auto scratch = acquire_scratch(worker);
          chunk.out.reserve(chunk.in.size());
          correct_span(chunk.in, chunk.out, local, scratch.get());
          release_scratch(std::move(scratch), worker);
          std::lock_guard<std::mutex> lock(report_mutex);
          result.report.merge(local);
        },
        [&](Pass2Chunk&& chunk) {
          fault::maybe_fail(fault::sites::kPipelineWriter, ErrorKind::kIo,
                            "pass-2 ordered write failed");
          write_batch(std::span<const seq::Read>(chunk.out));
          ++result.batches;
          in_flight.remove(chunk.in.size());
          chunk.owned.clear();
          chunk.out.clear();
          chunk.in = {};
          std::lock_guard<std::mutex> lock(recycle_mutex);
          chunk_recycle.push_back(std::move(chunk));
        });
    auto& s2 = result.pass2_overlap;
    s2.items = stats.items;
    s2.queue_peak = stats.queue_peak;
    s2.reorder_peak = stats.reorder_peak;
    s2.workers = exec_workers;
    s2.reader_busy_seconds = stats.reader_busy_seconds;
    s2.reader_stall_seconds = stats.reader_stall_seconds;
    s2.worker_stall_seconds = stats.worker_stall_seconds;
    s2.writer_busy_seconds = stats.writer_busy_seconds;
    s2.writer_stall_seconds = stats.writer_stall_seconds;
    s2.elapsed_seconds = stats.elapsed_seconds;
    result.pass2_seconds += stats.elapsed_seconds;
  };

  std::uint64_t index_checksum = 0;
  bool index_saved = false;
  double build_ms = -1.0;  // buffered path only
  // Outlives pass 2: the transient sharded index of a budget run must
  // stay on disk while the lazy view still serves shards from it.
  FileRemover temp_index;
  if (corrector_->spectrum_k() > 0) {
    result.streamed = true;
    if (!options_.load_index_path.empty()) {
      // Pass 1 replaced by the persisted index: mmap it, cross-check
      // the build parameters against the corrector, and hand over the
      // zero-copy spectrum view. The input summary comes from the index
      // header (it was recorded from the same reads at build time), so
      // downstream sizing — and therefore output — matches a fresh run.
      const auto index =
          ngs::index::SpectrumIndex::load(options_.load_index_path);
      const auto& info = index.info();
      if (info.build.k != corrector_->spectrum_k()) {
        std::ostringstream os;
        os << options_.load_index_path << ": index was built with k="
           << info.build.k << " but method '" << corrector_->method()
           << "' needs k=" << corrector_->spectrum_k();
        throw std::invalid_argument(os.str());
      }
      if (info.build.both_strands != corrector_->spectrum_both_strands()) {
        std::ostringstream os;
        os << options_.load_index_path << ": index was built "
           << (info.build.both_strands ? "with" : "without")
           << " reverse-complement strands but method '"
           << corrector_->method() << "' expects the opposite";
        throw std::invalid_argument(os.str());
      }
      result.input.reads = info.build.input_reads;
      result.input.bases = info.build.input_bases;
      result.input.max_read_length = info.build.max_read_length;
      result.pass1_skipped = true;
      index_checksum = info.checksum;
      corrector_->build_from_spectrum(index.share_spectrum(), result.input);
    } else {
      auto built = build_spectrum(open_input, corrector_->spectrum_k(),
                                  corrector_->spectrum_both_strands(),
                                  options_, pool);
      if (built.index_transient) temp_index.path = built.index_path;
      index_saved = !built.index_path.empty() && !built.index_transient;
      index_checksum = built.index_checksum;
      result.input = built.input;
      result.peak_buffered_reads = built.peak_buffered_reads;
      result.pass1_overlap = built.overlap;
      result.reads_skipped = built.reads_skipped;
      result.io_retries += built.io_retries;
      result.spectrum_spilled = built.spilled;
      result.spectrum_spilled_bytes = built.spill_bytes;
      result.spectrum_shards = built.index_shards;
      result.spectrum_peak_tracked_bytes = built.peak_tracked_bytes;
      corrector_->build_from_spectrum(std::move(built.spectrum),
                                      result.input);
    }
    // Pass 2: re-stream, correct batches in parallel, write in order.
    auto is = open_with_retry(open_input, options_, &result.io_retries);
    io::FastqStreamReader reader(*is);
    reader.set_bad_record_policy(options_.on_bad_record);
    run_pass2([&](Pass2Chunk& chunk) {
      if (reader.read_batch(chunk.owned, batch_size) == 0) return false;
      chunk.in = std::span<const seq::Read>(chunk.owned);
      return true;
    });
    // A genuinely malformed record is dropped by both passes, so take
    // the max rather than the sum (summing would double-count it;
    // taking only pass 2 would hide a record dropped by pass 1 alone).
    result.reads_skipped =
        std::max(result.reads_skipped, reader.records_skipped());
  } else {
    if (!options_.load_index_path.empty() ||
        !options_.save_index_path.empty()) {
      throw std::invalid_argument(
          std::string(corrector_->method()) +
          ": phase 1 is not a pure k-spectrum, so a spectrum index cannot "
          "replace or capture it (--load-index/--save-index apply to "
          "streaming methods only)");
    }
    // Buffered path: one pass to load, then batch (or whole-set) correct.
    seq::ReadSet all;
    {
      auto is = open_with_retry(open_input, options_, &result.io_retries);
      io::FastqStreamReader reader(*is);
      reader.set_bad_record_policy(options_.on_bad_record);
      while (reader.read_batch(all.reads, batch_size) > 0) {
      }
      result.reads_skipped = reader.records_skipped();
    }
    for (const auto& r : all.reads) result.input.add(r);
    result.peak_buffered_reads = all.reads.size();
    const util::Timer build_timer;
    corrector_->build(all);
    build_ms = build_timer.seconds() * 1000.0;
    if (corrector_->supports_batches()) {
      // The input is already resident, but correction and output
      // writing still overlap: chunks view the buffered ReadSet, so the
      // executor adds no copies.
      std::size_t offset = 0;
      run_pass2([&](Pass2Chunk& chunk) {
        if (offset >= all.reads.size()) return false;
        const std::size_t n = std::min(batch_size, all.reads.size() - offset);
        chunk.in = std::span<const seq::Read>(all.reads.data() + offset, n);
        offset += n;
        return true;
      });
    } else {
      util::Timer pass2_timer;
      const auto corrected = corrector_->correct_all(all, result.report);
      result.pass2_seconds += pass2_timer.seconds();
      for (std::size_t offset = 0; offset < corrected.size();
           offset += batch_size) {
        const std::size_t n = std::min(batch_size, corrected.size() - offset);
        write_batch(
            std::span<const seq::Read>(corrected.data() + offset, n));
        ++result.batches;
      }
    }
  }
  result.peak_buffered_reads =
      std::max(result.peak_buffered_reads, in_flight.peak());
  out.flush();
  if (!out) {
    throw Error(ErrorKind::kIo, fault::sites::kOutputWrite,
                "CorrectionPipeline: error writing output");
  }
  // Standardized observability extras: every tool and bench reports the
  // same perf keys regardless of method.
  corrector_->annotate_report(result.report);
  if (result.pass1_skipped) {
    result.report.bump("pass1_skipped", 1);
    result.report.note("index_path", options_.load_index_path);
    result.report.note("index_checksum", checksum_hex(index_checksum));
  } else if (index_saved) {
    result.report.bump("index_saved", 1);
    result.report.note("index_path", options_.save_index_path);
    result.report.note("index_checksum", checksum_hex(index_checksum));
  }
  // Phase 1 of a buffered method (its tables, built from the loaded
  // reads); a streaming method's pass 1 is timed by its overlap stats.
  if (build_ms >= 0.0) {
    result.report.bump("build_ms",
                       static_cast<std::uint64_t>(build_ms + 0.5));
  }
  if (result.pass2_seconds > 0.0) {
    result.report.bump(
        "pass2_reads_per_sec",
        static_cast<std::uint64_t>(static_cast<double>(result.report.reads) /
                                   result.pass2_seconds));
  }
  // Overlap telemetry: where the stages' time went and how full the
  // buffers got. Only when pass 2 ran on the executor, so whole-set
  // methods keep reports byte-identical to previous releases.
  if (result.pass2_overlap.workers > 0) {
    const auto ms = [](double seconds) {
      return static_cast<std::uint64_t>(seconds * 1000.0 + 0.5);
    };
    result.report.bump("queue_depth", options_.queue_depth);
    if (result.pass1_overlap.workers > 0) {
      const auto& s1 = result.pass1_overlap;
      result.report.bump("pass1_reader_stall_ms",
                         ms(s1.reader_stall_seconds));
      result.report.bump("pass1_ingest_stall_ms",
                         ms(s1.writer_stall_seconds));
      result.report.bump("pass1_queue_peak", s1.queue_peak);
    }
    const auto& s2 = result.pass2_overlap;
    result.report.bump("pass2_reader_stall_ms", ms(s2.reader_stall_seconds));
    result.report.bump("pass2_writer_stall_ms", ms(s2.writer_stall_seconds));
    result.report.bump("pass2_worker_stall_ms", ms(s2.worker_stall_seconds));
    result.report.bump("pass2_queue_peak", s2.queue_peak);
    result.report.bump("pass2_reorder_peak", s2.reorder_peak);
    double util = 0.0;
    if (s2.elapsed_seconds > 0.0) {
      util = 1.0 - s2.worker_stall_seconds /
                       (s2.elapsed_seconds * static_cast<double>(s2.workers));
      if (util < 0.0) util = 0.0;
    }
    result.report.bump("pass2_worker_util_pct",
                       static_cast<std::uint64_t>(util * 100.0 + 0.5));
  }
  // Degradation accounting: what was dropped, passed through, or
  // retried — zero-valued keys are omitted so fault-free reports are
  // byte-identical to pre-hardening ones.
  result.reads_failed = result.report.extra("reads_failed");
  if (result.reads_skipped > 0) {
    result.report.bump("reads_skipped", result.reads_skipped);
  }
  if (result.io_retries > 0) {
    result.report.bump("io_retries", result.io_retries);
  }
  // Out-of-core telemetry, omitted on non-spilled runs so their reports
  // stay byte-identical to pre-sharding ones.
  if (result.spectrum_spilled) {
    result.report.bump("spectrum_spilled", 1);
    result.report.bump("spectrum_spill_bytes", result.spectrum_spilled_bytes);
    if (result.spectrum_shards > 0) {
      result.report.bump("spectrum_shards", result.spectrum_shards);
    }
  }
  result.peak_rss_bytes = util::peak_rss_bytes();
  return result;
}

void CorrectionPipeline::ensure_scratch_slots(std::size_t n) {
  if (n <= scratch_slot_count_) return;
  auto grown = std::make_unique<std::atomic<BatchScratch*>[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    grown[i].store(i < scratch_slot_count_
                       ? scratch_slots_[i].load(std::memory_order_relaxed)
                       : nullptr,
                   std::memory_order_relaxed);
  }
  scratch_slots_ = std::move(grown);
  scratch_slot_count_ = n;
}

std::unique_ptr<BatchScratch> CorrectionPipeline::acquire_scratch(
    std::size_t hint) {
  const std::size_t n = scratch_slot_count_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = (hint + i) % n;
    BatchScratch* held =
        scratch_slots_[slot].exchange(nullptr, std::memory_order_acq_rel);
    if (held != nullptr) return std::unique_ptr<BatchScratch>(held);
  }
  return corrector_->make_scratch();
}

void CorrectionPipeline::release_scratch(std::unique_ptr<BatchScratch> scratch,
                                         std::size_t hint) {
  if (scratch == nullptr) return;
  BatchScratch* raw = scratch.release();
  const std::size_t n = scratch_slot_count_;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = (hint + i) % n;
    BatchScratch* expected = nullptr;
    if (scratch_slots_[slot].compare_exchange_strong(
            expected, raw, std::memory_order_acq_rel)) {
      return;
    }
  }
  delete raw;  // every slot occupied: more concurrent callers than slots
}

void CorrectionPipeline::correct_span(std::span<const seq::Read> in,
                                      std::vector<seq::Read>& out,
                                      CorrectionReport& local,
                                      BatchScratch* scratch) {
  // Precondition: `out` empty and `local` fresh — both are per-block,
  // so the salvage path below can discard partial tallies wholesale.
  bool block_ok = true;
  try {
    fault::maybe_fail(fault::sites::kPass2Batch, ErrorKind::kInternal,
                      "pass-2 batch correction failed");
    corrector_->correct_batch(in, out, local, scratch);
    if (out.size() != in.size()) {
      throw Error(ErrorKind::kInternal, fault::sites::kPass2Batch,
                  "correct_batch returned a different number of reads");
    }
  } catch (...) {
    block_ok = false;
  }
  if (block_ok) return;
  // Graceful degradation: re-correct the block one read at a time.
  // A read whose correction still throws passes through uncorrected
  // (counted as reads_failed) — one bad read degrades itself, not
  // the batch, not the run.
  local = CorrectionReport{};  // discard partial batch tallies
  out.clear();
  std::vector<seq::Read> one;
  for (std::size_t i = 0; i < in.size(); ++i) {
    one.clear();
    try {
      fault::maybe_fail(fault::sites::kPass2Read, ErrorKind::kInternal,
                        "pass-2 read correction failed");
      corrector_->correct_batch(in.subspan(i, 1), one, local, scratch);
      if (one.size() != 1) {
        throw Error(ErrorKind::kInternal, fault::sites::kPass2Read,
                    "correct_batch returned a different number of reads");
      }
      out.push_back(std::move(one[0]));
    } catch (...) {
      out.push_back(in[i]);
      ++local.reads;
      local.bump("reads_failed", 1);
    }
  }
  local.bump("batches_salvaged", 1);
}

}  // namespace ngs::core
