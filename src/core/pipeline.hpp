#pragma once
// Two-pass streaming batched correction, the production data path the
// ROADMAP's "fast as the hardware allows / huge inputs" goal asks for
// (cf. BFC and RECKONER, which stream reads in bounded memory instead of
// materializing whole FASTQ files):
//
//   pass 1 — batches from an io::FastqStreamReader feed a
//            kspec::ChunkedSpectrumBuilder (spectrum-based methods:
//            SAP, HiTEC, REDEEM — peak read buffering stays O(batch))
//            or are buffered into a ReadSet (methods needing the full
//            input: Reptile's tile table, SHREC, FreClu, hybrid);
//   pass 2 — batches are corrected in parallel and written to the
//            output FASTQ in input order.
//
// Each pass has one loop. Pass 1 of the streaming methods is
// build_spectrum(), shared with `ngs-index build`: a dedicated reader
// thread parses batches ahead through a bounded queue while the calling
// thread ingests them into the spectrum builder, and the function owns
// the choice of index format when the spectrum is persisted. Pass 2
// runs every batch-capable method on a util::PipelineExecutor (reader
// thread → bounded queue → dynamic workers → order-restoring writer);
// whole-set methods run their native Corrector::correct_all. Stage
// telemetry (stall seconds, queue/reorder occupancy peaks, worker
// utilization) lands in PipelineResult and the report extras.
//
// Output is byte-identical to the in-memory Corrector::correct_all path
// for every method, at every thread count and queue depth (reads are
// corrected independently within a batch, the executor restores input
// order before writing, and whole-set methods fall back to their native
// pass).

#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/corrector.hpp"
#include "io/fastq_stream.hpp"
#include "kspec/kspectrum.hpp"

namespace ngs::util {
class ThreadPool;
}

namespace ngs::core {

struct PipelineOptions {
  /// Reads per correction batch (and per streamed pass-1 parse batch).
  std::size_t batch_size = 4096;
  /// Worker threads for batch correction; 0 = the shared default pool.
  /// Whole-set methods parallelize internally on the default pool.
  std::size_t threads = 0;
  /// Worker threads for the pass-1 radix-partitioned spectrum build
  /// (batch sorts + run merges); 0 = share the correction pool.
  std::size_t spectrum_threads = 0;
  /// Kmer instances buffered per ChunkedSpectrumBuilder batch in pass 1.
  std::size_t spectrum_batch_instances = 1 << 20;
  /// Bounded read-ahead of both passes (ngs-correct --queue-depth): how
  /// many parsed batches the reader thread may run ahead of compute.
  /// Total in-flight batches in pass 2 stay under queue_depth +
  /// 2*workers + 1 (the executor's documented cap), so memory remains
  /// O(batch_size x small constant).
  std::size_t queue_depth = 4;
  /// Path of a persisted spectrum index (ngs::index) to mmap instead of
  /// building pass 1 from the reads; empty = build fresh. Only valid
  /// for streaming methods (Corrector::spectrum_k() > 0) and only when
  /// the index's k / strand convention match the corrector; the input
  /// summary (reads/bases/max read length) comes from the index header,
  /// so output is byte-identical to a fresh run over the same reads.
  std::string load_index_path;
  /// When non-empty, persist the freshly built pass-1 spectrum (plus
  /// input provenance) to this path for future --load-index runs.
  /// Streaming methods only; ignored when load_index_path is set (there
  /// is nothing new to save). A budget-constrained build that spilled
  /// into multiple prefix bins is saved in the sharded version-2 format;
  /// otherwise the monolithic version-1 bytes are unchanged.
  std::string save_index_path;
  /// Bound (bytes) on the pass-1 spectrum build's own tracked memory
  /// (kspec::SpillOptions::memory_budget_bytes): when the k-spectrum
  /// exceeds it, instances spill to per-prefix disk bins and pass 2
  /// queries the spectrum shard-by-shard through a sharded index file
  /// instead of one in-memory array. 0 = unlimited (the default
  /// in-memory build). Streaming methods only. Corrected output is
  /// byte-identical to an unconstrained run.
  std::size_t memory_budget_bytes = 0;
  /// Directory for spill bins and the transient sharded index of a
  /// budget-constrained run; "" = the system temp directory.
  std::string spill_dir;
  /// Malformed-FASTQ policy (ngs-correct --on-bad-record). kFail aborts
  /// with a located parse error; kSkip counts and drops bad records
  /// (reported as reads_skipped) and keeps going — both passes apply
  /// the same policy, so the streamed spectrum and the corrected output
  /// see the same records.
  io::BadRecordPolicy on_bad_record = io::BadRecordPolicy::kFail;
  /// Bounded retry for transient input-open failures (see
  /// fault::with_retry): total attempts and initial backoff, doubling
  /// per retry. Retries performed are reported as io_retries.
  int io_retry_attempts = 3;
  int io_retry_backoff_ms = 5;
};

/// Stage telemetry of one overlapped pass (all zero when the pass did
/// not run): where the wall time went and how full the buffers got.
/// "Stall" is time a stage spent blocked on its neighbors — reader
/// stalls mean compute is the bottleneck; worker/writer stalls mean
/// input I/O is.
struct OverlapStageStats {
  /// Batches that flowed through the stage pipeline.
  std::size_t items = 0;
  /// Input-queue occupancy high-water mark (<= queue_depth).
  std::size_t queue_peak = 0;
  /// Reorder-buffer high-water mark (pass 2 only).
  std::size_t reorder_peak = 0;
  /// Worker threads the pass ran with (1 for pass 1's single ingester).
  std::size_t workers = 0;
  double reader_busy_seconds = 0.0;
  double reader_stall_seconds = 0.0;
  double worker_stall_seconds = 0.0;
  double writer_busy_seconds = 0.0;
  double writer_stall_seconds = 0.0;
  /// Wall time of the whole overlapped pass.
  double elapsed_seconds = 0.0;
};

struct PipelineResult {
  CorrectionReport report;
  InputSummary input;
  /// Number of output batches written.
  std::size_t batches = 0;
  /// Largest number of reads resident in the pipeline's own buffers at
  /// any point: <= batch_size * (queue_depth + 2*workers + 1) on the
  /// streamed path, the whole input on the buffered path.
  std::size_t peak_buffered_reads = 0;
  /// util::peak_rss_bytes() sampled at completion (process-wide telemetry).
  std::uint64_t peak_rss_bytes = 0;
  /// True when phase 1 ran from the streamed spectrum.
  bool streamed = false;
  /// True when phase 1 was skipped entirely in favor of a loaded
  /// spectrum index (report extras then carry index_path/index_checksum
  /// /pass1_skipped provenance).
  bool pass1_skipped = false;
  /// Per-stage telemetry of the overlapped passes (pass1_overlap only
  /// when build_spectrum ran; pass2_overlap only for batch-capable
  /// methods, zero for whole-set ones).
  OverlapStageStats pass1_overlap;
  OverlapStageStats pass2_overlap;
  /// Wall time of phase 2. Batch-capable methods: the whole
  /// read+correct+write executor run, since the stages run concurrently.
  /// Whole-set methods: correct_all only (excludes writing).
  /// report.extra("pass2_reads_per_sec") derives from it.
  double pass2_seconds = 0.0;
  /// Malformed records dropped across all passes under
  /// BadRecordPolicy::kSkip (also report extra "reads_skipped").
  std::uint64_t reads_skipped = 0;
  /// Reads whose correction threw and were passed through uncorrected
  /// by the per-read salvage path (also report extra "reads_failed").
  std::uint64_t reads_failed = 0;
  /// Transient input-open failures absorbed by the bounded retry (also
  /// report extra "io_retries").
  std::uint64_t io_retries = 0;
  /// True when the pass-1 build exceeded memory_budget_bytes and went
  /// through the spill path.
  bool spectrum_spilled = false;
  /// Shards in the sharded index pass 2 queried (0 when not spilled or
  /// when a single bin collapsed back to a monolithic spectrum).
  std::size_t spectrum_shards = 0;
  /// Bytes written to the spill bins during pass 1.
  std::uint64_t spectrum_spilled_bytes = 0;
  /// The spectrum builder's own peak memory accounting
  /// (ChunkedSpectrumBuilder::peak_tracked_bytes; 0 without a budget).
  std::uint64_t spectrum_peak_tracked_bytes = 0;
};

/// Reopenable input source: called once per pass, returning a fresh
/// stream over the same bytes.
using StreamFactory = std::function<std::unique_ptr<std::istream>()>;

/// What pass 1 of a streaming method produced (see build_spectrum).
struct SpectrumBuild {
  /// The counted k-spectrum: owned in memory, or a lazy view of the
  /// sharded index file when the build spilled into more than one bin.
  kspec::KSpectrum spectrum;
  /// Reads, bases and max read length of the records counted.
  InputSummary input;
  /// Index file written by the build ("" = none), its checksum, and its
  /// shard count (0 = monolithic version 1).
  std::string index_path;
  std::uint64_t index_checksum = 0;
  std::size_t index_shards = 0;
  /// True when index_path is a transient file of this build (a spilled
  /// build with no save_index_path) that `spectrum` still reads from;
  /// the caller removes it once done with the spectrum.
  bool index_transient = false;
  /// Spill-path telemetry (see ChunkedSpectrumBuilder).
  bool spilled = false;
  std::uint64_t spill_bytes = 0;
  std::uint64_t peak_tracked_bytes = 0;
  /// Malformed records dropped under BadRecordPolicy::kSkip.
  std::uint64_t reads_skipped = 0;
  /// Transient input-open failures absorbed by the bounded retry.
  std::uint64_t io_retries = 0;
  /// Largest number of reads resident in the read-ahead buffers.
  std::size_t peak_buffered_reads = 0;
  OverlapStageStats overlap;
};

/// Pass 1 of the streaming methods, shared by CorrectionPipeline::run
/// and `ngs-index build`: streams the input once through the
/// bounded-memory ChunkedSpectrumBuilder (overlapped read-ahead,
/// retrying open, and the options' bad-record policy), counting
/// k-mers of length `k` on one or both strands. Batch sorts and run
/// merges use a pool of options.spectrum_threads when set, otherwise
/// `pool`.
///
/// When options.save_index_path is set the spectrum is persisted
/// there: in the sharded version-2 format when the build spilled into
/// more than one prefix bin (the full spectrum then never exists in
/// this process), otherwise as monolithic version-1 bytes. A multi-bin
/// build without a save path still goes through a transient sharded
/// file in the spill directory (see SpectrumBuild::index_transient).
SpectrumBuild build_spectrum(const StreamFactory& open_input, int k,
                             bool both_strands,
                             const PipelineOptions& options,
                             util::ThreadPool& pool);

/// The verdict of a budgeted pass 1, as ngs-correct prints it after
/// "spill: ": "pass 1 stayed under B MiB (peak tracked N bytes)" when the
/// builder's tracked peak fits `budget_mib`, otherwise "pass 1 exceeded
/// the B MiB budget (peak tracked N bytes)".
std::string spill_budget_verdict(std::uint64_t peak_tracked_bytes,
                                 std::uint64_t budget_mib);

class CorrectionPipeline {
 public:
  using StreamFactory = core::StreamFactory;

  explicit CorrectionPipeline(std::unique_ptr<Corrector> corrector,
                              PipelineOptions options = {});
  ~CorrectionPipeline();

  const Corrector& corrector() const noexcept { return *corrector_; }
  const PipelineOptions& options() const noexcept { return options_; }

  /// Corrects in_fastq into out_fastq. The output is written to a
  /// sibling temp file and atomically renamed into place on success
  /// (mirroring the index writer), so an interrupted or failed run
  /// never leaves a truncated corrected FASTQ behind.
  PipelineResult run_file(const std::string& in_fastq,
                          const std::string& out_fastq);

  /// Stream-level entry point (tests, in-memory sources).
  PipelineResult run(const StreamFactory& open_input, std::ostream& out);

 private:
  /// Corrects one contiguous span with the batch-then-salvage ladder
  /// (kPass2Batch / kPass2Read degradation): appends exactly in.size()
  /// reads to `out`, tallying into the caller-local report. Runs on the
  /// pass-2 executor workers.
  void correct_span(std::span<const seq::Read> in,
                    std::vector<seq::Read>& out, CorrectionReport& local,
                    BatchScratch* scratch);

  /// Per-worker scratch slots (created on demand via
  /// corrector_->make_scratch()). Lock-free in steady state: slot i is
  /// an atomic pointer a worker exchanges out on acquire and back in on
  /// release, with `hint` (the worker's index) making re-acquisition of
  /// the same warm scratch the common O(1) case — the executor checks
  /// scratch in and out per item, so a lock would sit on the hot path.
  std::unique_ptr<BatchScratch> acquire_scratch(std::size_t hint);
  void release_scratch(std::unique_ptr<BatchScratch> scratch,
                       std::size_t hint);
  /// Grows the slot array to at least `n` entries. Call only from the
  /// run() thread while no workers are active.
  void ensure_scratch_slots(std::size_t n);

  std::unique_ptr<Corrector> corrector_;
  PipelineOptions options_;
  std::unique_ptr<std::atomic<BatchScratch*>[]> scratch_slots_;
  std::size_t scratch_slot_count_ = 0;
};

}  // namespace ngs::core
