// ngs_perfbench — the in-process half of the repository benchmark
// (perfbench/run.py drives it; see perfbench/README.md).
//
//   ngs_perfbench info
//       compiler and build type this binary was compiled with.
//   ngs_perfbench gain --reads in.fq --truth truth.tsv --corrected out.fq
//       (TP-FP)/(TP+FN) of a corrected FASTQ against the simulator's
//       exact truth, via eval::evaluate_correction.
//   ngs_perfbench trace --workload W --in in.fq --out out.fq --spans S ...
//       composes the public layer calls a tool run makes (FASTQ parse,
//       spectrum build, corrector build, batch correction, index write/
//       load, FASTQ write) with a span around each call, writes the
//       composed output (run.py cmp's it against the tool's) and the
//       spans, and prints the layer counters as JSON.
//   ngs_perfbench ready --socket S
//       prints "polling" once it runs (run.py spawns the daemon only
//       then, so this probe's own start-up is not timed), connects to
//       the starting ngs-correctd, sends HELLO, and prints the
//       CLOCK_MONOTONIC time at which HELLO_OK arrived.
//   ngs_perfbench loadgen --socket S --reads in.fq --reference ref.fq ...
//       closed-loop load: N connections, each keeping a window of REQ
//       batches in flight, repeated passes over the input; every reply
//       is checked against the reference output.
//
// Spans are kept in memory and written once at the end; run.py
// turns them into per-layer self times.

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/corrector.hpp"
#include "core/registry.hpp"
#include "eval/correction_metrics.hpp"
#include "index/spectrum_index.hpp"
#include "io/fastq_stream.hpp"
#include "io/fastx.hpp"
#include "kspec/chunked_builder.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

#ifndef NGS_PERFBENCH_BUILD_TYPE
#define NGS_PERFBENCH_BUILD_TYPE ""
#endif

using namespace ngs;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::int64_t kNoParent = -1;

/// In-memory span recorder: name, start, end (seconds since the
/// recorder was created), parent span and a small per-thread id.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  std::int64_t begin(const char* name, std::int64_t parent) {
    if (!enabled_) return kNoParent;
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, t, t, parent, thread_id()});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }

  void end(std::int64_t id) {
    if (id < 0) return;
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  void write(const std::string& path) const {
    std::ofstream os(path);
    os << std::setprecision(17) << "{\"spans\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
         << "\", \"start\": " << s.start << ", \"end\": " << s.end
         << ", \"parent\": " << s.parent << ", \"thread\": " << s.thread
         << "}";
    }
    os << "\n]}\n";
    if (!os) throw Error(ErrorKind::kIo, "", "cannot write spans: " + path);
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    std::int64_t parent;
    unsigned thread;
  };

  double now() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  static unsigned thread_id() {
    static std::atomic<unsigned> next{0};
    thread_local const unsigned id = next.fetch_add(1);
    return id;
  }

  bool enabled_;
  Clock::time_point origin_;
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Records one span for the lifetime of the scope.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t parent = kNoParent)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double monotonic_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// --key value argument map; every subcommand option takes a value.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        throw std::invalid_argument("expected --key value, got '" + key + "'");
      }
      values_[key.substr(2)] = argv[++i];
    }
  }
  std::string str(const std::string& key, const std::string& def = "") const {
    const auto it = values_.find(key);
    if (it != values_.end()) return it->second;
    if (def.empty()) throw std::invalid_argument("missing --" + key);
    return def;
  }
  long num(const std::string& key, long def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : std::stol(it->second);
  }
  long num(const std::string& key) const { return std::stol(str(key)); }
  double real(const std::string& key, double def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

void print_list(std::ostream& os, const char* key,
                const std::vector<double>& values) {
  os << "\"" << key << "\": [";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i ? ", " : "") << values[i];
  }
  os << "]";
}

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

// --- info --------------------------------------------------------------

int cmd_info() {
#if defined(__clang__)
  const char* compiler = "clang";
#elif defined(__GNUC__)
  const char* compiler = "gcc";
#else
  const char* compiler = "unknown";
#endif
#ifdef NDEBUG
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::cout << "{\"compiler\": \"" << compiler << " " << __VERSION__
            << "\", \"build_type\": \"" << NGS_PERFBENCH_BUILD_TYPE
            << "\", \"ndebug\": " << (ndebug ? "true" : "false") << "}\n";
  return 0;
}

// --- gain --------------------------------------------------------------

int cmd_gain(const Args& args) {
  seq::ReadSet original = io::read_fastq_file(args.str("reads"));
  std::ifstream truth(args.str("truth"));
  std::string line;
  std::getline(truth, line);  // header
  while (std::getline(truth, line)) {
    std::istringstream row(line);
    std::string id, pos, strand, bases;
    row >> id >> pos >> strand >> bases;
    const std::size_t i = original.truth.size();
    if (i >= original.reads.size() || original.reads[i].id != id) {
      throw Error(ErrorKind::kParse, "", "truth row " + std::to_string(i) +
                                             " does not match the reads");
    }
    original.truth.push_back({std::stoull(pos), strand == "-", bases});
  }
  const auto corrected = io::read_fastq_file(args.str("corrected")).reads;
  if (!original.has_truth() || corrected.size() != original.reads.size()) {
    throw Error(ErrorKind::kParse, "",
                "corrected output has " + std::to_string(corrected.size()) +
                    " reads, input has " +
                    std::to_string(original.reads.size()));
  }
  for (std::size_t i = 0; i < corrected.size(); ++i) {
    if (corrected[i].id != original.reads[i].id ||
        corrected[i].bases.size() != original.reads[i].bases.size() ||
        original.truth[i].true_bases.size() != corrected[i].bases.size()) {
      throw Error(ErrorKind::kParse, "",
                  "corrected read " + std::to_string(i) +
                      " does not match its input read");
    }
  }
  const auto counts = eval::evaluate_correction(original, corrected);
  std::cout << std::setprecision(17) << "{\"tp\": " << counts.tp
            << ", \"fp\": " << counts.fp << ", \"fn\": " << counts.fn
            << ", \"gain\": " << counts.gain() << "}\n";
  return 0;
}

// --- trace -------------------------------------------------------------

using Batches = std::vector<std::vector<seq::Read>>;

/// Corrects every batch on `workers` threads (one span per batch, on the
/// worker's thread), keeping batch order in `out`.
void correct_batches(const core::Corrector& corrector, const Batches& in,
                     Batches& out, std::size_t workers, Tracer& tracer,
                     const char* span, std::int64_t parent,
                     core::CorrectionReport& report,
                     std::vector<double>& batch_ms) {
  out.assign(in.size(), {});
  batch_ms.assign(in.size(), 0.0);
  std::atomic<std::size_t> next{0};
  std::mutex report_mutex;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      try {
        auto scratch = corrector.make_scratch();
        core::CorrectionReport local;
        for (std::size_t i; (i = next.fetch_add(1)) < in.size();) {
          const auto t0 = Clock::now();
          {
            Scope s(tracer, span, parent);
            corrector.correct_batch(in[i], out[i], local, scratch.get());
          }
          batch_ms[i] = ms_since(t0);
        }
        std::lock_guard<std::mutex> lock(report_mutex);
        report.merge(local);
      } catch (...) {
        std::lock_guard<std::mutex> lock(report_mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

/// Parses the whole FASTQ into batches, one io.parse span per batch.
Batches parse_batches(const std::string& path, std::size_t batch_size,
                      Tracer& tracer, std::int64_t parent,
                      std::uint64_t& bytes) {
  io::FastqStreamReader reader(path);
  Batches batches;
  for (;;) {
    std::vector<seq::Read> batch;
    std::size_t n = 0;
    {
      Scope s(tracer, "io.parse", parent);
      n = reader.read_batch(batch, batch_size);
    }
    if (n == 0) break;
    batches.push_back(std::move(batch));
  }
  bytes += reader.bytes_consumed();
  return batches;
}

void write_batches(const std::string& path, const Batches& batches,
                   Tracer& tracer, std::int64_t parent) {
  std::ofstream os(path);
  for (const auto& b : batches) {
    Scope s(tracer, "io.write", parent);
    io::write_fastq(os, std::span<const seq::Read>(b));
  }
  os.flush();
  if (!os) throw Error(ErrorKind::kIo, "", "cannot write " + path);
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int cmd_trace(const Args& args) {
  const std::string workload = args.str("workload");
  const bool reptile = workload == "reptile_file";
  const bool daemon = workload == "sap_daemon";
  if (!reptile && !daemon && workload != "sap_spill") {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  const std::string in = args.str("in");
  // The daemon composition corrects in the service's batch size on
  // ngs-correctd's default worker count (2); the file compositions use
  // ngs-correct's defaults (4096-read batches, every core).
  const std::size_t batch_size =
      daemon ? static_cast<std::size_t>(args.num("batch")) : 4096;
  const std::size_t workers = daemon ? 2 : hardware_threads();

  core::CorrectorConfig config;
  config.genome_length = static_cast<std::uint64_t>(args.num("genome-length", 1000000));
  auto corrector = core::make_corrector(reptile ? "reptile" : "sap", config);

  Tracer tracer(true);
  std::uint64_t parse_bytes = 0;
  std::uint64_t distinct = 0;
  std::uint64_t shards = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t peak_tracked = 0;
  core::CorrectionReport report;
  std::vector<double> batch_ms;
  Batches corrected;
  const auto t0 = Clock::now();
  {
    Scope root(tracer, "trace.run");
    if (reptile) {
      const auto batches = parse_batches(in, batch_size, tracer, root.id(), parse_bytes);
      seq::ReadSet all;
      for (const auto& b : batches) all.reads.insert(all.reads.end(), b.begin(), b.end());
      {
        Scope s(tracer, "reptile.build", root.id());
        corrector->build(all);
      }
      Scope pass2(tracer, "trace.pass2", root.id());
      correct_batches(*corrector, batches, corrected, workers, tracer,
                      "reptile.correct", pass2.id(), report, batch_ms);
    } else {
      util::ThreadPool pool(hardware_threads());
      kspec::SpillOptions spill;
      spill.memory_budget_bytes =
          static_cast<std::size_t>(args.num("memory-budget-mb", 0)) << 20;
      if (spill.memory_budget_bytes > 0) spill.spill_dir = args.str("spill-dir");
      kspec::ChunkedSpectrumBuilder builder(
          corrector->spectrum_k(), corrector->spectrum_both_strands(), 1 << 20,
          &pool, spill);
      core::InputSummary input;
      {
        io::FastqStreamReader reader(in);
        std::vector<seq::Read> batch;
        for (;;) {
          batch.clear();
          std::size_t n = 0;
          {
            Scope s(tracer, "io.parse", root.id());
            n = reader.read_batch(batch, 4096);
          }
          if (n == 0) break;
          Scope s(tracer, "kspec.ingest", root.id());
          builder.add_read_batch(batch);
          for (const auto& r : batch) input.add(r);
        }
        parse_bytes += reader.bytes_consumed();
      }
      index::IndexBuildInfo build;
      build.k = corrector->spectrum_k();
      build.both_strands = corrector->spectrum_both_strands();
      build.input_reads = input.reads;
      build.input_bases = input.bases;
      build.max_read_length = static_cast<std::uint32_t>(input.max_read_length);
      const char* correct_span = "baselines.correct";
      std::optional<index::SpectrumIndex> index;
      if (workload == "sap_spill") {
        const std::string path = args.str("spill-dir") + "/traced_spectrum.ngsx";
        {
          Scope s(tracer, "kspec.finish", root.id());
          builder.flush_spill();
          if (!builder.spilled() || builder.spill_nonempty_bins() < 2) {
            throw Error(ErrorKind::kConfig, "",
                        "sap_spill: the budget did not spill into more "
                        "than one bin");
          }
          index::ShardedIndexWriter writer(path, build,
                                           builder.spill_shard_bits(),
                                           builder.spill_nonempty_bins());
          builder.finish_spilled(
              [&](kspec::ChunkedSpectrumBuilder::SortedRun&& run) {
                distinct += run.codes.size();
                Scope w(tracer, "index.write", s.id());
                writer.append_shard(run.prefix, std::move(run.codes),
                                    std::move(run.counts));
              });
          Scope w(tracer, "index.write", s.id());
          writer.finish();
        }
        {
          Scope s(tracer, "index.load", root.id());
          index.emplace(index::SpectrumIndex::load(path));
        }
        shards = index->info().shard_count;
        Scope s(tracer, "baselines.build", root.id());
        corrector->build_from_spectrum(index->share_spectrum(), input);
        correct_span = "baselines.sharded_correct";
      } else {
        std::optional<kspec::KSpectrum> spectrum;
        {
          Scope s(tracer, "kspec.finish", root.id());
          spectrum.emplace(builder.finish());
        }
        distinct = spectrum->size();
        // The daemon serves an index written by ngs-index; compose the
        // same write and mmap load, and correct from the loaded view.
        const std::string path = args.str("index-out");
        {
          Scope s(tracer, "index.write", root.id());
          index::write_spectrum_index(path, *spectrum, build);
        }
        spectrum.reset();
        {
          Scope s(tracer, "index.load", root.id());
          index.emplace(index::SpectrumIndex::load(path));
        }
        spectrum.emplace(index->share_spectrum());
        Scope s(tracer, "baselines.build", root.id());
        corrector->build_from_spectrum(std::move(*spectrum), input);
      }
      spill_bytes = builder.spill_bytes();
      peak_tracked = builder.peak_tracked_bytes();
      const auto batches = parse_batches(in, batch_size, tracer, root.id(), parse_bytes);
      Scope pass2(tracer, "trace.pass2", root.id());
      correct_batches(*corrector, batches, corrected, workers, tracer,
                      correct_span, pass2.id(), report, batch_ms);
    }
    write_batches(args.str("out"), corrected, tracer, root.id());
  }
  const double wall = ms_since(t0) / 1e3;
  corrector->annotate_report(report);
  tracer.write(args.str("spans"));
  std::cout << std::setprecision(17) << "{\"wall_s\": " << wall
            << ", \"reads\": " << report.reads
            << ", \"parse_bytes\": " << parse_bytes
            << ", \"distinct_kmers\": " << distinct
            << ", \"spill_bytes\": " << spill_bytes
            << ", \"peak_tracked_bytes\": " << peak_tracked
            << ", \"shards\": " << shards
            << ", \"tile_cache_hits\": " << report.extra("tile_cache_hits")
            << ", \"tile_cache_misses\": " << report.extra("tile_cache_misses")
            << ", \"tile_cache_evictions\": "
            << report.extra("tile_cache_evictions")
            << ", \"correct_batch_ms_p50\": " << median_of(batch_ms) << "}\n";
  return 0;
}

// --- ready -------------------------------------------------------------

service::HelloRequest sap_hello(const Args& args) {
  service::HelloRequest hello;
  hello.method = "sap";
  hello.genome_length = static_cast<std::uint64_t>(args.num("genome-length", 1000000));
  return hello;
}

int cmd_ready(const Args& args) {
  constexpr double kTimeoutMs = 60e3;
  const auto t0 = Clock::now();
  service::Client client(args.str("socket"));
  std::cout << "polling" << std::endl;
  for (;;) {
    try {
      client.connect();
      break;
    } catch (const Error&) {
      if (ms_since(t0) > kTimeoutMs) throw;
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  client.hello(sap_hello(args));
  std::cout << std::setprecision(17) << "{\"hello_ok_monotonic_s\": "
            << monotonic_seconds() << "}\n";
  return 0;
}

// --- loadgen -----------------------------------------------------------

/// What one connection measured over one pass.
struct ConnResult {
  std::vector<double> rtt_ms, encode_ms, decode_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t busy = 0;
  Clock::time_point first_send{}, last_reply{};
  std::string error;
};

struct LoadInput {
  std::vector<seq::Read> reads;
  std::vector<seq::Read> reference;
  std::size_t batch = 512;
  std::size_t batches() const { return (reads.size() + batch - 1) / batch; }
  std::span<const seq::Read> slice(const std::vector<seq::Read>& v,
                                   std::size_t b) const {
    const std::size_t lo = b * batch;
    return {v.data() + lo, std::min(v.size(), lo + batch) - lo};
  }
};

bool same_reads(std::span<const seq::Read> a, const std::vector<seq::Read>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].bases != b[i].bases ||
        a[i].quality != b[i].quality) {
      return false;
    }
  }
  return true;
}

/// One closed-loop pass of one connection over batches b ≡ conn (mod
/// conns): up to `window` REQs in flight, BUSY-shed batches resent under
/// a fresh seq after a doubling backoff, each RTT timed from the batch's
/// first encode to its RESP.
void run_pass(service::Client& client, std::uint64_t& next_seq,
              const LoadInput& input, std::size_t conn, std::size_t conns,
              std::size_t window, std::size_t busy_limit, Tracer& tracer,
              Batches* keep, ConnResult& res) {
  struct Pending {
    std::size_t batch;
    std::uint64_t seq;
    Clock::time_point first;
    std::size_t busy;
    double encode_ms;
  };
  struct Retry {
    std::size_t batch;
    Clock::time_point first;
    std::size_t busy;
    Clock::time_point ready;
  };
  Scope root(tracer, "trace.conn");
  std::deque<Pending> inflight;
  std::deque<Retry> retries;
  std::size_t next_batch = conn;
  const std::size_t total = input.batches();
  bool started = false;
  const auto send = [&](std::size_t b, Clock::time_point first, std::size_t busy) {
    const auto t0 = Clock::now();
    if (!started) {
      res.first_send = t0;
      started = true;
    }
    if (busy == 0) first = t0;
    service::ReadBatch req;
    req.seq = next_seq++;
    const auto reads = input.slice(input.reads, b);
    req.reads.assign(reads.begin(), reads.end());
    std::vector<std::uint8_t> payload;
    const auto te = Clock::now();
    {
      Scope s(tracer, "service.encode", root.id());
      service::encode_request(req, payload);
    }
    const double enc = ms_since(te);
    {
      Scope s(tracer, "service.send", root.id());
      client.send_frame(service::FrameType::kRequest, payload);
    }
    inflight.push_back({b, req.seq, first, busy, enc});
    if (busy == 0) ++res.attempted;
  };
  while (next_batch < total || !inflight.empty() || !retries.empty()) {
    while (inflight.size() < window) {
      if (!retries.empty() && retries.front().ready <= Clock::now()) {
        const Retry r = retries.front();
        retries.pop_front();
        send(r.batch, r.first, r.busy);
      } else if (next_batch < total) {
        send(next_batch, {}, 0);
        next_batch += conns;
      } else {
        break;
      }
    }
    if (inflight.empty()) {
      if (!retries.empty()) std::this_thread::sleep_until(retries.front().ready);
      continue;
    }
    service::Frame frame;
    {
      Scope s(tracer, "service.wait", root.id());
      frame = client.read_reply();
    }
    const Pending p = inflight.front();
    inflight.pop_front();
    if (frame.type == service::FrameType::kResponse) {
      const auto td = Clock::now();
      service::ResponseBatch resp;
      {
        Scope s(tracer, "service.decode", root.id());
        resp = service::decode_response(frame.payload.data(), frame.payload.size());
      }
      const double dec = ms_since(td);
      res.last_reply = Clock::now();
      const double rtt = std::chrono::duration<double, std::milli>(
                             res.last_reply - p.first).count();
      if (resp.seq != p.seq ||
          !same_reads(input.slice(input.reference, p.batch), resp.reads)) {
        ++res.wrong;
        ++res.failed;
        continue;
      }
      res.rtt_ms.push_back(rtt);
      res.encode_ms.push_back(p.encode_ms);
      res.decode_ms.push_back(dec);
      if (keep) (*keep)[p.batch] = std::move(resp.reads);
    } else if (frame.type == service::FrameType::kBusy) {
      ++res.busy;
      if (p.busy + 1 > busy_limit) {
        ++res.failed;
        continue;
      }
      const auto backoff = std::chrono::milliseconds(
          std::min<std::size_t>(100, std::size_t{2} << std::min<std::size_t>(p.busy, 6)));
      retries.push_back({p.batch, p.first, p.busy + 1, Clock::now() + backoff});
    } else {
      res.last_reply = Clock::now();
      ++res.failed;
    }
  }
}

int cmd_loadgen(const Args& args) {
  LoadInput input;
  input.reads = io::read_fastq_file(args.str("reads")).reads;
  input.reference = io::read_fastq_file(args.str("reference")).reads;
  input.batch = static_cast<std::size_t>(args.num("batch"));
  if (input.reference.size() != input.reads.size() || input.reads.empty()) {
    throw std::invalid_argument("loadgen: reference and reads differ in size");
  }
  const auto conns = static_cast<std::size_t>(args.num("connections"));
  const auto window_arg = static_cast<std::size_t>(args.num("window"));
  // ngs-correct-client's default: BUSY resends tolerated per batch.
  constexpr std::size_t busy_limit = 64;
  const double seconds = args.real("seconds", 10.0);
  const auto min_samples = static_cast<std::size_t>(args.num("min-samples"));
  const std::size_t min_passes = 3;
  // --traced-seconds > 0 appends traced passes after the untraced ones.
  const double traced_seconds = args.real("traced-seconds", 0.0);

  std::vector<service::Client> clients;
  std::vector<std::uint64_t> seqs(conns, 0);
  std::size_t window = window_arg;
  for (std::size_t c = 0; c < conns; ++c) {
    clients.emplace_back(args.str("socket"));
    clients.back().connect();
    const auto ok = clients.back().hello(sap_hello(args));
    if (ok.max_inflight > 0) window = std::min<std::size_t>(window, ok.max_inflight);
  }

  Tracer off(false);
  Tracer on(true);
  ConnResult total, traced_total;
  std::vector<double> pass_wall, traced_pass_wall;
  Batches served(input.batches());
  const auto run_phase = [&](Tracer& tracer, double budget, ConnResult& sum,
                             std::vector<double>& walls, bool sample_floor) {
    const auto start = Clock::now();
    for (std::size_t pass = 0;; ++pass) {
      const double elapsed = ms_since(start) / 1e3;
      const bool floor_met = !sample_floor || sum.rtt_ms.size() >= min_samples;
      if (pass >= min_passes && elapsed >= budget && floor_met) break;
      std::vector<ConnResult> per(conns);
      std::vector<std::thread> threads;
      const bool keep = &tracer == &off && pass == 0;
      for (std::size_t c = 0; c < conns; ++c) {
        threads.emplace_back([&, c] {
          try {
            run_pass(clients[c], seqs[c], input, c, conns, window, busy_limit,
                     tracer, keep ? &served : nullptr, per[c]);
          } catch (const std::exception& e) {
            per[c].error = e.what();
          }
        });
      }
      for (auto& t : threads) t.join();
      std::optional<Clock::time_point> first, last;
      for (const auto& r : per) {
        if (!r.error.empty()) throw Error(ErrorKind::kIo, "", "loadgen: " + r.error);
        if (r.attempted == 0) continue;
        first = first ? std::min(*first, r.first_send) : r.first_send;
        last = last ? std::max(*last, r.last_reply) : r.last_reply;
        sum.rtt_ms.insert(sum.rtt_ms.end(), r.rtt_ms.begin(), r.rtt_ms.end());
        sum.encode_ms.insert(sum.encode_ms.end(), r.encode_ms.begin(), r.encode_ms.end());
        sum.decode_ms.insert(sum.decode_ms.end(), r.decode_ms.begin(), r.decode_ms.end());
        sum.attempted += r.attempted;
        sum.failed += r.failed;
        sum.wrong += r.wrong;
        sum.busy += r.busy;
      }
      walls.push_back(std::chrono::duration<double>(*last - *first).count());
    }
  };
  run_phase(off, seconds, total, pass_wall, true);
  if (traced_seconds > 0.0) run_phase(on, traced_seconds, traced_total, traced_pass_wall, false);
  const std::string stats = clients[0].stats();
  for (auto& c : clients) c.close();

  {
    std::ofstream os(args.str("out"));
    for (const auto& b : served) io::write_fastq(os, std::span<const seq::Read>(b));
    if (!os) throw Error(ErrorKind::kIo, "", "cannot write served output");
  }
  if (traced_seconds > 0.0) on.write(args.str("spans"));

  std::ostringstream os;
  os << std::setprecision(17) << "{";
  print_list(os, "pass_wall_s", pass_wall);
  os << ", ";
  print_list(os, "rtt_ms", total.rtt_ms);
  os << ", ";
  print_list(os, "traced_pass_wall_s", traced_pass_wall);
  os << ", ";
  print_list(os, "traced_rtt_ms", traced_total.rtt_ms);
  os << ", ";
  print_list(os, "traced_encode_ms", traced_total.encode_ms);
  os << ", ";
  print_list(os, "traced_decode_ms", traced_total.decode_ms);
  os << ", \"connections\": " << conns << ", \"window\": " << window
     << ", \"attempted\": " << total.attempted + traced_total.attempted
     << ", \"failed\": " << total.failed + traced_total.failed
     << ", \"wrong_bytes\": " << total.wrong + traced_total.wrong
     << ", \"busy_resends\": " << total.busy + traced_total.busy
     << ", \"stats\": {";
  std::istringstream lines(stats);
  std::string line;
  bool first = true;
  while (std::getline(lines, line)) {
    const auto eq = line.find('=');
    if (eq == std::string::npos) continue;
    os << (first ? "" : ", ") << "\"" << line.substr(0, eq)
       << "\": " << std::stoull(line.substr(eq + 1));
    first = false;
  }
  os << "}}\n";
  std::cout << os.str();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: ngs_perfbench <info|gain|trace|ready|loadgen> "
                 "[--key value ...]\n";
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv, 2);
    if (cmd == "info") return cmd_info();
    if (cmd == "gain") return cmd_gain(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "ready") return cmd_ready(args);
    if (cmd == "loadgen") return cmd_loadgen(args);
    std::cerr << "ngs_perfbench: unknown command '" << cmd << "'\n";
    return 2;
  } catch (const std::invalid_argument& e) {
    std::cerr << "ngs_perfbench " << cmd << ": " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "ngs_perfbench " << cmd << ": " << e.what() << "\n";
    return 1;
  }
}
