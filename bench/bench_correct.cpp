// Reptile on the Table 2.1 D3 workload. Phase 1: the tile table,
// k-spectrum and Hamming graph built on a 1-thread pool and on a pool of
// every hardware thread, checked identical. Phase 2: pass-2 correction
// throughput with the shared tile-decision cache on and off, at 1/2/4/8
// worker threads, verifying that every configuration produces output
// byte-identical to the uncached single-thread reference. Every speedup
// is against a baseline measured in the same process: phase-1 rows
// against the 1-thread pool, pass-2 rows against the uncached 1-thread
// run, file-to-file rows against the 1-thread file-to-file run. Emits
// BENCH_correct.json (path overridable via NGS_BENCH_JSON) with the
// hardware block of the machine it ran on.
// Rows running more workers than the machine has hardware threads are
// flagged oversubscribed — their scaling numbers measure scheduling,
// not the corrector.

#include "bench_common.hpp"

#include <unistd.h>

#include <filesystem>
#include <optional>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "core/registry.hpp"
#include "io/fastx.hpp"
#include "kspec/hamming_graph.hpp"
#include "kspec/kspectrum.hpp"
#include "kspec/tile_table.hpp"
#include "reptile/corrector.hpp"
#include "reptile/params.hpp"
#include "util/thread_pool.hpp"

using namespace ngs;

namespace {

/// Best-of-n wall time of fn().
template <typename F>
double best_seconds(int n, F&& fn) {
  double best = 1e30;
  for (int i = 0; i < n; ++i) {
    util::Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

bool identical(const std::vector<seq::Read>& a,
               const std::vector<seq::Read>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].bases != b[i].bases) return false;
  }
  return true;
}

/// One pass-2 run: every read corrected on `pool` with per-block scratch
/// and the supplied (possibly null) shared cache.
std::vector<seq::Read> run_pass2(const reptile::ReptileCorrector& corrector,
                                 const seq::ReadSet& reads,
                                 util::ThreadPool& pool,
                                 reptile::TileDecisionCache* cache) {
  std::vector<seq::Read> out(reads.size());
  pool.parallel_for_blocked(
      0, reads.size(), [&](std::size_t lo, std::size_t hi) {
        reptile::CorrectionStats stats;
        reptile::ReptileCorrector::Scratch scratch;
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = corrector.correct(reads.reads[i], stats, scratch, cache);
        }
      });
  return out;
}

/// Reptile's phase-1 structures built on one pool, each best-of-n timed.
struct Phase1 {
  double tiles_s = 0.0;
  double spectrum_s = 0.0;
  double graph_s = 0.0;
  kspec::TileTable tiles;
  kspec::KSpectrum spectrum;
  std::optional<kspec::HammingGraph> graph;

  double total_s() const { return tiles_s + spectrum_s + graph_s; }
};

Phase1 build_phase1(const seq::ReadSet& reads,
                    const reptile::ReptileParams& params,
                    util::ThreadPool& pool, int repeats) {
  Phase1 p;
  kspec::TileParams tp;
  tp.k = params.k;
  tp.overlap = params.overlap;
  tp.quality_cutoff = params.quality_cutoff;
  p.tiles_s = best_seconds(
      repeats, [&] { p.tiles = kspec::TileTable::build(reads, tp, &pool); });
  kspec::SpectrumBuildOptions options;
  options.pool = &pool;
  p.spectrum_s = best_seconds(repeats, [&] {
    p.spectrum = kspec::KSpectrum::build(reads, params.k, true, options);
  });
  p.graph_s = best_seconds(repeats, [&] {
    p.graph.reset();
    p.graph.emplace(p.spectrum, params.d, 0, &pool);
  });
  return p;
}

bool identical(const Phase1& a, const Phase1& b) {
  if (a.tiles.size() != b.tiles.size() ||
      a.spectrum.size() != b.spectrum.size() ||
      a.graph->num_edges() != b.graph->num_edges()) {
    return false;
  }
  for (std::size_t i = 0; i < a.tiles.size(); ++i) {
    if (a.tiles.code_at(i) != b.tiles.code_at(i) ||
        a.tiles.counts_at(i).oc != b.tiles.counts_at(i).oc ||
        a.tiles.counts_at(i).og != b.tiles.counts_at(i).og) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.spectrum.size(); ++i) {
    const auto na = a.graph->neighbors(i);
    const auto nb = b.graph->neighbors(i);
    if (a.spectrum.code_at(i) != b.spectrum.code_at(i) ||
        a.spectrum.count_at(i) != b.spectrum.count_at(i) ||
        !std::equal(na.begin(), na.end(), nb.begin(), nb.end())) {
      return false;
    }
  }
  return true;
}

struct Row {
  std::size_t threads = 0;
  bool cached = false;
  bool oversubscribed = false;
  double seconds = 0.0;
  double reads_per_sec = 0.0;
  double hit_rate = 0.0;
  bool identical = false;
};

/// One file-to-file run of the whole pipeline (both passes + I/O).
struct E2eRow {
  std::size_t threads = 0;
  bool oversubscribed = false;
  double seconds = 0.0;
  double reads_per_sec = 0.0;
  bool identical = false;
  core::OverlapStageStats pass1;
  core::OverlapStageStats pass2;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

double util_pct(const core::OverlapStageStats& s) {
  if (s.workers == 0 || s.elapsed_seconds <= 0.0) return 0.0;
  const double denom =
      static_cast<double>(s.workers) * s.elapsed_seconds;
  return 100.0 * (1.0 - std::min(1.0, s.worker_stall_seconds / denom));
}

}  // namespace

int main() {
  const double scale = bench::scale_or(1.0);
  constexpr int kRepeats = 2;
  bench::print_header(
      "Reptile phase 1 and pass-2 correction throughput (Table 2.1 "
      "D3-scale)",
      "Phase-1 tables on 1 thread vs every core, checked identical; tile "
      "correction with the shared tile-decision cache on/off, outputs "
      "checked byte-identical to the uncached 1-thread reference.");

  const auto specs = sim::chapter2_specs(scale);
  const auto& d3_spec = specs.at(2);  // D3
  const auto d3 = sim::make_dataset(d3_spec, 42);
  const auto& reads = d3.sim.reads;

  const unsigned hw = std::thread::hardware_concurrency();
  const std::string hardware = bench::hardware_json();
  auto params = reptile::select_parameters(reads, d3_spec.genome.length);
  util::Timer build_timer;
  const reptile::ReptileCorrector corrector(reads, params);
  const double build_s = build_timer.seconds();
  std::cout << "dataset=" << d3_spec.name << " (" << d3_spec.genome_label
            << "), reads=" << reads.size() << ", bases=" << reads.total_bases()
            << ", k=" << params.k << ", tile=" << params.tile_length()
            << "bp, phase-1 build " << util::Table::fixed(build_s, 2)
            << "s\nhardware: " << hardware << "\n\n";

  // --- Phase 1 on a 1-thread pool (the baseline) and on every core.
  util::ThreadPool phase1_one(1);
  util::ThreadPool phase1_all(0);
  const Phase1 p1_one = build_phase1(reads, params, phase1_one, kRepeats);
  const Phase1 p1_all = build_phase1(reads, params, phase1_all, kRepeats);
  const bool phase1_identical = identical(p1_one, p1_all);
  util::Table phase1_table({"Structure", "1 thread (s)",
                            std::to_string(phase1_all.size()) + " threads (s)",
                            "Speedup"});
  const auto phase1_row = [&](const std::string& name, double one,
                              double all) {
    phase1_table.add_row({name, util::Table::fixed(one, 3),
                          util::Table::fixed(all, 3),
                          util::Table::fixed(one / all, 2) + "x"});
  };
  phase1_row("tile table", p1_one.tiles_s, p1_all.tiles_s);
  phase1_row("k-spectrum", p1_one.spectrum_s, p1_all.spectrum_s);
  phase1_row("Hamming graph", p1_one.graph_s, p1_all.graph_s);
  phase1_row("phase 1", p1_one.total_s(), p1_all.total_s());
  std::cout << "Reptile phase 1 (" << p1_all.tiles.size() << " tiles, "
            << p1_all.spectrum.size() << " kmers, "
            << p1_all.graph->num_edges() << " edges):\n";
  phase1_table.print(std::cout);
  std::cout << "tables " << (phase1_identical ? "identical" : "DIVERGED")
            << " across pool sizes\n\n";

  // Baseline: uncached, single worker, measured here.
  util::ThreadPool ref_pool(1);
  std::vector<seq::Read> reference;
  const double uncached_1t_s = best_seconds(kRepeats, [&] {
    reference = run_pass2(corrector, reads, ref_pool, nullptr);
  });

  const auto nreads = static_cast<double>(reads.size());
  std::vector<Row> rows;
  rows.push_back({1, false, hw != 0 && 1 > hw, uncached_1t_s,
                  nreads / uncached_1t_s, 0.0, true});

  util::Table table({"Threads", "Cache", "Pass 2 (s)", "Reads/s",
                     "Speedup vs uncached 1t", "Hit rate", "Identical"});
  table.add_row({"1", "off", util::Table::fixed(uncached_1t_s, 3),
                 util::Table::num(
                     static_cast<std::uint64_t>(nreads / uncached_1t_s)),
                 "1.00x", "-", "-"});

  for (const std::size_t threads : {1ul, 2ul, 4ul, 8ul}) {
    util::ThreadPool pool(threads);
    for (const bool cached : {false, true}) {
      if (!cached && threads == 1) continue;  // the baseline row above
      std::vector<seq::Read> out;
      double hit_rate = 0.0;
      const double s = best_seconds(kRepeats, [&] {
        // Fresh cache per repetition: timing must include the miss-and-
        // fill phase, not reuse a previous repetition's warm entries.
        if (cached) {
          reptile::TileDecisionCache cache(reptile::kDefaultTileCacheBytes);
          out = run_pass2(corrector, reads, pool, &cache);
          hit_rate = cache.stats().hit_rate();
        } else {
          out = run_pass2(corrector, reads, pool, nullptr);
        }
      });
      Row row;
      row.threads = threads;
      row.cached = cached;
      row.oversubscribed = hw != 0 && threads > hw;
      row.seconds = s;
      row.reads_per_sec = nreads / s;
      row.hit_rate = hit_rate;
      row.identical = identical(out, reference);
      rows.push_back(row);
      table.add_row(
          {std::to_string(threads) + (row.oversubscribed ? "*" : ""),
           cached ? "on" : "off", util::Table::fixed(s, 3),
           util::Table::num(static_cast<std::uint64_t>(row.reads_per_sec)),
           util::Table::fixed(uncached_1t_s / s, 2) + "x",
           cached ? util::Table::percent(hit_rate) : "-",
           row.identical ? "yes" : "NO"});
    }
  }
  table.print(std::cout);
  std::cout << "(* = more workers than the " << hw
            << " hardware thread(s): oversubscribed, scaling not "
               "meaningful)\n";

  double cached_1t_s = 0.0;
  bool all_identical = phase1_identical;
  for (const auto& r : rows) {
    if (r.threads == 1 && r.cached) cached_1t_s = r.seconds;
    all_identical = all_identical && r.identical;
  }
  std::cout << "\nsingle-thread cache speedup: "
            << util::Table::fixed(uncached_1t_s / cached_1t_s, 2)
            << "x, outputs " << (all_identical ? "all identical" : "DIVERGED")
            << ", peak rss " << bench::mem_gb() << " GiB\n";

  // --- End-to-end: file-to-file wall clock of the whole pipeline at
  // 1/2/4 workers. Method sap (streamed spectrum), so both the pass-1
  // read-ahead and the pass-2 reader/workers/writer executor are on the
  // measured path, I/O included. Every run's output file must be
  // byte-identical to the single-thread run.
  std::cout << "\nEnd-to-end (sap, file to file, I/O included):\n";
  const auto e2e_dir =
      std::filesystem::temp_directory_path() /
      ("bench_correct_e2e_" + std::to_string(::getpid()));
  std::filesystem::create_directories(e2e_dir);
  const std::string in_fastq = (e2e_dir / "reads.fastq").string();
  io::write_fastq_file(in_fastq, reads);

  core::CorrectorConfig e2e_config;
  e2e_config.genome_length = d3_spec.genome.length;
  std::string e2e_reference;
  double e2e_1t_s = 0.0;
  std::vector<E2eRow> e2e_rows;
  util::Table e2e_table({"Threads", "Wall (s)", "Reads/s", "Speedup vs 1t",
                         "P2 util", "Identical"});
  for (const std::size_t threads : {1ul, 2ul, 4ul}) {
    core::PipelineOptions popts;
    popts.threads = threads;
    const std::string out_fastq =
        (e2e_dir / ("out_" + std::to_string(threads) + ".fastq")).string();
    core::PipelineResult res;
    const double s = best_seconds(kRepeats, [&] {
      core::CorrectionPipeline pipeline(
          core::make_corrector("sap", e2e_config), popts);
      res = pipeline.run_file(in_fastq, out_fastq);
    });
    const std::string bytes = slurp(out_fastq);
    std::filesystem::remove(out_fastq);
    if (threads == 1) {
      e2e_reference = bytes;
      e2e_1t_s = s;
    }
    E2eRow row;
    row.threads = threads;
    row.oversubscribed = hw != 0 && threads > hw;
    row.seconds = s;
    row.reads_per_sec = nreads / s;
    row.identical = bytes == e2e_reference;
    row.pass1 = res.pass1_overlap;
    row.pass2 = res.pass2_overlap;
    all_identical = all_identical && row.identical;
    e2e_rows.push_back(row);
    e2e_table.add_row(
        {std::to_string(threads) + (row.oversubscribed ? "*" : ""),
         util::Table::fixed(s, 3),
         util::Table::num(static_cast<std::uint64_t>(row.reads_per_sec)),
         util::Table::fixed(e2e_1t_s / s, 2) + "x",
         util::Table::fixed(util_pct(row.pass2), 0) + "%",
         row.identical ? "yes" : "NO"});
  }
  std::filesystem::remove_all(e2e_dir);
  e2e_table.print(std::cout);
  std::cout << "(* = oversubscribed: more workers than the " << hw
            << " hardware thread(s))\n";

  // --- JSON record. ---
  const char* json_path = std::getenv("NGS_BENCH_JSON");
  const char* out_path =
      json_path != nullptr ? json_path : "BENCH_correct.json";
  std::ofstream json(out_path);
  json << "{\n"
       << "  \"bench\": \"correct\",\n"
       << "  \"method\": \"reptile\",\n"
       << "  \"dataset\": \"" << d3_spec.name << "\",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"reads\": " << reads.size() << ",\n"
       << "  \"bases\": " << reads.total_bases() << ",\n"
       << "  \"k\": " << params.k << ",\n"
       << "  \"tile_length\": " << params.tile_length() << ",\n"
       << "  \"hardware\": " << hardware << ",\n"
       << "  \"phase1_build_s\": " << build_s << ",\n"
       << "  \"phase1\": {\"threads\": " << phase1_all.size()
       << ", \"tile_table_1t_s\": " << p1_one.tiles_s
       << ", \"tile_table_s\": " << p1_all.tiles_s
       << ", \"spectrum_1t_s\": " << p1_one.spectrum_s
       << ", \"spectrum_s\": " << p1_all.spectrum_s
       << ", \"graph_1t_s\": " << p1_one.graph_s
       << ", \"graph_s\": " << p1_all.graph_s
       << ", \"total_1t_s\": " << p1_one.total_s()
       << ", \"total_s\": " << p1_all.total_s()
       << ", \"speedup_vs_1t\": " << p1_one.total_s() / p1_all.total_s()
       << ", \"identical\": " << (phase1_identical ? "true" : "false")
       << "},\n"
       << "  \"uncached_1t_s\": " << uncached_1t_s << ",\n"
       << "  \"cached_speedup_1t\": " << uncached_1t_s / cached_1t_s << ",\n"
       << "  \"all_outputs_identical\": " << (all_identical ? "true" : "false")
       << ",\n"
       << "  \"runs\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    json << "    {\"threads\": " << r.threads
         << ", \"cache\": " << (r.cached ? "true" : "false")
         << ", \"oversubscribed\": " << (r.oversubscribed ? "true" : "false")
         << ", \"seconds\": " << r.seconds
         << ", \"reads_per_sec\": " << r.reads_per_sec
         << ", \"speedup_vs_uncached_1t\": " << uncached_1t_s / r.seconds
         << ", \"hit_rate\": " << r.hit_rate
         << ", \"byte_identical\": " << (r.identical ? "true" : "false")
         << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"end_to_end\": {\n"
       << "    \"method\": \"sap\",\n"
       << "    \"includes_io\": true,\n"
       << "    \"wall_1t_s\": " << e2e_1t_s << ",\n"
       << "    \"runs\": [\n";
  for (std::size_t i = 0; i < e2e_rows.size(); ++i) {
    const auto& r = e2e_rows[i];
    json << "      {\"threads\": " << r.threads
         << ", \"oversubscribed\": " << (r.oversubscribed ? "true" : "false")
         << ", \"seconds\": " << r.seconds
         << ", \"reads_per_sec\": " << r.reads_per_sec
         << ", \"speedup_vs_1t\": " << e2e_1t_s / r.seconds
         << ", \"byte_identical\": " << (r.identical ? "true" : "false")
         << ", \"pass1_reader_stall_s\": " << r.pass1.reader_stall_seconds
         << ", \"pass1_ingest_stall_s\": " << r.pass1.writer_stall_seconds
         << ", \"pass2_reader_stall_s\": " << r.pass2.reader_stall_seconds
         << ", \"pass2_writer_stall_s\": " << r.pass2.writer_stall_seconds
         << ", \"pass2_queue_peak\": " << r.pass2.queue_peak
         << ", \"pass2_reorder_peak\": " << r.pass2.reorder_peak
         << ", \"pass2_worker_util_pct\": " << util_pct(r.pass2) << "}"
         << (i + 1 < e2e_rows.size() ? "," : "") << "\n";
  }
  json << "    ]\n"
       << "  }\n"
       << "}\n";
  std::cout << "wrote " << out_path << "\n";
  return all_identical ? 0 : 1;
}
