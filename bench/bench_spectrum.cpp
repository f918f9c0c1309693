// Spectrum construction + lookup microbench. Builds the Table 2.1
// D3-scale simulated dataset, times the serial seed path against the
// radix-partitioned parallel build at several thread counts (verifying
// byte-identical spectra), and times index_of with and without the
// prefix-bucket index. Emits BENCH_spectrum.json (path overridable via
// NGS_BENCH_JSON) so the perf trajectory of the k-spectrum stack is
// recorded run over run.

#include "bench_common.hpp"

#include <algorithm>
#include <fstream>
#include <thread>
#include <vector>

#include <cstdio>

#include "index/spectrum_index.hpp"
#include "kspec/chunked_builder.hpp"
#include "kspec/kspectrum.hpp"
#include "util/memory.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace ngs;

namespace {

bool identical(const kspec::KSpectrum& a, const kspec::KSpectrum& b) {
  return a.size() == b.size() && a.total_instances() == b.total_instances() &&
         std::equal(a.codes().begin(), a.codes().end(), b.codes().begin(),
                    b.codes().end()) &&
         std::equal(a.counts().begin(), a.counts().end(), b.counts().begin(),
                    b.counts().end());
}

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

}  // namespace

int main() {
  const double scale = bench::scale_or(1.0);
  const int k = 13;
  constexpr int kRepeats = 3;
  bench::print_header(
      "Spectrum build + lookup microbench (Table 2.1 D3-scale)",
      "Radix-partitioned parallel build vs the serial seed path; "
      "prefix-indexed vs full-range binary-search lookups.");

  const auto specs = sim::chapter2_specs(scale);
  const auto& d3_spec = specs.at(2);  // D3
  const auto d3 = sim::make_dataset(d3_spec, 42);
  const auto& reads = d3.sim.reads;
  std::cout << "dataset=" << d3_spec.name << " (" << d3_spec.genome_label
            << "), reads=" << reads.size() << ", bases=" << reads.total_bases()
            << ", k=" << k << ", hardware_threads="
            << std::thread::hardware_concurrency() << "\n\n";

  // --- Build: serial seed path vs parallel radix path. ---
  kspec::SpectrumBuildOptions serial;
  serial.threads = 1;
  kspec::KSpectrum reference;
  const double serial_s = best_seconds(
      kRepeats, [&] { reference = kspec::KSpectrum::build(reads, k, true, serial); });

  struct BuildRow {
    std::size_t threads;
    double seconds;
    bool identical;
  };
  std::vector<BuildRow> builds;
  util::Table build_table({"Threads", "Build (s)", "Speedup", "Identical"});
  build_table.add_row({"serial (seed)", util::Table::fixed(serial_s, 4),
                       "1.00x", "-"});
  for (const std::size_t threads : {1ul, 2ul, 4ul, 8ul}) {
    util::ThreadPool pool(threads);
    kspec::SpectrumBuildOptions opts;
    opts.pool = &pool;
    kspec::KSpectrum spec;
    const double s = best_seconds(
        kRepeats, [&] { spec = kspec::KSpectrum::build(reads, k, true, opts); });
    const bool same = identical(spec, reference);
    builds.push_back({threads, s, same});
    build_table.add_row({std::to_string(threads), util::Table::fixed(s, 4),
                         util::Table::fixed(serial_s / s, 2) + "x",
                         same ? "yes" : "NO"});
  }
  build_table.print(std::cout);
  std::cout << "\n";

  // --- Streamed (chunked) build, as pipeline pass 1 sees it. ---
  double chunked_s = 0.0;
  {
    util::ThreadPool pool(0);
    chunked_s = best_seconds(kRepeats, [&] {
      kspec::ChunkedSpectrumBuilder builder(k, true, 1 << 20, &pool);
      builder.add_reads(reads);
      const auto spec = builder.finish();
      if (!identical(spec, reference)) std::abort();
    });
    std::cout << "chunked streamed build (default pool): "
              << util::Table::fixed(chunked_s, 4) << " s\n\n";
  }

  // --- Budget-constrained (out-of-core) build: the spill path of the
  // sharded index stack, same bytes out, bounded tracked memory. ---
  double spilled_s = 0.0;
  std::uint64_t spill_bytes = 0;
  std::size_t spill_bins = 0;
  std::size_t spill_peak_tracked = 0;
  std::size_t spill_budget = 0;
  {
    kspec::SpillOptions spill;
    // Far below the ~16 bytes/instance the in-memory multiset needs, so
    // the build genuinely goes out of core.
    spill.memory_budget_bytes = std::max<std::size_t>(
        std::size_t{1} << 20, static_cast<std::size_t>(reads.total_bases()));
    spill_budget = spill.memory_budget_bytes;
    spilled_s = best_seconds(kRepeats, [&] {
      kspec::ChunkedSpectrumBuilder builder(k, true, 1 << 20, nullptr, spill);
      builder.add_reads(reads);
      builder.flush_spill();
      spill_bins = builder.spill_nonempty_bins();
      const auto spec = builder.finish();
      spill_bytes = builder.spill_bytes();
      spill_peak_tracked = builder.peak_tracked_bytes();
      if (!identical(spec, reference)) std::abort();
    });
    std::cout << "budgeted spill build (budget "
              << spill_budget / (1024.0 * 1024.0) << " MiB): "
              << util::Table::fixed(spilled_s, 4) << " s, " << spill_bins
              << " bins, " << spill_bytes << " spill bytes, peak tracked "
              << spill_peak_tracked << " bytes\n\n";
  }

  // --- Lookup: prefix index on/off over a hit/miss query mix. ---
  util::Rng rng(1234);
  const seq::KmerCode mask = (seq::KmerCode{1} << (2 * k)) - 1;
  std::vector<seq::KmerCode> queries;
  queries.reserve(1 << 20);
  for (std::size_t i = 0; i < (1u << 19); ++i) {
    queries.push_back(reference.code_at(rng.below(reference.size())));
    queries.push_back(rng() & mask);
  }
  auto run_lookups = [&]() -> std::uint64_t {
    std::uint64_t hits = 0;
    for (const auto q : queries) hits += reference.index_of(q) >= 0;
    return hits;
  };

  reference.rebuild_prefix_index(0);  // plain full-range binary search
  volatile std::uint64_t sink = 0;
  const double plain_s = best_seconds(kRepeats, [&] { sink = sink + run_lookups(); });
  reference.rebuild_prefix_index(-1);  // auto width
  const int prefix_bits = reference.prefix_index_bits();
  const double prefix_s = best_seconds(kRepeats, [&] { sink = sink + run_lookups(); });
  const double plain_ns = 1e9 * plain_s / static_cast<double>(queries.size());
  const double prefix_ns = 1e9 * prefix_s / static_cast<double>(queries.size());

  util::Table lookup_table({"index_of path", "ns/lookup", "Speedup"});
  lookup_table.add_row({"full-range lower_bound",
                        util::Table::fixed(plain_ns, 1), "1.00x"});
  lookup_table.add_row({"prefix index (p=" + std::to_string(prefix_bits) + ")",
                        util::Table::fixed(prefix_ns, 1),
                        util::Table::fixed(plain_ns / prefix_ns, 2) + "x"});
  lookup_table.print(std::cout);
  std::cout << "\n";

  // --- Batched (interleaved, software-prefetched) probes vs one-at-a-
  // time index_of, on the in-memory spectrum and on an mmap-loaded
  // index view, in pass-2-sized batches. ---
  constexpr std::size_t kBatch = 64;
  auto time_lookups = [&](const kspec::KSpectrum& spec, bool batched) {
    std::vector<std::int64_t> idx(kBatch);
    std::uint64_t found = 0;
    const double s = best_seconds(kRepeats, [&] {
      for (std::size_t base = 0; base + kBatch <= queries.size();
           base += kBatch) {
        if (batched) {
          spec.index_of_batch({queries.data() + base, kBatch},
                              {idx.data(), kBatch});
          for (std::size_t i = 0; i < kBatch; ++i) found += idx[i] >= 0;
        } else {
          for (std::size_t i = 0; i < kBatch; ++i) {
            found += spec.index_of(queries[base + i]) >= 0;
          }
        }
      }
    });
    sink = sink + found;
    return 1e9 * s / static_cast<double>(queries.size());
  };
  const double single_mem_ns = time_lookups(reference, false);
  const double batched_mem_ns = time_lookups(reference, true);

  const std::string index_path = "/tmp/bench_spectrum_probe.ngsidx";
  index::IndexBuildInfo build_info;
  build_info.k = k;
  build_info.both_strands = true;
  build_info.input_reads = reads.size();
  build_info.input_bases = reads.total_bases();
  index::write_spectrum_index(index_path, reference, build_info);
  double single_mmap_ns = 0.0, batched_mmap_ns = 0.0;
  {
    const auto loaded = index::SpectrumIndex::load(index_path);
    single_mmap_ns = time_lookups(loaded.spectrum(), false);
    batched_mmap_ns = time_lookups(loaded.spectrum(), true);
  }
  std::remove(index_path.c_str());

  util::Table batch_table({"Spectrum", "Probe path", "ns/lookup", "Speedup"});
  batch_table.add_row({"in-memory", "single index_of",
                       util::Table::fixed(single_mem_ns, 1), "1.00x"});
  batch_table.add_row(
      {"in-memory", "batched+prefetch", util::Table::fixed(batched_mem_ns, 1),
       util::Table::fixed(single_mem_ns / batched_mem_ns, 2) + "x"});
  batch_table.add_row({"mmap-loaded", "single index_of",
                       util::Table::fixed(single_mmap_ns, 1), "1.00x"});
  batch_table.add_row(
      {"mmap-loaded", "batched+prefetch",
       util::Table::fixed(batched_mmap_ns, 1),
       util::Table::fixed(single_mmap_ns / batched_mmap_ns, 2) + "x"});
  batch_table.print(std::cout);
  std::cout << "\nspectrum: " << reference.size() << " distinct kmers, "
            << reference.total_instances() << " instances, prefix table "
            << reference.prefix_index_bytes() << " bytes, peak rss "
            << bench::mem_gb() << " GiB\n";

  // --- JSON record. ---
  const char* json_path = std::getenv("NGS_BENCH_JSON");
  std::ofstream json(json_path != nullptr ? json_path : "BENCH_spectrum.json");
  json << "{\n"
       << "  \"bench\": \"spectrum\",\n"
       << "  \"dataset\": \"" << d3_spec.name << "\",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"k\": " << k << ",\n"
       << "  \"reads\": " << reads.size() << ",\n"
       << "  \"bases\": " << reads.total_bases() << ",\n"
       << "  \"distinct_kmers\": " << reference.size() << ",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"serial_build_s\": " << serial_s << ",\n"
       << "  \"chunked_build_s\": " << chunked_s << ",\n"
       << "  \"spilled_build\": {\"seconds\": " << spilled_s
       << ", \"budget_bytes\": " << spill_budget
       << ", \"spill_bytes\": " << spill_bytes
       << ", \"bins\": " << spill_bins
       << ", \"peak_tracked_bytes\": " << spill_peak_tracked << "},\n"
       << "  \"peak_rss_bytes\": " << util::peak_rss_bytes() << ",\n"
       << "  \"parallel_builds\": [\n";
  for (std::size_t i = 0; i < builds.size(); ++i) {
    json << "    {\"threads\": " << builds[i].threads
         << ", \"seconds\": " << builds[i].seconds
         << ", \"speedup_vs_serial\": " << serial_s / builds[i].seconds
         << ", \"byte_identical\": " << (builds[i].identical ? "true" : "false")
         << "}" << (i + 1 < builds.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"lookup\": {\"queries\": " << queries.size()
       << ", \"plain_ns\": " << plain_ns << ", \"prefix_ns\": " << prefix_ns
       << ", \"prefix_bits\": " << prefix_bits
       << ", \"speedup\": " << plain_ns / prefix_ns << "},\n"
       << "  \"batched_lookup\": {\"batch\": " << kBatch
       << ", \"in_memory\": {\"single_ns\": " << single_mem_ns
       << ", \"batched_ns\": " << batched_mem_ns
       << ", \"speedup\": " << single_mem_ns / batched_mem_ns << "}"
       << ", \"mmap\": {\"single_ns\": " << single_mmap_ns
       << ", \"batched_ns\": " << batched_mmap_ns
       << ", \"speedup\": " << single_mmap_ns / batched_mmap_ns << "}}\n"
       << "}\n";
  std::cout << "wrote " << (json_path != nullptr ? json_path : "BENCH_spectrum.json")
            << "\n";
  return 0;
}
