// Microbenchmarks for the filtering hot paths on the full-scale log
// (throughput of each stage and of the whole pipeline), and for the ingest
// paths in front of them: binary read/write, stream ingest, checksumming.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "coral/common/binary_frame.hpp"
#include "coral/common/parallel.hpp"
#include "coral/filter/columns.hpp"
#include "coral/filter/pipeline.hpp"
#include "coral/ras/binary_io.hpp"
#include "coral/stream/session.hpp"
#include "coral/synth/intrepid.hpp"

namespace {

using namespace coral;

const synth::SynthResult& data() {
  static const synth::SynthResult result = synth::generate(synth::intrepid_scenario(42));
  return result;
}

void BM_ExtractFatal(benchmark::State& state) {
  (void)data();  // build the log outside the timed region
  for (auto _ : state) {
    benchmark::DoNotOptimize(data().ras.fatal_events());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_ExtractFatal);

// The columnar kernels the pipeline actually runs: spans over the SoA fatal
// view with CSR group sets, no per-iteration event gather.
void BM_TemporalFilterColumnar(benchmark::State& state) {
  const filter::EventColumns cols = filter::columns_of(data().ras.fatal_columns());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        filter::temporal_filter(cols, filter::GroupSet::singletons(cols.size()), {}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cols.size()));
}
BENCHMARK(BM_TemporalFilterColumnar);

void BM_SpatialFilterColumnar(benchmark::State& state) {
  const filter::EventColumns cols = filter::columns_of(data().ras.fatal_columns());
  const filter::GroupSet pre =
      filter::temporal_filter(cols, filter::GroupSet::singletons(cols.size()), {});
  for (auto _ : state) {
    auto groups = pre;
    benchmark::DoNotOptimize(filter::spatial_filter(cols, std::move(groups), {}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pre.size()));
}
BENCHMARK(BM_SpatialFilterColumnar);

void BM_TemporalFilter(benchmark::State& state) {
  const auto events = data().ras.fatal_events();
  for (auto _ : state) {
    auto groups = filter::singleton_groups(events.size());
    benchmark::DoNotOptimize(
        filter::temporal_filter(events, std::move(groups), {}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events.size()));
}
BENCHMARK(BM_TemporalFilter);

void BM_SpatialFilter(benchmark::State& state) {
  const auto events = data().ras.fatal_events();
  const auto pre = filter::temporal_filter(events, filter::singleton_groups(events.size()), {});
  for (auto _ : state) {
    auto groups = pre;
    benchmark::DoNotOptimize(filter::spatial_filter(events, std::move(groups), {}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pre.size()));
}
BENCHMARK(BM_SpatialFilter);

// Times the columnar causality kernel the pipeline actually runs: spans +
// CSR groups prepared once outside the loop. The previous incarnation of
// this bench called the AoS convenience wrapper, which re-gathers an
// OwnedColumns copy and rebuilds the CSR group set on every iteration —
// that gather dominated the measurement (~0.28 ms vs ~0.005 ms for the
// kernel itself) and is covered separately by BM_CausalityMiningGather.
void BM_CausalityMining(benchmark::State& state) {
  const filter::EventColumns cols = filter::columns_of(data().ras.fatal_columns());
  const filter::GroupSet groups = filter::spatial_filter(
      cols, filter::temporal_filter(cols, filter::GroupSet::singletons(cols.size()), {}),
      {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter::mine_causal_pairs(cols, groups, {}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(groups.size()));
}
BENCHMARK(BM_CausalityMining);

// The AoS compatibility wrapper: pays the per-call OwnedColumns gather and
// GroupSet rebuild. Kept as its own series so the wrapper overhead stays
// tracked without polluting the kernel measurement above.
void BM_CausalityMiningGather(benchmark::State& state) {
  const auto events = data().ras.fatal_events();
  auto groups = filter::temporal_filter(events, filter::singleton_groups(events.size()), {});
  groups = filter::spatial_filter(events, std::move(groups), {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter::mine_causal_pairs(events, groups, {}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(groups.size()));
}
BENCHMARK(BM_CausalityMiningGather);

void BM_FullFilterPipeline(benchmark::State& state) {
  (void)data();
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter::run_filter_pipeline(data().ras, {}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_FullFilterPipeline);

void BM_RasBinaryWrite(benchmark::State& state) {
  (void)data();
  for (auto _ : state) {
    std::ostringstream out;
    ras::write_binary(out, data().ras);
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_RasBinaryWrite);

void BM_RasBinaryRead(benchmark::State& state) {
  std::ostringstream out;
  ras::write_binary(out, data().ras);
  const std::string bytes = out.str();
  for (auto _ : state) {
    std::istringstream in(bytes);
    benchmark::DoNotOptimize(ras::read_binary(in));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_RasBinaryRead);

void BM_RasBinaryReadParallel(benchmark::State& state) {
  std::ostringstream out;
  ras::write_binary(out, data().ras);
  const std::string bytes = out.str();
  par::ThreadPool pool;
  for (auto _ : state) {
    std::istringstream in(bytes);
    benchmark::DoNotOptimize(ras::read_binary(in, ras::default_catalog(), {.pool = &pool}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_RasBinaryReadParallel);

void BM_RasBinaryWriteV3(benchmark::State& state) {
  (void)data();
  for (auto _ : state) {
    std::ostringstream out;
    ras::write_binary(out, data().ras, {});
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_RasBinaryWriteV3);

void BM_RasBinaryWriteV3Parallel(benchmark::State& state) {
  (void)data();
  par::ThreadPool pool;
  for (auto _ : state) {
    std::ostringstream out;
    ras::WriteOptions opts;
    opts.pool = &pool;
    ras::write_binary(out, data().ras, opts);
    benchmark::DoNotOptimize(out.str().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_RasBinaryWriteV3Parallel);

// Writes the v3 store to a temp file once; the read benches then measure
// the real full-file path (mmap zero-copy + parallel block decode), the
// same way a consumer opens an archive.
const std::string& v3_file() {
  static const std::string path = [] {
    std::string p =
        (std::filesystem::temp_directory_path() / "perf_filtering_ras.v3").string();
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    ras::write_binary(out, data().ras, {});
    return p;
  }();
  return path;
}

void BM_RasBinaryReadV3(benchmark::State& state) {
  const std::string& path = v3_file();  // synth + write outside the timed region
  par::ThreadPool pool;
  ras::ReadOptions opts;
  opts.pool = &pool;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ras::read_binary_file(path, ras::default_catalog(), opts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_RasBinaryReadV3);

// The same read as wall time and whole-process CPU: BM_RasBinaryReadV3's
// cpu_time counts the calling thread only, so it misses the pool workers'
// decode and their first touch of the event array.
void BM_RasBinaryReadV3Wall(benchmark::State& state) { BM_RasBinaryReadV3(state); }
BENCHMARK(BM_RasBinaryReadV3Wall)->Unit(benchmark::kMillisecond)->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_RasBinaryReadV3Pushdown(benchmark::State& state) {
  // The paper's canonical slice: a 60-day window of the 237-day log. Zone
  // maps let the reader skip whole blocks of it without decoding.
  const std::string& path = v3_file();
  const synth::ScenarioConfig cfg = synth::intrepid_scenario(42);
  par::ThreadPool pool;
  ras::ReadOptions opts;
  opts.pool = &pool;
  opts.predicate.time_begin = cfg.start + 90 * kUsecPerDay;
  opts.predicate.time_end = cfg.start + 150 * kUsecPerDay;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ras::read_binary_file(path, ras::default_catalog(), opts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data().ras.size()));
}
BENCHMARK(BM_RasBinaryReadV3Pushdown);

// The full-scale RAS log as binary-v2 file bytes: what a fleet client
// streams to the daemon.
const std::string& v2_image() {
  static const std::string bytes = [] {
    std::ostringstream out;
    ras::write_binary(out, data().ras);
    return out.str();
  }();
  return bytes;
}

// The daemon's ingest loop without the socket: feed the v2 image into a
// default (4 MiB-quota, lossless) Session in `chunk`-byte pieces, retrying a
// rejected feed after a pump and pumping after every chunk, as the data
// handler does. Real time and whole-process CPU.
void session_feed_v2(benchmark::State& state, std::size_t chunk) {
  const std::string& bytes = v2_image();
  for (auto _ : state) {
    stream::Session session("bench", {}, Context{});
    for (std::string_view rest = bytes; !rest.empty();) {
      const std::string_view piece = rest.substr(0, chunk);
      while (session.feed(stream::Source::Ras, piece) == stream::Admission::Rejected) {
        session.pump();
      }
      session.pump();
      rest.remove_prefix(piece.size());
    }
    benchmark::DoNotOptimize(session.snapshot().ras_records);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}

// One registered name per chunk size (not ->Arg()): merge_bench.py keys the
// trajectory by function name with argument suffixes stripped.
void BM_SessionFeedV2_16KiB(benchmark::State& state) {
  session_feed_v2(state, std::size_t{16} << 10);
}
BENCHMARK(BM_SessionFeedV2_16KiB)->Unit(benchmark::kMillisecond)->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_SessionFeedV2_256KiB(benchmark::State& state) {
  session_feed_v2(state, std::size_t{256} << 10);
}
BENCHMARK(BM_SessionFeedV2_256KiB)->Unit(benchmark::kMillisecond)->UseRealTime()
    ->MeasureProcessCPUTime();

void BM_SessionFeedV2_4MiB(benchmark::State& state) {
  session_feed_v2(state, std::size_t{4} << 20);
}
BENCHMARK(BM_SessionFeedV2_4MiB)->Unit(benchmark::kMillisecond)->UseRealTime()
    ->MeasureProcessCPUTime();

// CRC-32 over the whole v2 image (~48 MB at seed 42): the per-byte tax every
// framed read, wire message and CBLK frame pays.
void BM_Crc32(benchmark::State& state) {
  const std::string& bytes = v2_image();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bin::crc32(bytes.data(), bytes.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMillisecond)->UseRealTime()->MeasureProcessCPUTime();

}  // namespace
