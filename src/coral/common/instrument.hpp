#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace coral {

/// One measured pipeline stage: wall time plus how many records (or groups)
/// flowed in and out. Stage names are stable identifiers ("filter.batch",
/// "matching", "classification", ...) so downstream tooling can aggregate
/// across runs.
struct StageSample {
  std::string stage;
  double wall_ms = 0;
  std::uint64_t in = 0;   ///< records/groups entering the stage
  std::uint64_t out = 0;  ///< records/groups leaving the stage
};

/// Receives per-stage measurements from instrumented layers.
///
/// Contract: `record` may be called from any worker thread of the analysis
/// (the pool fans stages out over its workers), so implementations must be
/// thread-safe. The *null* sink — a nullptr in Context — is the
/// zero-overhead default: instrumented code never reads a clock or builds a
/// sample when no sink is attached.
class InstrumentationSink {
 public:
  virtual ~InstrumentationSink() = default;
  virtual void record(const StageSample& sample) = 0;
};

/// Thread-safe accumulating sink: keeps every sample in arrival order and
/// can render them as machine-readable JSON (the BENCH_*.json stage-timing
/// payload).
class RecordingSink final : public InstrumentationSink {
 public:
  void record(const StageSample& sample) override;

  std::vector<StageSample> samples() const;

  /// Total wall-ms across every sample with this stage name (a stage run
  /// more than once reports once per run).
  double total_ms(std::string_view stage) const;

  /// JSON array of {"stage", "wall_ms", "in", "out"} objects.
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::vector<StageSample> samples_;
};

/// RAII stage timer. Reads the clock only when a sink is attached and
/// reports on destruction (or on an explicit report()); with a null sink
/// the whole object compiles down to a couple of pointer stores.
class StageTimer {
 public:
  StageTimer(InstrumentationSink* sink, const char* stage) : sink_(sink), stage_(stage) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;
  ~StageTimer() { report(); }

  void counts(std::uint64_t in, std::uint64_t out) {
    in_ = in;
    out_ = out;
  }

  /// Emit the sample now instead of at scope exit (idempotent).
  void report() {
    if (sink_ == nullptr) return;
    const auto end = std::chrono::steady_clock::now();
    sink_->record({stage_, std::chrono::duration<double, std::milli>(end - start_).count(),
                   in_, out_});
    sink_ = nullptr;
  }

 private:
  InstrumentationSink* sink_;
  const char* stage_;
  std::chrono::steady_clock::time_point start_{};
  std::uint64_t in_ = 0;
  std::uint64_t out_ = 0;
};

}  // namespace coral
