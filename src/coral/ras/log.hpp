#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "coral/common/ingest.hpp"
#include "coral/machine/model.hpp"
#include "coral/ras/event.hpp"

namespace coral::ras {

/// Transparent huge-page size on x86-64 and aarch64 (4 KB base pages).
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Allocator of the RAS event array. It differs from std::allocator twice:
/// - construct(p) with no arguments writes nothing, so resize() reserves
///   slots without touching their pages. The pooled binary reader presizes
///   this way and its workers take the first-touch page faults of their own
///   slices in parallel. Any other resize must shrink, or assign every slot
///   it adds before the slot is read.
/// - An allocation of at least kHugePageBytes is kHugePageBytes-aligned, so
///   the reader can advise it onto transparent huge pages.
template <typename T>
struct EventArrayAllocator {
  using value_type = T;

  EventArrayAllocator() = default;
  template <typename U>
  EventArrayAllocator(const EventArrayAllocator<U>&) noexcept {}

  static constexpr bool huge(std::size_t n) { return n * sizeof(T) >= kHugePageBytes; }

  T* allocate(std::size_t n) {
    if (!huge(n)) return std::allocator<T>{}.allocate(n);
    return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{kHugePageBytes}));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (!huge(n)) return std::allocator<T>{}.deallocate(p, n);
    ::operator delete(p, n * sizeof(T), std::align_val_t{kHugePageBytes});
  }

  template <typename U>
  void construct(U*) noexcept {
    static_assert(std::is_trivially_copyable_v<U> && std::is_trivially_destructible_v<U>,
                  "an unwritten slot must be assignable as raw memory");
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const EventArrayAllocator&, const EventArrayAllocator&) {
    return true;
  }
};

/// The event storage of a RasLog, and the one event-array type every
/// producer of a log builds (readers, the stream decoder, the simulator).
using RasEventArray = std::vector<RasEvent, EventArrayAllocator<RasEvent>>;

/// Summary counts for a RAS log (Table I material).
struct RasLogSummary {
  std::size_t total_records = 0;
  std::size_t fatal_records = 0;
  std::size_t fatal_errcode_types = 0;     ///< distinct ERRCODEs seen at FATAL
  std::size_t fatal_component_types = 0;   ///< distinct COMPONENTs seen at FATAL
  TimePoint first_time;
  TimePoint last_time;
  std::map<Severity, std::size_t> by_severity;
  std::map<Component, std::size_t> fatal_by_component;
};

/// Structure-of-arrays view of the FATAL-severity records, materialized once
/// by RasLog::finalize(). The filter/match hot loops touch exactly three
/// fields per record — time, errcode and location — so scanning three
/// contiguous columns (8+4+4 bytes) instead of chasing whole RasEvents keeps
/// the working set a fraction of the AoS walk and lets the filters carry
/// plain index spans instead of copied event groups. `log_index[i]` maps
/// column row i back to the owning RasLog's events() (and doubles as
/// fatal_indices()); locations are stored as Location::packed() keys
/// (recover with bgp::Location::from_packed).
struct FatalColumns {
  std::vector<TimePoint> event_time;
  std::vector<ErrcodeId> errcode;
  std::vector<std::uint32_t> loc_key;
  std::vector<std::size_t> log_index;

  std::size_t size() const { return event_time.size(); }
  bool empty() const { return event_time.empty(); }
};

/// An in-memory RAS log: records sorted by EVENT_TIME, RECIDs assigned in
/// time order (as the CMCS backend does). A log remembers which catalog its
/// ErrcodeIds index into — and which machine its locations were parsed
/// against — so downstream consumers never have to guess.
class RasLog {
 public:
  RasLog() : catalog_(&default_catalog()) {}
  explicit RasLog(RasEventArray events,
                  const Catalog& catalog = default_catalog(),
                  const machine::MachineModel& machine = machine::bgp_model());

  /// Tag for the reader fast path: the caller guarantees events arrive
  /// time-ordered with RECIDs already assigned 1..N (the binary readers
  /// emit exactly that), so finalization is a read-only verification walk
  /// instead of a rewrite that dirties every cache line of a
  /// multi-million-record array. If the order check fails the constructor
  /// falls back to the full finalize, so a caller lying about order still
  /// gets a correct log.
  struct TrustedRecids {};
  RasLog(RasEventArray events, const Catalog& catalog,
         const machine::MachineModel& machine, TrustedRecids);

  /// Everything finalize() would compute, produced by a caller whose emit
  /// loop already had each record in registers: the fatal-column gather and
  /// the verdict of a running time-order check. When `sorted` holds, the
  /// constructor adopts the columns and skips the finalize walk entirely —
  /// the one remaining full pass over a multi-million-record reload. A
  /// caller whose order check failed sets `sorted = false` and gets the
  /// full sort-and-rebuild finalize (the columns are discarded).
  struct TrustedParts {
    FatalColumns fatal;
    bool sorted = true;
  };
  RasLog(RasEventArray events, const Catalog& catalog,
         const machine::MachineModel& machine, TrustedParts parts);

  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const RasEvent& operator[](std::size_t i) const { return events_[i]; }
  const RasEventArray& events() const { return events_; }

  /// The catalog this log's ErrcodeIds index into.
  const Catalog& catalog() const { return *catalog_; }

  /// The machine this log's locations belong to (default: reference BG/P).
  const machine::MachineModel& machine() const { return *machine_; }

  auto begin() const { return events_.begin(); }
  auto end() const { return events_.end(); }

  /// Append a record (time-ordered append is cheap; out-of-order appends are
  /// fixed up by finalize()).
  void append(RasEvent ev);

  /// Sort by time and assign RECIDs 1..N. Must be called after out-of-order
  /// appends and before analysis.
  void finalize();

  /// Copy of all FATAL-severity records, time-ordered. Deprecated
  /// compatibility shim: prefer fatal_columns() (no copy) or gather through
  /// fatal_indices(); this materializes a full AoS copy per call.
  std::vector<RasEvent> fatal_events() const;

  /// Indices of all FATAL-severity records, time-ordered. Maintained by
  /// finalize() so streaming consumers can gather fatal records without
  /// re-scanning the full log per run.
  const std::vector<std::size_t>& fatal_indices() const;

  /// Columnar (SoA) view of the FATAL records, maintained by finalize().
  /// Row i describes events()[fatal_columns().log_index[i]].
  const FatalColumns& fatal_columns() const;

  /// Index of the first event with time >= t (log must be finalized).
  std::size_t lower_bound(TimePoint t) const;

  /// Events within [begin, end), time-ordered (log must be finalized).
  std::vector<RasEvent> in_range(TimePoint begin, TimePoint end) const;

  RasLogSummary summary() const;

  /// CSV serialization with the Table II column set:
  /// RECID,MSG_ID,COMPONENT,SUBCOMPONENT,ERRCODE,SEVERITY,EVENT_TIME,LOCATION,SERIAL,MESSAGE
  void write_csv(std::ostream& out) const;

  /// Load a RAS CSV. Strict mode (the default) throws ParseError on the
  /// first malformed byte. Lenient mode skips-and-counts malformed rows
  /// (per-reason tallies, byte offsets and samples in `report` if given)
  /// and resynchronizes at the next row boundary, so a truncated or
  /// bit-flipped log still yields every intact record. With a `sink`
  /// collector, an "ingest.ras_csv" span (wall time, rows seen -> rows
  /// kept) plus per-reason "ingest.ras_csv.malformed.*" counters are
  /// recorded, alongside whatever spans the analysis opens on it.
  /// Location strings are validated against `machine`'s grammar; the
  /// returned log is stamped with that model.
  static RasLog read_csv(std::istream& in, const Catalog& catalog = default_catalog(),
                         ParseMode mode = ParseMode::Strict,
                         IngestReport* report = nullptr,
                         obs::Collector* sink = nullptr,
                         const machine::MachineModel& machine = machine::bgp_model());

 private:
  /// Shared finalize walk; `trust_recids` makes the pass read-only (RECIDs
  /// are the caller's, verified time order is still required).
  void finalize_impl(bool trust_recids);

  const Catalog* catalog_;
  const machine::MachineModel* machine_ = &machine::bgp_model();
  RasEventArray events_;
  FatalColumns fatal_;
  bool finalized_ = false;
};

}  // namespace coral::ras
