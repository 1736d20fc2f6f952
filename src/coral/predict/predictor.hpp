#pragma once

#include <cstdint>
#include <vector>

#include "coral/machine/model.hpp"
#include "coral/obs/obs.hpp"
#include "coral/predict/rules.hpp"
#include "coral/ras/log.hpp"
#include "coral/sched/policy.hpp"

namespace coral::predict {

/// One issued alarm: rule `rule` fired at `issued`, predicting its target
/// within `(issued, expires]` on `midplane` (-1 = machine-wide). The online
/// and offline paths must produce byte-identical sequences of these, so the
/// struct carries only issue-time facts (hit bookkeeping lives in the
/// predictor's private state).
struct Prediction {
  std::uint32_t rule = 0;  ///< index into the RuleTable
  TimePoint issued;
  TimePoint expires;
  std::int32_t midplane = -1;  ///< machine::MidplaneId; -1 = machine-wide

  friend bool operator==(const Prediction& a, const Prediction& b) = default;
};

/// The online prediction state machine: feed RAS records in time order and
/// it issues predictions per the rule table. Pure and deterministic — the
/// output depends only on the table and the record sequence, never on
/// chunking, threading or wall clock — which is what lets the streaming
/// session be differential-tested byte-identical against offline replay.
///
/// Per record with code c:
///  1. every still-active prediction whose rule targets c and whose zone
///     covers the record is scored as a hit (once per prediction; lead time
///     lands in the `predict.lead_minutes` histogram);
///  2. every rule with precursor c fires: per (rule, zone) at most one
///     prediction is active at a time — re-firing inside the window is
///     counted as `predict.suppressed`, not re-issued.
///
/// Rack-level records fan out to every midplane of their rack, exactly as
/// the filter/matching layers treat rack locations.
class Predictor {
 public:
  /// `table` and `machine` must outlive the predictor; `collector` may be
  /// null (no metrics).
  Predictor(const RuleTable& table, const machine::MachineModel& machine,
            obs::Collector* collector = nullptr);

  void on_record(const ras::RasEvent& event);

  /// Every prediction issued so far, in issue order.
  const std::vector<Prediction>& predictions() const { return predictions_; }

  std::uint64_t issued() const { return issued_; }
  std::uint64_t suppressed() const { return suppressed_; }
  std::uint64_t hits() const { return hits_; }

  const RuleTable& table() const { return *table_; }
  const machine::MachineModel& machine() const { return *machine_; }

 private:
  struct Active {
    std::int32_t zone = -1;       ///< midplane id, -1 = machine-wide
    std::uint32_t pred = 0;       ///< index into predictions_
    bool hit = false;
  };

  bool zone_covers(std::int32_t zone, std::uint32_t loc_key) const;
  void fire(std::uint32_t rule_index, std::int32_t zone, TimePoint t);

  const RuleTable* table_;
  const machine::MachineModel* machine_;
  obs::Collector* obs_;

  /// CSR: rules bucketed by precursor / target code.
  std::vector<std::uint32_t> by_precursor_offset_, by_precursor_rule_;
  std::vector<std::uint32_t> by_target_offset_, by_target_rule_;

  /// Per rule, the currently active (unexpired) predictions by zone.
  std::vector<std::vector<Active>> active_;

  std::vector<Prediction> predictions_;
  std::uint64_t issued_ = 0;
  std::uint64_t suppressed_ = 0;
  std::uint64_t hits_ = 0;
};

/// Offline replay: run the predictor over a finalized log and return the
/// predictions. Record order is log order (== time order), so this is the
/// reference the online session path is pinned against.
std::vector<Prediction> replay(const RuleTable& table, const ras::RasLog& log,
                               obs::Collector* collector = nullptr);

/// Closes the loop into the scheduler: feeds every RAS record through a
/// predictor and advises the placement policy to avoid midplanes with an
/// active midplane-scoped prediction (machine-wide alarms never blacklist —
/// draining the whole machine is not a placement decision). Attach via
/// synth::ScenarioConfig::advisor to measure saved node-hours against the
/// no-prediction baseline.
class PredictionAdvisor : public sched::PlacementAdvisor {
 public:
  /// `max_drained` caps how many midplanes may be under avoidance at once —
  /// a control system never drains a large slice of the machine on alarms
  /// (during a machine-wide degraded window every midplane alarms, and
  /// honoring all of them would herd every job onto a handful of midplanes
  /// exactly when fault pressure peaks). 0 = auto: an eighth of the
  /// machine. Alarms past the cap are dropped, not queued.
  PredictionAdvisor(const RuleTable& table, const machine::MachineModel& machine,
                    obs::Collector* collector = nullptr, std::size_t max_drained = 0);

  void on_record(const ras::RasEvent& event) override;
  bool avoid(machine::MidplaneId midplane, TimePoint now) const override;

  const Predictor& predictor() const { return predictor_; }

 private:
  Predictor predictor_;
  obs::Collector* obs_;
  std::size_t max_drained_;
  std::size_t consumed_ = 0;  ///< predictions already folded into avoid_until_
  std::vector<TimePoint> avoid_until_;
};

}  // namespace coral::predict
