#include "coral/obs/obs.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>

namespace coral::obs {

namespace {

std::int64_t us_since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch).count();
}

/// Innermost open span per (thread, collector). Frames from different
/// collectors may interleave on one thread (two Contexts sharing a pool), so
/// each frame remembers its owner and parents are matched by owner.
struct ActiveFrame {
  const Collector* collector;
  std::int32_t index;
};

thread_local std::vector<ActiveFrame> t_active_spans;

std::int32_t innermost_open(const Collector* collector) {
  for (auto it = t_active_spans.rbegin(); it != t_active_spans.rend(); ++it) {
    if (it->collector == collector) return it->index;
  }
  return -1;
}

void pop_frame(const Collector* collector, std::int32_t index) {
  for (auto it = t_active_spans.rbegin(); it != t_active_spans.rend(); ++it) {
    if (it->collector == collector && it->index == index) {
      t_active_spans.erase(std::next(it).base());
      return;
    }
  }
}

void append(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));
void append(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n <= 0) return;
  if (static_cast<std::size_t>(n) < sizeof(buf)) {
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  // Rare long line (a pathological stage name): retry with the exact size.
  std::string big(static_cast<std::size_t>(n) + 1, '\0');
  va_start(args, fmt);
  std::vsnprintf(big.data(), big.size(), fmt, args);
  va_end(args);
  big.resize(static_cast<std::size_t>(n));
  out += big;
}

/// JSON string escaping for stage names (quotes, backslashes, control
/// characters; names are ASCII identifiers in practice).
std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Prometheus metric-name charset: [a-zA-Z0-9_:]; everything else maps to
/// '_' (dots in stage names most of all).
std::string prometheus_name(std::string_view name) {
  std::string out = "coral_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::size_t histogram_bucket(double value) {
  if (!(value > 1.0)) return 0;
  const double lg = std::ceil(std::log2(value));
  const auto b = static_cast<std::size_t>(std::max(0.0, lg));
  return std::min(b, kHistogramBuckets - 1);
}

double histogram_bound(std::size_t b) {
  if (b + 1 >= kHistogramBuckets) return std::numeric_limits<double>::infinity();
  return std::ldexp(1.0, static_cast<int>(b));
}

void Histogram::record(double value) {
  std::lock_guard lock(mu_);
  if (count_ == 0 || value < min_) min_ = value;
  if (count_ == 0 || value > max_) max_ = value;
  count_ += 1;
  sum_ += value;
  buckets_[histogram_bucket(value)] += 1;
}

HistogramRecord Histogram::snapshot() const {
  std::lock_guard lock(mu_);
  HistogramRecord r;
  r.name = name_;
  r.count = count_;
  r.sum = sum_;
  r.min = min_;
  r.max = max_;
  r.buckets = buckets_;
  return r;
}

double Snapshot::total_ms(std::string_view name) const {
  double total = 0;
  for (const SpanRecord& s : spans) {
    if (s.name == name) total += static_cast<double>(s.dur_us) / 1e3;
  }
  return total;
}

std::uint64_t Snapshot::counter_value(std::string_view name) const {
  for (const CounterRecord& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

Counter& Collector::counter(std::string_view name) {
  std::lock_guard lock(reg_mu_);
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  std::unique_ptr<Counter> node(new Counter(std::string(name)));
  Counter& ref = *node;
  counters_.emplace(std::string_view(ref.name_), std::move(node));
  return ref;
}

Histogram& Collector::histogram(std::string_view name) {
  std::lock_guard lock(reg_mu_);
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  std::unique_ptr<Histogram> node(new Histogram(std::string(name)));
  Histogram& ref = *node;
  histograms_.emplace(std::string_view(ref.name_), std::move(node));
  return ref;
}

void Collector::set_span_capacity(std::size_t cap) {
  std::lock_guard lock(span_mu_);
  span_capacity_ = cap;
  evict_locked();
}

std::uint64_t Collector::spans_dropped() const {
  std::lock_guard lock(span_mu_);
  return spans_dropped_;
}

void Collector::evict_locked() {
  if (span_capacity_ == 0) return;
  // Open spans (dur_us < 0) pin the front: their absolute indices are held
  // by live Span handles, so eviction stops at the oldest one still open.
  while (spans_.size() > span_capacity_ && !spans_.empty() &&
         spans_.front().dur_us >= 0) {
    spans_.pop_front();
    ++first_index_;
    ++spans_dropped_;
  }
}

Snapshot Collector::snapshot() const {
  Snapshot snap;
  {
    std::lock_guard lock(span_mu_);
    // Open spans have dur_us == -1 placeholders; export only finished ones,
    // preserving indices' meaning by keeping order and remapping parents.
    // Parents evicted from a bounded buffer export as roots (-1).
    snap.spans_dropped = spans_dropped_;
    snap.spans.reserve(spans_.size());
    std::vector<std::int32_t> remap(spans_.size(), -1);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].dur_us < 0) continue;
      remap[i] = static_cast<std::int32_t>(snap.spans.size());
      snap.spans.push_back(spans_[i]);
    }
    for (SpanRecord& s : snap.spans) {
      if (s.parent < 0) continue;
      const std::int64_t rel = s.parent - first_index_;
      s.parent = rel < 0 ? -1 : remap[static_cast<std::size_t>(rel)];
    }
  }
  {
    std::lock_guard lock(reg_mu_);
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) {
      snap.counters.push_back({c->name_, c->value()});
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) snap.histograms.push_back(h->snapshot());
  }
  const auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.histograms.begin(), snap.histograms.end(), by_name);
  return snap;
}

std::int32_t Collector::open_span(const char* name, std::int64_t start_us,
                                  std::uint32_t tid, std::int32_t parent) {
  std::lock_guard lock(span_mu_);
  const auto index = static_cast<std::int32_t>(first_index_ +
                                               static_cast<std::int64_t>(spans_.size()));
  spans_.push_back({name, start_us, /*dur_us=*/-1, tid, parent, 0, 0});
  evict_locked();
  return index;
}

std::int64_t Collector::close_span(std::int32_t index, std::int64_t end_us,
                                   std::uint64_t in, std::uint64_t out) {
  std::lock_guard lock(span_mu_);
  // Open spans are never evicted, so the absolute index is still in range.
  SpanRecord& s = spans_[static_cast<std::size_t>(index - first_index_)];
  const std::int64_t dur_us = std::max<std::int64_t>(0, end_us - s.start_us);
  s.dur_us = dur_us;
  s.in = in;
  s.out = out;
  evict_locked();
  return dur_us;
}

std::uint32_t Collector::thread_number() {
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard lock(tid_mu_);
  const auto [it, inserted] = tids_.emplace(self, static_cast<std::uint32_t>(tids_.size()));
  return it->second;
}

Span::Span(Collector* collector, const char* name) : collector_(collector), name_(name) {
  if (collector_ == nullptr) return;
  const std::int64_t start = us_since(collector_->epoch(), Clock::now());
  index_ = collector_->open_span(name, start, collector_->thread_number(),
                                 innermost_open(collector_));
  t_active_spans.push_back({collector_, index_});
}

void Span::end() {
  if (collector_ == nullptr) return;
  const std::int64_t end_us = us_since(collector_->epoch(), Clock::now());
  const std::int64_t dur_us = collector_->close_span(index_, end_us, in_, out_);
  pop_frame(collector_, index_);
  collector_->histogram(name_).record(static_cast<double>(dur_us) / 1e3);
  collector_ = nullptr;
}

std::string chrome_trace_json(const Snapshot& snap) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  const auto sep = [&out, &first] {
    if (!first) out += ",\n";
    first = false;
  };
  for (const SpanRecord& s : snap.spans) {
    sep();
    append(out,
           "{\"name\": \"%s\", \"cat\": \"coral\", \"ph\": \"X\", \"ts\": %lld, "
           "\"dur\": %lld, \"pid\": 1, \"tid\": %u, \"args\": {\"in\": %llu, "
           "\"out\": %llu}}",
           json_escape(s.name).c_str(), static_cast<long long>(s.start_us),
           static_cast<long long>(s.dur_us), s.tid,
           static_cast<unsigned long long>(s.in), static_cast<unsigned long long>(s.out));
  }
  // Final counter totals as one "C" sample each, so chrome://tracing shows
  // them in the counters track.
  std::int64_t last_ts = 0;
  for (const SpanRecord& s : snap.spans) {
    last_ts = std::max(last_ts, s.start_us + s.dur_us);
  }
  for (const CounterRecord& c : snap.counters) {
    sep();
    append(out,
           "{\"name\": \"%s\", \"cat\": \"coral\", \"ph\": \"C\", \"ts\": %lld, "
           "\"pid\": 1, \"args\": {\"value\": %llu}}",
           json_escape(c.name).c_str(), static_cast<long long>(last_ts),
           static_cast<unsigned long long>(c.value));
  }
  out += "\n]}\n";
  return out;
}

namespace {

/// `{tenant="x"}` / `{tenant="x",le="1"}` / `{le="1"}` / `` — brace joinery
/// shared by every sample line.
std::string label_block(std::string_view labels, std::string_view extra = {}) {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  out += labels;
  if (!labels.empty() && !extra.empty()) out += ",";
  out += extra;
  out += "}";
  return out;
}

void counter_samples(std::string& out, const CounterRecord& c, std::string_view labels) {
  const std::string name = prometheus_name(c.name) + "_total";
  append(out, "%s%s %llu\n", name.c_str(), label_block(labels).c_str(),
         static_cast<unsigned long long>(c.value));
}

void histogram_samples(std::string& out, const HistogramRecord& h,
                       std::string_view labels) {
  const std::string name = prometheus_name(h.name);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    cumulative += h.buckets[b];
    // Skip interior empty buckets to keep the exposition small; always
    // keep +Inf, which Prometheus requires.
    if (h.buckets[b] == 0 && b + 1 < kHistogramBuckets) continue;
    const double bound = histogram_bound(b);
    std::string le;
    if (std::isinf(bound)) {
      le = "le=\"+Inf\"";
    } else {
      char buf[32];
      std::snprintf(buf, sizeof buf, "le=\"%g\"", bound);
      le = buf;
    }
    append(out, "%s_bucket%s %llu\n", name.c_str(), label_block(labels, le).c_str(),
           static_cast<unsigned long long>(cumulative));
  }
  append(out, "%s_sum%s %g\n", name.c_str(), label_block(labels).c_str(), h.sum);
  append(out, "%s_count%s %llu\n", name.c_str(), label_block(labels).c_str(),
         static_cast<unsigned long long>(h.count));
}

}  // namespace

std::string prometheus_text(const Snapshot& snap, std::string_view labels) {
  std::string out;
  for (const CounterRecord& c : snap.counters) {
    append(out, "# TYPE %s counter\n", (prometheus_name(c.name) + "_total").c_str());
    counter_samples(out, c, labels);
  }
  for (const HistogramRecord& h : snap.histograms) {
    append(out, "# TYPE %s histogram\n", prometheus_name(h.name).c_str());
    histogram_samples(out, h, labels);
  }
  return out;
}

std::string prometheus_text(const Snapshot& snap) { return prometheus_text(snap, {}); }

std::string prometheus_text(const std::vector<LabeledSnapshot>& snaps) {
  // One TYPE header per family across every tenant, then each tenant's
  // samples under its labels. Families are walked in sorted-name order
  // (snapshots arrive sorted), counters before histograms.
  std::string out;
  std::vector<std::string> seen;
  const auto first_time = [&seen](const std::string& name) {
    for (const std::string& s : seen) {
      if (s == name) return false;
    }
    seen.push_back(name);
    return true;
  };
  for (const LabeledSnapshot& ls : snaps) {
    for (const CounterRecord& c : ls.snap.counters) {
      const std::string name = prometheus_name(c.name) + "_total";
      if (first_time(name)) append(out, "# TYPE %s counter\n", name.c_str());
    }
  }
  for (const LabeledSnapshot& ls : snaps) {
    for (const CounterRecord& c : ls.snap.counters) counter_samples(out, c, ls.labels);
  }
  for (const LabeledSnapshot& ls : snaps) {
    for (const HistogramRecord& h : ls.snap.histograms) {
      const std::string name = prometheus_name(h.name);
      if (first_time(name)) append(out, "# TYPE %s histogram\n", name.c_str());
    }
  }
  for (const LabeledSnapshot& ls : snaps) {
    for (const HistogramRecord& h : ls.snap.histograms) histogram_samples(out, h, ls.labels);
  }
  return out;
}

std::string snapshot_json(const Snapshot& snap) {
  std::string out = "{\"spans\": [";
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    const SpanRecord& s = snap.spans[i];
    append(out,
           "%s{\"name\": \"%s\", \"start_us\": %lld, \"dur_us\": %lld, \"tid\": %u, "
           "\"parent\": %d, \"in\": %llu, \"out\": %llu}",
           i == 0 ? "" : ", ", json_escape(s.name).c_str(),
           static_cast<long long>(s.start_us), static_cast<long long>(s.dur_us), s.tid,
           s.parent, static_cast<unsigned long long>(s.in),
           static_cast<unsigned long long>(s.out));
  }
  out += "], \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    append(out, "%s\"%s\": %llu", i == 0 ? "" : ", ",
           json_escape(snap.counters[i].name).c_str(),
           static_cast<unsigned long long>(snap.counters[i].value));
  }
  out += "}, \"histograms\": [";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const HistogramRecord& h = snap.histograms[i];
    append(out,
           "%s{\"name\": \"%s\", \"count\": %llu, \"sum\": %g, \"min\": %g, \"max\": %g}",
           i == 0 ? "" : ", ", json_escape(h.name).c_str(),
           static_cast<unsigned long long>(h.count), h.sum, h.min, h.max);
  }
  out += "]}";
  return out;
}

}  // namespace coral::obs
