// In-memory instrumentation for the traced benchmark trial: host-time
// spans recorded around the benchmark's own calls into each layer, a
// pass-through delivery hook that counts messages, and an observer that
// times each simulator event. Nothing is written until the trial ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/message.h"
#include "sim/simulator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nested host-time spans. A span's parent is the innermost span open
/// when it began, so a span's self time is its duration minus its direct
/// children's; the root span's duration equals the sum of all self times.
class Tracer {
 public:
  struct Span {
    std::uint32_t parent = 0;  ///< 0 = root.
    const char* name = "";     ///< A string literal.
    std::uint64_t op = 0;      ///< Request identity of the op, 0 if none.
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t count = 0;  ///< Work counted inside (events for sim.*).
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(1 << 16);
  }

  /// Opens a span; returns its id, its 1-based position in the record.
  std::uint32_t Begin(const char* name, std::uint64_t op) {
    Span s;
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.name = name;
    s.op = op;
    s.start_ns = Now();
    spans_.push_back(s);
    const auto id = static_cast<std::uint32_t>(spans_.size());
    stack_.push_back(id);
    return id;
  }

  void End(std::uint32_t id, std::uint64_t count) {
    Span& s = spans_[id - 1];
    s.end_ns = Now();
    s.count = count;
    stack_.pop_back();
  }

  /// Writes one CSV row per span: id,parent,name,op,start_ns,end_ns,count.
  bool WriteCsv(const std::string& path, const std::string& comment) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "# %s\nid,parent,name,op,start_ns,end_ns,count\n",
                 comment.c_str());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%u,%s,%llu,%lld,%lld,%llu\n", i + 1, s.parent,
                   s.name, static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.count));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span; a no-op when the trial is untraced (tracer == nullptr).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t op = 0)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, op) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_, count_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_count(std::uint64_t count) { count_ = count; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
  std::uint64_t count_ = 0;
};

/// Pass-through SchedulerHook: never claims a delivery (always returns
/// false), so the transport schedules it exactly as without the hook. While
/// `counting` is set it tallies deliveries and wire bytes per message type
/// and per destination.
class MessageCounter : public paxi::SchedulerHook {
 public:
  struct Tally {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;
  };

  bool InterceptDelivery(paxi::NodeId to, paxi::MessagePtr msg,
                         paxi::Time /*arrival*/) override {
    if (!counting) return false;
    const paxi::Message& m = *msg;
    const std::uint64_t bytes = m.ByteSize();
    Tally& t = by_type_[std::type_index(typeid(m))];
    ++t.msgs;
    t.bytes += bytes;
    Tally& d = by_dest_[{to.zone, to.node}];
    ++d.msgs;
    d.bytes += bytes;
    ++total_.msgs;
    total_.bytes += bytes;
    return false;
  }

  bool counting = false;

  const Tally& total() const { return total_; }
  const std::map<std::pair<int, int>, Tally>& by_dest() const {
    return by_dest_;
  }
  const std::unordered_map<std::type_index, Tally>& by_type() const {
    return by_type_;
  }

 private:
  Tally total_;
  std::map<std::pair<int, int>, Tally> by_dest_;
  std::unordered_map<std::type_index, Tally> by_type_;
};

/// Times each executed event as the host time since the previous event
/// finished (or since Arm(), for the first event of a RunUntil call).
class EventTimer : public paxi::SimObserver {
 public:
  void Arm() { last_ = Clock::now(); }

  void OnEventExecuted(const paxi::EventFingerprint& /*fp*/) override {
    const Clock::time_point now = Clock::now();
    if (counting) {
      ns_.push_back(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - last_)
              .count());
    }
    last_ = now;
  }

  bool counting = false;
  const std::vector<std::int64_t>& samples() const { return ns_; }

 private:
  Clock::time_point last_ = Clock::now();
  std::vector<std::int64_t> ns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
