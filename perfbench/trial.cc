// One benchmark trial: builds a cluster for one named workload, drives it
// from a single host thread with the benchmark's own closed- or open-loop
// clients, checks the full history for linearizability, and prints one
// JSON line of host-time, virtual-time and (when traced) per-layer
// results. perfbench/run.py launches one process per trial, so the
// process's peak RSS (VmHWM) is the trial's.
//
//   paxi_perfbench --workload lan-paxos --seed 7 --trace 0|1 [--spans F]
//
// Host numbers are host (wall-clock) time; every v* number is virtual
// (simulated) time and depends only on the workload and the seed.

#include <cxxabi.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "checker/linearizability.h"
#include "common/digest.h"
#include "common/pool.h"
#include "common/rng.h"
#include "core/cluster.h"
#include "lease/lease.h"
#include "model/protocol_model.h"
#include "store/wal.h"
#include "trace.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using paxi::Time;

/// The §3 model's view of a workload's deployment at the measured rate.
struct ModelView {
  double max_ops_s = 0.0;       ///< Saturation throughput.
  double mean_latency_ms = 0.0; ///< Predicted mean latency; inf past it.
};

struct WorkloadDef {
  std::string name;
  paxi::Config config;
  paxi::WorkloadSpec spec;
  int clients_per_zone = 0;      ///< > 0: closed loop, this many per zone.
  double open_rate_ops_s = 0.0;  ///< > 0: open loop, Poisson at this rate.
  double bootstrap_s = 0.5;      ///< Election before any traffic.
  double warmup_s = 0.5;         ///< Traffic before the window opens.
  double window_s = 3.0;         ///< The measured window.
  double drain_s = 1.0;          ///< Lets ops issued in the window finish.
  std::function<ModelView(double vtput_ops_s, double write_ratio)> model;
};

paxi::model::ModelEnv LanEnv() {
  paxi::model::ModelEnv env;
  env.topology = paxi::Topology::Lan(1);
  env.zones = 1;
  env.nodes_per_zone = 9;
  return env;
}

paxi::model::ModelEnv WanEnv(int nodes_per_zone) {
  paxi::model::ModelEnv env;
  env.topology = paxi::Topology::WanFiveRegions();
  env.zones = 5;
  env.nodes_per_zone = nodes_per_zone;
  return env;
}

ModelView RoundModel(const paxi::model::ProtocolModel& m, double vtput) {
  return {m.MaxThroughput(), m.LatencyMs(vtput)};
}

/// The workloads. Why each exists is recorded in BENCHMARK.json and
/// perfbench/METRICS.md; the shapes follow the paper figures they cite.
std::vector<WorkloadDef> Workloads() {
  std::vector<WorkloadDef> out;
  {
    // Fig. 9 point: 9-node LAN MultiPaxos, in memory, saturating clients.
    WorkloadDef w;
    w.name = "lan-paxos";
    w.config = paxi::Config::Lan9("paxos");
    w.spec = paxi::UniformWorkload(/*keys=*/1000, /*write_ratio=*/0.5);
    w.clients_per_zone = 40;
    w.window_s = 1.5;
    w.model = [](double vtput, double) {
      return RoundModel(paxi::model::PaxosModel(LanEnv(), {1, 1}), vtput);
    };
    out.push_back(std::move(w));
  }
  {
    // Fig. 11 style: leaderless EPaxos over five WAN regions, 30% of ops
    // on one hot key.
    WorkloadDef w;
    w.name = "wan-epaxos-hot";
    w.config = paxi::Config::Wan5("epaxos", 3);
    w.spec = paxi::ConflictWorkload(/*conflict_ratio=*/0.3, /*zones=*/5,
                                    /*keys_per_zone=*/20);
    w.clients_per_zone = 8;
    w.bootstrap_s = 1.0;
    w.warmup_s = 1.0;
    w.window_s = 10.0;
    w.drain_s = 2.0;
    w.model = [](double vtput, double) {
      return RoundModel(paxi::model::EPaxosModel(WanEnv(3), /*conflict=*/0.3),
                        vtput);
    };
    out.push_back(std::move(w));
  }
  {
    // Durable WAL + leader leases, 90% reads, open loop below saturation:
    // writes take the fsync/group-commit path, reads the lease path.
    WorkloadDef w;
    w.name = "lan-paxos-durable-lease";
    w.config = paxi::Config::Lan9("paxos");
    w.config.params["durable"] = "1";
    w.config.params["read_mode"] = "leader_lease";
    w.spec = paxi::UniformWorkload(/*keys=*/1000, /*write_ratio=*/0.1);
    w.open_rate_ops_s = 15000.0;
    w.bootstrap_s = 1.0;
    w.window_s = 3.0;
    w.model = [](double vtput, double write_ratio) {
      paxi::model::ModelEnv env = LanEnv();
      env.disk.durable = true;
      const paxi::model::PaxosModel m(env, {1, 1});
      // Reads are local lease reads at the leader; only writes run a
      // replication round, so the round queue sees the write rate.
      const double read_ratio = 1.0 - write_ratio;
      return ModelView{
          m.MixedMaxThroughput(read_ratio),
          read_ratio * m.LeaseReadLatencyMs({1, 1}) +
              write_ratio * m.LatencyMs(vtput * write_ratio)};
    };
    out.push_back(std::move(w));
  }
  {
    // Fig. 13 style: WPaxos fz=0 with every key owned by Ohio at start,
    // and the locality workload in an open loop. Not in BENCHMARK.json:
    // requests to keys contended by two regions are stranded until the
    // client gives up (seeds 21 and 22 fail 418 and 143 window ops), and
    // the benchmark's workloads must not fail ops. Kept as the reproducer.
    WorkloadDef w;
    w.name = "wan-wpaxos-locality";
    w.config = paxi::Config::Wan5("wpaxos", 1);
    w.config.params["fz"] = "0";
    w.config.params["initial_owner"] = "2.1";
    w.spec = paxi::LocalityWorkload(/*zones=*/5, /*keys=*/200, /*sigma=*/12.0);
    w.open_rate_ops_s = 5000.0;
    w.bootstrap_s = 1.0;
    w.warmup_s = 3.0;
    w.window_s = 3.0;
    w.drain_s = 15.0;  // Long enough for a client's last retry to give up.
    w.model = [](double vtput, double) {
      return RoundModel(
          paxi::model::WPaxosModel(WanEnv(1), /*fz=*/0, /*locality=*/0.7),
          vtput);
    };
    out.push_back(std::move(w));
  }
  return out;
}

/// Minimal JSON object writer (keys are fixed identifiers).
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  Json& Obj(const std::string& key, const Json& v) { return Raw(key, v.str()); }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  Json& Raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + v;
    return *this;
  }
  std::string body_;
};

/// Percentile of whole-unit samples (microseconds, nanoseconds) read as a
/// continuous quantity: each sample of value v stands for the interval
/// [v - 0.5, v + 0.5), and the quantile is interpolated within the interval
/// that holds it (the grouped-data estimator). Virtual latencies pile up on
/// a few whole microseconds, so a plain order statistic would hide their
/// spread. `sorted` must be sorted.
double Percentile(const std::vector<std::int64_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const double target = std::min(p / 100.0 * n, n - 0.5);
  const std::int64_t v = sorted[static_cast<std::size_t>(target)];
  const auto first = std::lower_bound(sorted.begin(), sorted.end(), v);
  const auto last = std::upper_bound(sorted.begin(), sorted.end(), v);
  const double below = static_cast<double>(first - sorted.begin());
  const double in_bucket = static_cast<double>(last - first);
  return static_cast<double>(v) - 0.5 + (target - below) / in_bucket;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// This process image's peak RSS (VmHWM). Not ru_maxrss: Linux carries
/// that across exec from the forking parent, so a trial launched by a large
/// runner process would report the runner's size.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string field;
  while (status >> field) {
    if (field == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::string Demangle(const char* name) {
  int status = 0;
  char* out = abi::__cxa_demangle(name, nullptr, nullptr, &status);
  std::string s = status == 0 && out != nullptr ? out : name;
  std::free(out);
  return s;
}

/// Counters of the layers behind the public stats accessors, summed over
/// every replica; sampled at both ends of the measured window.
struct LayerSnapshot {
  std::uint64_t pool_allocs = 0;
  std::uint64_t pool_fresh = 0;
  std::uint64_t wal_syncs = 0;
  std::uint64_t wal_bytes_synced = 0;
  std::uint64_t wal_records_synced = 0;
  std::uint64_t lease_reads = 0;
  std::uint64_t quorum_reads = 0;
  std::uint64_t full_reads = 0;
  std::uint64_t lease_degrades = 0;

  static LayerSnapshot Take(paxi::Cluster& cluster) {
    LayerSnapshot s;
    const paxi::BlockPool::Stats& pool = paxi::BlockPool::Local().stats();
    s.pool_allocs = pool.allocs;
    s.pool_fresh = pool.FreshAllocs();
    for (const paxi::NodeId& id : cluster.nodes()) {
      if (const paxi::NodeDisk* disk = cluster.disk(id); disk != nullptr) {
        s.wal_syncs += disk->stats().sync_count;
        s.wal_bytes_synced += disk->stats().bytes_synced;
        s.wal_records_synced += disk->stats().records_synced;
      }
      const paxi::Node* node = cluster.node(id);
      if (node == nullptr || node->lease_manager() == nullptr) continue;
      const paxi::LeaseManager::ReadStats& r =
          node->lease_manager()->read_stats();
      s.lease_reads += r.lease_reads;
      s.quorum_reads += r.quorum_reads;
      s.full_reads += r.full_reads;
      s.lease_degrades += r.degrade_to_quorum + r.degrade_to_full;
    }
    return s;
  }
};

class Trial {
 public:
  Trial(const WorkloadDef& w, std::uint64_t seed, bool traced)
      : w_(w),
        seed_(seed),
        origin_(Clock::now()),
        tracer_(traced ? std::make_unique<Tracer>(origin_) : nullptr),
        arrivals_(seed ^ 0x9e3779b97f4a7c15ULL) {}

  void Run() {
    const Clock::time_point run_start = Clock::now();
    Tracer* tr = tracer_.get();
    {
      ScopedSpan run(tr, "run");
      {
        ScopedSpan setup(tr, "setup");
        {
          ScopedSpan s(tr, "cluster.new");
          paxi::Config config = w_.config;
          config.seed = seed_;
          cluster_ = std::make_unique<paxi::Cluster>(std::move(config));
        }
        paxi::Simulator& sim = cluster_->sim();
        if (tr != nullptr) {
          sim.set_scheduler_hook(&counter_);
          sim.AddObserver(&timer_);
        }
        {
          ScopedSpan s(tr, "cluster.start");
          cluster_->Start();
        }
        const Time bootstrap_end = sim.Now() + VirtualTime(w_.bootstrap_s);
        RunPhase(tr, "sim.bootstrap", bootstrap_end);
        measure_start_ = sim.Now() + VirtualTime(w_.warmup_s);
        deadline_ = measure_start_ + VirtualTime(w_.window_s);
        StartTraffic();
        RunPhase(tr, "sim.warmup", measure_start_);
      }
      setup_s_ = Seconds(Clock::now() - run_start);

      layers_at_open_ = LayerSnapshot::Take(*cluster_);
      counter_.counting = timer_.counting = true;
      const Clock::time_point window_start = Clock::now();
      window_events_ = RunPhase(tr, "sim.window", deadline_);
      window_host_s_ = Seconds(Clock::now() - window_start);
      counter_.counting = timer_.counting = false;
      layers_at_close_ = LayerSnapshot::Take(*cluster_);

      RunPhase(tr, "sim.drain", deadline_ + VirtualTime(w_.drain_s));
      {
        ScopedSpan s(tr, "model.eval");
        model_ = w_.model(VtputOpsS(), WriteRatio());
      }
      {
        ScopedSpan s(tr, "checker.check");
        paxi::LinearizabilityChecker checker;
        checker.AddAll(history_);
        anomalies_ = checker.Check().size();
      }
    }
    run_s_ = Seconds(Clock::now() - run_start);
    if (tr != nullptr) {
      cluster_->sim().set_scheduler_hook(nullptr);
      cluster_->sim().RemoveObserver(&timer_);
    }
    peak_rss_mb_ = PeakRssMb();
  }

  bool WriteSpans(const std::string& path) const {
    return tracer_ != nullptr &&
           tracer_->WriteCsv(path, "workload=" + w_.name +
                                       " seed=" + std::to_string(seed_));
  }

  std::string ResultJson() const {
    std::vector<Time> lat = window_lat_;
    std::sort(lat.begin(), lat.end());
    double lat_sum_ms = 0.0;
    for (const Time t : lat) lat_sum_ms += paxi::ToMillis(t);
    const double mean_ms = Ratio(lat_sum_ms, static_cast<double>(lat.size()));
    const std::uint64_t failed = attempted_ - ok_;

    Json host;
    host.Num("run_s", run_s_)
        .Num("setup_s", setup_s_)
        .Num("window_s", window_host_s_)
        .Num("sim_ops_per_s", Ratio(static_cast<double>(ok_), window_host_s_))
        .Num("peak_rss_mb", peak_rss_mb_);

    Json virt;
    virt.Num("window_s", w_.window_s)
        .Int("attempted", attempted_)
        .Int("ok", ok_)
        .Int("failed", failed)
        .Num("failed_ratio", Ratio(static_cast<double>(failed),
                                   static_cast<double>(attempted_)))
        .Num("vtput_ops_s", VtputOpsS())
        .Num("vlat_p50_ms", Percentile(lat, 50) / 1000.0)
        .Num("vlat_p99_ms", Percentile(lat, 99) / 1000.0)
        .Num("vlat_mean_ms", mean_ms)
        .Int("vlat_samples", lat.size())
        .Int("lin_anomalies", anomalies_)
        .Int("history_ops", history_.size())
        .Str("history_digest", HistoryDigest())
        .Int("window_events", window_events_)
        .Int("events", events_total_);

    // A model prediction past saturation (inf) reads as a 0 ratio.
    const double predicted = std::isfinite(model_.mean_latency_ms)
                                 ? model_.mean_latency_ms
                                 : 0.0;
    Json model;
    model.Num("max_ops_s", model_.max_ops_s)
        .Num("predicted_mean_ms", predicted)
        .Num("tput_ratio", Ratio(VtputOpsS(), model_.max_ops_s))
        .Num("latency_ratio", predicted == 0.0 ? 0.0 : mean_ms / predicted);

    Json out;
    out.Str("workload", w_.name)
        .Int("seed", seed_)
        .Int("traced", tracer_ != nullptr ? 1 : 0)
        .Obj("host", host)
        .Obj("virtual", virt)
        .Obj("model", model);
    if (tracer_ != nullptr) {
      out.Obj("layers", Layers())
          .Obj("msg_types", MessageTypes())
          .Obj("msg_dests", MessageDestinations());
    }
    return out.str();
  }

 private:
  struct Slot {
    Slot(paxi::Client* c, int z, paxi::WorkloadGenerator g)
        : client(c), zone(z), gen(std::move(g)) {}
    paxi::Client* client;
    int zone;
    paxi::WorkloadGenerator gen;
    // The slot's op in flight; a slot has at most one.
    Time invoke = 0;
    bool is_write = false;
    paxi::Key key = 0;
    paxi::Value written;
    std::uint64_t op_id = 0;  ///< (client id << 32) | request id.
  };

  static Time VirtualTime(double seconds) {
    return static_cast<Time>(std::llround(seconds * paxi::kSecond));
  }

  std::size_t RunPhase(Tracer* tr, const char* name, Time until) {
    ScopedSpan s(tr, name);
    timer_.Arm();
    const std::size_t events = cluster_->sim().RunUntil(until);
    s.set_count(events);
    events_total_ += events;
    return events;
  }

  double VtputOpsS() const { return static_cast<double>(ok_) / w_.window_s; }
  double WriteRatio() const {
    return Ratio(static_cast<double>(ok_writes_), static_cast<double>(ok_));
  }
  bool InWindow(Time invoke) const {
    return invoke >= measure_start_ && invoke < deadline_;
  }

  std::size_t NewSlot(int zone) {
    const int stream = static_cast<int>(slots_.size()) + 1;
    slots_.push_back(std::make_unique<Slot>(
        cluster_->NewClient(zone), zone,
        paxi::WorkloadGenerator(
            w_.spec, zone, stream,
            seed_ * 7919 + static_cast<std::uint64_t>(stream))));
    return slots_.size() - 1;
  }

  void StartTraffic() {
    paxi::Simulator& sim = cluster_->sim();
    if (w_.open_rate_ops_s > 0.0) {
      idle_.resize(static_cast<std::size_t>(w_.config.zones) + 1);
      sim.After(NextGap(), [this]() { Arrive(); });
      return;
    }
    // Stagger first issues by a microsecond so clients are not in lockstep.
    Time offset = 0;
    for (int zone = 1; zone <= w_.config.zones; ++zone) {
      for (int i = 0; i < w_.clients_per_zone; ++i) {
        const std::size_t idx = NewSlot(zone);
        sim.After(++offset, [this, idx]() {
          ScopedSpan s(tracer_.get(), "bench.arrival");
          IssueOp(idx);
        });
      }
    }
  }

  Time NextGap() {
    const double per_us =
        w_.open_rate_ops_s / static_cast<double>(paxi::kSecond);
    const double gap_us = arrivals_.Exponential(per_us);
    return std::max<Time>(1, static_cast<Time>(std::llround(gap_us)));
  }

  /// Open loop: one Poisson arrival, homed in a uniformly drawn zone. An
  /// idle client of that zone takes the op at its due time; when none is
  /// idle a new client joins, so no op waits on the generator and latency
  /// counts from the due time.
  void Arrive() {
    ScopedSpan s(tracer_.get(), "bench.arrival");
    if (cluster_->sim().Now() >= deadline_) return;
    const int zone =
        static_cast<int>(arrivals_.UniformInt(1, w_.config.zones));
    std::vector<std::size_t>& idle = idle_[static_cast<std::size_t>(zone)];
    std::size_t idx = 0;
    if (idle.empty()) {
      idx = NewSlot(zone);
    } else {
      idx = idle.back();
      idle.pop_back();
    }
    IssueOp(idx);
    cluster_->sim().After(NextGap(), [this]() { Arrive(); });
  }

  void IssueOp(std::size_t idx) {
    Slot& s = *slots_[idx];
    const Time now = cluster_->sim().Now();
    // Client::Issue numbers requests 1, 2, ... per client.
    s.op_id = (static_cast<std::uint64_t>(s.client->client_id()) << 32) |
              (s.client->issued() + 1);
    paxi::Command cmd;
    {
      ScopedSpan span(tracer_.get(), "workload.next", s.op_id);
      cmd = s.gen.Next(now);
    }
    s.invoke = now;
    s.is_write = cmd.IsWrite();
    s.key = cmd.key;
    s.written = s.is_write ? cmd.value : paxi::Value();
    if (InWindow(now)) ++attempted_;
    const paxi::NodeId target =
        cluster_->TargetForClient(s.zone, s.client->client_id());
    ScopedSpan span(tracer_.get(), "core.issue", s.op_id);
    s.client->Issue(std::move(cmd), target,
                    [this, idx](const paxi::Client::Reply& r) {
                      OnReply(idx, r);
                    });
  }

  void OnReply(std::size_t idx, const paxi::Client::Reply& r) {
    Slot& s = *slots_[idx];
    ScopedSpan span(tracer_.get(), "bench.reply", s.op_id);
    const Time now = cluster_->sim().Now();
    // The checker sees the whole run, not only the window: a read of a
    // warm-up write would otherwise look like a read of nothing.
    const bool ok = r.status.ok() || r.status.IsNotFound();
    if (ok) {
      paxi::OpRecord rec;
      rec.invoke = s.invoke;
      rec.response = now;
      rec.is_write = s.is_write;
      rec.key = s.key;
      rec.value = s.is_write ? s.written : r.value;
      rec.found = s.is_write || r.found;
      rec.client = s.client->client_id();
      rec.request = static_cast<paxi::RequestId>(s.op_id & 0xffffffffULL);
      rec.read_mode = s.is_write ? 0 : r.read_mode;
      history_.push_back(std::move(rec));
    }
    if (ok && InWindow(s.invoke)) {
      ++ok_;
      if (s.is_write) ++ok_writes_;
      window_lat_.push_back(now - s.invoke);
      retries_ += static_cast<std::uint64_t>(std::max(0, r.attempts - 1));
    }
    if (w_.open_rate_ops_s > 0.0) {
      idle_[static_cast<std::size_t>(s.zone)].push_back(idx);
    } else if (now < deadline_) {
      IssueOp(idx);
    }
  }

  std::string HistoryDigest() const {
    paxi::Digest d;
    for (const paxi::OpRecord& op : history_) {
      d.Mix(static_cast<std::uint64_t>(op.invoke))
          .Mix(static_cast<std::uint64_t>(op.response))
          .Mix(static_cast<std::uint64_t>(op.key))
          .Mix(static_cast<std::uint64_t>(op.is_write))
          .Mix(static_cast<std::uint64_t>(op.found))
          .Mix(op.value)
          .Mix(static_cast<std::uint64_t>(op.client))
          .Mix(static_cast<std::uint64_t>(op.request))
          .Mix(static_cast<std::uint64_t>(op.read_mode));
    }
    d.Mix(static_cast<std::uint64_t>(events_total_));
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(d.value()));
    return buf;
  }

  Json Layers() const {
    const double ops = static_cast<double>(ok_);
    const double writes = static_cast<double>(ok_writes_);
    const LayerSnapshot& a = layers_at_open_;
    const LayerSnapshot& b = layers_at_close_;

    std::vector<std::int64_t> ev = timer_.samples();
    std::sort(ev.begin(), ev.end());

    std::uint64_t replica_msgs = 0;
    std::uint64_t busiest = 0;
    for (const auto& [dest, tally] : counter_.by_dest()) {
      if (dest.second >= paxi::Client::kClientNodeBase) continue;
      replica_msgs += tally.msgs;
      busiest = std::max(busiest, tally.msgs);
    }

    std::uint64_t log_entries = 0;
    for (const paxi::NodeId& id : cluster_->nodes()) {
      if (const paxi::Node* node = cluster_->node(id); node != nullptr) {
        log_entries += node->GetLogStats().log_entries;
      }
    }

    const double reads = static_cast<double>(
        (b.lease_reads - a.lease_reads) + (b.quorum_reads - a.quorum_reads) +
        (b.full_reads - a.full_reads));
    Json l;
    l.Num("sim.events_per_op",
          Ratio(static_cast<double>(window_events_), ops))
        .Num("sim.event_ns_p50", Percentile(ev, 50))
        .Num("sim.event_ns_p99", Percentile(ev, 99))
        .Num("pool.msgs_per_op",
             Ratio(static_cast<double>(b.pool_allocs - a.pool_allocs), ops))
        .Num("pool.fresh_allocs_per_op",
             Ratio(static_cast<double>(b.pool_fresh - a.pool_fresh), ops))
        .Num("pool.slab_mb",
             static_cast<double>(paxi::BlockPool::Local().stats().slab_bytes) /
                 (1024.0 * 1024.0))
        .Num("net.msgs_per_op",
             Ratio(static_cast<double>(counter_.total().msgs), ops))
        .Num("net.bytes_per_op",
             Ratio(static_cast<double>(counter_.total().bytes), ops))
        .Num("net.busiest_node_share",
             Ratio(static_cast<double>(busiest),
                   static_cast<double>(replica_msgs)))
        .Num("core.client_retries", static_cast<double>(retries_))
        .Num("core.log_entries_per_op",
             Ratio(static_cast<double>(log_entries),
                   static_cast<double>(history_.size())))
        .Num("wal.syncs_per_write",
             Ratio(static_cast<double>(b.wal_syncs - a.wal_syncs), writes))
        .Num("wal.group_commit",
             Ratio(static_cast<double>(b.wal_records_synced -
                                       a.wal_records_synced),
                   static_cast<double>(b.wal_syncs - a.wal_syncs)))
        .Num("wal.bytes_synced_per_write",
             Ratio(static_cast<double>(b.wal_bytes_synced - a.wal_bytes_synced),
                   writes))
        .Num("lease.read_share",
             Ratio(static_cast<double>(b.lease_reads - a.lease_reads), reads))
        .Num("lease.degrades",
             static_cast<double>(b.lease_degrades - a.lease_degrades))
        .Num("checker.history_ops", static_cast<double>(history_.size()));
    return l;
  }

  Json MessageTypes() const {
    std::vector<std::pair<std::string, MessageCounter::Tally>> types;
    for (const auto& [type, tally] : counter_.by_type()) {
      types.emplace_back(Demangle(type.name()), tally);
    }
    std::sort(types.begin(), types.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    Json j;
    for (const auto& [name, tally] : types) {
      Json t;
      t.Int("msgs", tally.msgs).Int("bytes", tally.bytes);
      j.Obj(name, t);
    }
    return j;
  }

  Json MessageDestinations() const {
    Json j;
    for (const auto& [dest, tally] : counter_.by_dest()) {
      j.Int(paxi::NodeId{dest.first, dest.second}.ToString(), tally.msgs);
    }
    return j;
  }

  const WorkloadDef& w_;
  const std::uint64_t seed_;
  const Clock::time_point origin_;
  std::unique_ptr<Tracer> tracer_;
  // The hook and observer outlive the cluster that points at them.
  MessageCounter counter_;
  EventTimer timer_;
  std::unique_ptr<paxi::Cluster> cluster_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<std::vector<std::size_t>> idle_;  ///< Open loop, by zone.
  paxi::Rng arrivals_;

  Time measure_start_ = 0;
  Time deadline_ = 0;
  std::vector<paxi::OpRecord> history_;
  std::vector<Time> window_lat_;
  std::uint64_t attempted_ = 0;
  std::uint64_t ok_ = 0;
  std::uint64_t ok_writes_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t window_events_ = 0;
  std::uint64_t events_total_ = 0;
  std::uint64_t anomalies_ = 0;
  LayerSnapshot layers_at_open_;
  LayerSnapshot layers_at_close_;
  ModelView model_;
  double run_s_ = 0.0;
  double setup_s_ = 0.0;
  double window_host_s_ = 0.0;
  double peak_rss_mb_ = 0.0;
};

int Main(int argc, char** argv) {
  std::string workload;
  std::string spans;
  std::uint64_t seed = 0;
  bool have_seed = false;
  bool traced = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--trace") {
      traced = value == "1";
    } else if (flag == "--spans") {
      spans = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!have_seed) {
    std::fprintf(stderr, "usage: %s --workload NAME --seed N [--trace 0|1] "
                         "[--spans FILE]\n", argv[0]);
    return 2;
  }
  const std::vector<WorkloadDef> defs = Workloads();
  const auto it = std::find_if(defs.begin(), defs.end(),
                               [&](const WorkloadDef& d) {
                                 return d.name == workload;
                               });
  if (it == defs.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  Trial trial(*it, seed, traced);
  trial.Run();
  if (traced && !spans.empty() && !trial.WriteSpans(spans)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans.c_str());
    return 1;
  }
  std::printf("%s\n", trial.ResultJson().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
