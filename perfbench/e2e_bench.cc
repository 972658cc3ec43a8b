// End-to-end pipeline benchmark: stream → sharded sketch → per-shard
// snapshots → queries, driven only through the library's public API
// (stream::GenerateDataset → ShardedVosSketch::UpdateBatch/Flush →
// QueryPlanner::Rebuild/Refresh → TopK/AllPairsAbove).
//
//   e2e_bench --workload <ingest_bulk|query_serving|refresh_churn>
//             [--seed N] [--seconds S] [--trace 0|1] [--scale F]
//             [--trace_out PATH] [--corrupt array|topk|allpairs]
//
// Each workload is a closed loop driven by this one process. A run is
// set-up (repeated kSetups times, median reported), then a timed phase of
// whole rounds until --seconds have passed, then a correctness gate.
// A round is the workload's fixed unit of work: epochs of ingest, then
// Flush + Refresh, then queries. The last stdout line is the JSON result
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. A traced run
// alternates traced and untraced rounds, so the tracing overhead is
// measured within one process. perfbench/README.md maps each metric to
// its layer and workload.
//
// --scale shrinks the dataset and candidate counts (tests use toy sizes);
// --corrupt damages one compared copy so the gate's refusal can be tested.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/kernels.h"
#include "common/random.h"
#include "core/query_planner.h"
#include "core/sharded_vos_sketch.h"
#include "core/vos_sketch.h"
#include "exact/exact_store.h"
#include "exact/pair_selection.h"
#include "stream/dataset.h"

namespace {

using vos::Rng;
using vos::core::QueryOptions;
using vos::core::QueryPlanner;
using vos::core::ShardedVosConfig;
using vos::core::ShardedVosSketch;
using vos::stream::Element;
using vos::stream::ItemId;
using vos::stream::UserId;
using Clock = std::chrono::steady_clock;

constexpr int kSetups = 3;          // set-ups per run; setup_s is their median
constexpr size_t kBatch = 4096;     // elements per UpdateBatch call
constexpr size_t kTopK = 10;        // k of every TopK query
constexpr size_t kAapeUsers = 500;  // users whose exact sets back `aape`
constexpr size_t kAapePairs = 20000;
constexpr size_t kGateSubset = 100;  // candidates AllPairsAboveReference checks

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}


// ------------------------------------------------------------ workloads

// Shared by every workload: the paper's k, four shards, and one query
// thread (a multi-threaded TopK spawns threads per call, whose start-up
// would dominate its tail on a shared host).
constexpr uint32_t kSketchK = 6400;
constexpr uint32_t kShards = 4;
constexpr unsigned kQueryThreads = 1;

struct Workload {
  const char* name;
  double dataset_scale;  // × youtube_s
  uint64_t m_bits;
  unsigned producers;        // lane 0 is the main thread
  unsigned ingest_threads;   // shard workers; 0 = default synchronous ingest
  size_t candidates;         // the top users by cardinality after warm-up
  double warm_passes;        // stream passes ingested during set-up
  // Elements per epoch. 0 = whole-pass epochs: each round ingests one pass
  // and then its exact reversal, so every round starts from the
  // post-warm-up state; otherwise rounds walk on down the stream.
  size_t epoch_elements;
  size_t epochs_per_round;
  size_t topk_per_epoch;
  size_t allpairs_every;  // AllPairsAbove after every n-th epoch
  double tau;
  size_t gate_topk;  // last-epoch TopK results checked against the reference
};

// At most four threads exist at once. ingest_bulk runs the main thread
// (producer lane 0, then the query thread), two shard workers, and the
// second producer lane while a pass is ingested. The query workloads run
// the sketch's default synchronous ingest on the main thread, so their
// timings do not hang on thread wake-ups.
const Workload kWorkloads[] = {
    {"ingest_bulk", 8.0, uint64_t{64} << 20, 2, 2, 1000, 1.0, 0, 2, 500, 1, 0.5,
     4},
    {"query_serving", 1.0, uint64_t{16} << 20, 1, 0, 3000, 0.8, 200, 100, 20,
     10, 0.5, 4},
    {"refresh_churn", 1.0, uint64_t{64} << 20, 1, 0, 12000, 0.8, 300, 100, 5,
     100, 0.9, 1},
};

bool ReversalRounds(const Workload& w) { return w.epoch_elements == 0; }

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;
  std::string trace_out;
  std::string corrupt;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "missing value for " + flag;
      return false;
    }
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") *error = "--trace takes 0 or 1";
    } else if (flag == "--scale") {
      args->scale = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace_out") {
      args->trace_out = value;
    } else if (flag == "--corrupt") {
      args->corrupt = value;
      if (value != "array" && value != "topk" && value != "allpairs") {
        *error = "--corrupt takes array, topk or allpairs";
      }
    } else {
      *error = "unknown flag " + flag;
    }
    if (end != nullptr && *end != '\0') *error = "bad number for " + flag;
    if (!error->empty()) return false;
  }
  if (!(args->seconds > 0) || !(args->scale > 0)) {
    *error = "--seconds and --scale must be positive";
    return false;
  }
  return true;
}

// ------------------------------------------------------------ JSON out

std::string Num(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

// ------------------------------------------------------------ statistics

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

std::vector<double> Pooled(const std::vector<std::vector<double>>& rounds) {
  std::vector<double> all;
  for (const auto& r : rounds) all.insert(all.end(), r.begin(), r.end());
  return all;
}

/// The q-quantile of per-call samples grouped by round. When every round
/// holds ≥ 10 samples beyond q, it is the median over rounds of each
/// round's quantile, so one disturbed round cannot move it; otherwise the
/// rounds are pooled.
double RoundQuantile(const std::vector<std::vector<double>>& rounds,
                     double q) {
  std::vector<double> per_round;
  for (const auto& r : rounds) {
    if ((1.0 - q) * static_cast<double>(r.size()) < 10.0) {
      return Quantile(Pooled(rounds), q);
    }
    per_round.push_back(Quantile(r, q));
  }
  return Median(per_round);
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

// ------------------------------------------------------------ host stamp

// Effective parallelism: the same ALU loop on 1 thread and on nproc
// threads (each doing the 1-thread amount); nproc·t1/tN is how many
// cores the host actually delivers. nproc alone can overstate it.
double AluLoop(uint64_t iterations) {
  uint64_t x = iterations | 1;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return static_cast<double>(x & 1);
}

std::string HostStamp() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  constexpr uint64_t kIters = 20'000'000;
  std::vector<double> sink(nproc, 0.0);
  const auto t0 = Clock::now();
  sink[0] = AluLoop(kIters);
  const auto t1 = Clock::now();
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < nproc; ++t) {
    threads.emplace_back([&sink, t] { sink[t] = AluLoop(kIters + t); });
  }
  for (std::thread& t : threads) t.join();
  const auto t2 = Clock::now();
  const double parallelism =
      nproc * Seconds(t0, t1) / std::max(1e-9, Seconds(t1, t2));
  const char* level =
      vos::kernels::LevelName(vos::kernels::ActiveLevel());
  return "{\"nproc\": " + std::to_string(nproc) + ", \"kernels\": " +
         Quote(level) + ", \"effective_parallelism\": " + Num(parallelism) +
         ", \"alu_probe_1thread_s\": " + Num(Seconds(t0, t1)) + "}";
}

// ------------------------------------------------------------ tracing

// One span per public call, recorded by the benchmark around the call.
// Spans of one epoch share its id; `parent` indexes the main-lane spans.
struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  int64_t parent;
  uint64_t epoch;
};

class Tracer {
 public:
  explicit Tracer(std::vector<Span>* lane) : lane_(lane) {}

  /// Runs `call`, returns its wall time, and records a span when tracing.
  template <typename Call>
  double Time(const char* name, int64_t parent, uint64_t epoch, Call&& call) {
    const auto t0 = Clock::now();
    call();
    const auto t1 = Clock::now();
    if (lane_ != nullptr) lane_->push_back({name, t0, t1, parent, epoch});
    return Seconds(t0, t1);
  }

  /// Opens a span that Close() ends; returns its index (−1 untraced).
  int64_t Open(const char* name, int64_t parent, uint64_t epoch) {
    if (lane_ == nullptr) return -1;
    const auto now = Clock::now();
    lane_->push_back({name, now, now, parent, epoch});
    return static_cast<int64_t>(lane_->size()) - 1;
  }
  void Close(int64_t span) {
    if (span >= 0) (*lane_)[static_cast<size_t>(span)].end = Clock::now();
  }

 private:
  std::vector<Span>* lane_;
};

// ------------------------------------------------------------ stream

// The workload's element source: the generated stream replayed pass after
// pass, each pass with item ids shifted to a fresh range so every prefix
// stays a feasible fully dynamic stream (no pass deletes another's edge).
class ElementSource {
 public:
  ElementSource(const std::vector<Element>* base, ItemId num_items)
      : base_(base), num_items_(num_items) {}

  size_t pass_size() const { return base_->size(); }

  /// Appends source elements [begin, begin + count) to `out`.
  void Copy(size_t begin, size_t count, std::vector<Element>* out) const {
    out->reserve(out->size() + count);
    for (size_t g = begin; g < begin + count; ++g) {
      Element e = (*base_)[g % base_->size()];
      e.item += static_cast<ItemId>(g / base_->size()) * num_items_;
      out->push_back(e);
    }
  }

 private:
  const std::vector<Element>* base_;
  ItemId num_items_;
};

// ------------------------------------------------------------ pipeline

struct Pipeline {
  vos::stream::GraphStream stream;
  std::unique_ptr<ElementSource> source;
  std::unique_ptr<ShardedVosSketch> sketch;
  std::unique_ptr<QueryPlanner> planner;
  std::vector<UserId> candidates;
  size_t consumed = 0;  // source elements ingested so far
  std::vector<Element> round_input;
};

/// The fixed input of a reversal round: pass 1 of the source (item ids
/// in a range the warm-up pass never used), then the same elements in
/// reverse order with every action inverted.
void PrepareReversalRound(Pipeline* p) {
  const size_t n = p->source->pass_size();
  p->round_input.clear();
  p->source->Copy(n, n, &p->round_input);
  for (size_t i = n; i-- > 0;) {
    Element e = p->round_input[i];
    e.action = e.action == vos::stream::Action::kInsert
                   ? vos::stream::Action::kDelete
                   : vos::stream::Action::kInsert;
    p->round_input.push_back(e);
  }
}

ShardedVosConfig SketchConfig(const Workload& w) {
  ShardedVosConfig config;
  config.base.k = kSketchK;
  config.base.m = w.m_bits;
  config.num_shards = kShards;
  config.ingest_threads = w.ingest_threads;
  config.ingest_producers = w.producers;
  return config;
}

QueryOptions PlannerOptions() {
  QueryOptions options;  // defaults: auto plan, no banding
  options.num_threads = kQueryThreads;
  options.incremental = true;  // Refresh() needs the incremental state
  return options;
}

/// Feeds `elements` in kBatch-sized UpdateBatch calls, lane p taking the
/// p-th contiguous share; lanes ≥ 1 run on their own thread and append
/// their spans to `side_lane` after the join. Returns the number of
/// UpdateBatch calls.
size_t Ingest(ShardedVosSketch& sketch, const std::vector<Element>& elements,
              size_t begin, size_t count, unsigned producers,
              std::vector<Span>* main_lane, std::vector<Span>* side_lane,
              int64_t parent, uint64_t epoch) {
  const size_t share = (count + producers - 1) / producers;
  auto feed = [&](unsigned lane, std::vector<Span>* spans) {
    Tracer tracer(spans);
    const size_t lo = begin + std::min(count, lane * share);
    const size_t hi = begin + std::min(count, (lane + 1) * share);
    size_t calls = 0;
    for (size_t t = lo; t < hi; t += kBatch, ++calls) {
      tracer.Time("sharded_vos_sketch.update_batch", parent, epoch, [&] {
        sketch.UpdateBatch(elements.data() + t, std::min(kBatch, hi - t), lane);
      });
    }
    return calls;
  };
  std::vector<size_t> calls(producers, 0);
  std::vector<std::vector<Span>> spans(producers);
  std::vector<std::thread> lanes;
  for (unsigned p = 1; p < producers; ++p) {
    lanes.emplace_back([&, p] {
      calls[p] = feed(p, side_lane != nullptr ? &spans[p] : nullptr);
    });
  }
  calls[0] = feed(0, main_lane);
  for (std::thread& t : lanes) t.join();
  for (const auto& lane : spans) {
    if (side_lane != nullptr) {
      side_lane->insert(side_lane->end(), lane.begin(), lane.end());
    }
  }
  return std::accumulate(calls.begin(), calls.end(), size_t{0});
}

/// Generation, pipeline construction, warm-up ingest and the first
/// Rebuild. Returns false if the warm-up flush fails.
bool SetUp(const Workload& w, const Args& args, Pipeline* p,
           double* rebuild_s) {
  vos::stream::DatasetSpec spec = *vos::stream::GetDatasetSpec("youtube_s");
  spec = vos::stream::ScaleSpec(spec, w.dataset_scale * args.scale);
  uint64_t mix = args.seed;
  spec.graph.seed = vos::SplitMix64Next(mix);
  spec.dynamics.seed = vos::SplitMix64Next(mix);
  p->stream = vos::stream::GenerateDataset(spec);
  p->source = std::make_unique<ElementSource>(&p->stream.elements(),
                                              p->stream.num_items());
  p->sketch = std::make_unique<ShardedVosSketch>(SketchConfig(w),
                                                 p->stream.num_users());

  const size_t warm = static_cast<size_t>(
      w.warm_passes * static_cast<double>(p->source->pass_size()));
  std::vector<Element> input;
  p->source->Copy(0, warm, &input);
  Ingest(*p->sketch, input, 0, warm, w.producers, nullptr, nullptr, -1, 0);
  p->consumed = warm;
  if (!p->sketch->Flush().ok() || p->sketch->dropped_elements() != 0) {
    return false;
  }

  std::vector<UserId> users(p->stream.num_users());
  std::iota(users.begin(), users.end(), UserId{0});
  const ShardedVosSketch& sketch = *p->sketch;
  std::stable_sort(users.begin(), users.end(), [&](UserId a, UserId b) {
    return sketch.Cardinality(a) > sketch.Cardinality(b);
  });
  const size_t n = std::max<size_t>(
      2, static_cast<size_t>(static_cast<double>(w.candidates) *
                             std::min(1.0, args.scale)));
  users.resize(std::min(n, users.size()));
  std::sort(users.begin(), users.end());
  p->candidates = users;

  p->planner = std::make_unique<QueryPlanner>(
      sketch, vos::core::VosEstimatorOptions{}, PlannerOptions());
  const auto t0 = Clock::now();
  p->planner->Rebuild(p->candidates);
  *rebuild_s = Seconds(t0, Clock::now());
  return true;
}

/// Average absolute percentage error of Ĵ against exact Jaccard over a
/// seeded sample of co-subscribing pairs among the highest-cardinality
/// candidates, on the sketch state right after set-up. The estimates come
/// from TopK over a planner of just the sampled users (TopK is asserted
/// bit-identical to per-pair EstimatePair).
double Aape(const Pipeline& p, uint64_t seed) {
  std::vector<UserId> users = p.candidates;
  std::stable_sort(users.begin(), users.end(), [&](UserId a, UserId b) {
    return p.sketch->Cardinality(a) > p.sketch->Cardinality(b);
  });
  users.resize(std::min(users.size(), kAapeUsers));
  std::sort(users.begin(), users.end());
  std::vector<bool> sampled(p.stream.num_users(), false);
  for (UserId u : users) sampled[u] = true;
  vos::exact::ExactStore store(p.stream.num_users());
  std::vector<Element> input;
  p.source->Copy(0, p.consumed, &input);
  for (const Element& e : input) {
    if (sampled[e.user]) store.Update(e);
  }

  QueryOptions options;
  options.num_threads = kQueryThreads;
  QueryPlanner planner(*p.sketch, vos::core::VosEstimatorOptions{}, options);
  planner.Rebuild(users);
  const size_t n = users.size();
  auto index = [&](UserId u) {
    return static_cast<size_t>(
        std::lower_bound(users.begin(), users.end(), u) - users.begin());
  };
  std::vector<double> estimate(n * n, 0.0);
  for (size_t a = 0; a < n; ++a) {
    for (const auto& entry : planner.TopK(users[a], n)) {
      estimate[a * n + index(entry.user)] = entry.jaccard;
    }
  }

  double sum = 0.0;
  size_t counted = 0;
  for (const auto& pair :
       vos::exact::PairsWithCommonItems(store, users, kAapePairs, seed)) {
    const double exact = store.Jaccard(pair.u, pair.v);
    if (exact <= 0.0) continue;
    sum += std::fabs(estimate[index(pair.u) * n + index(pair.v)] - exact) /
           exact;
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

// ------------------------------------------------------------ timed phase

struct RoundRecord {
  bool traced = false;
  double wall_s = 0.0;
  // End-to-end samples.
  std::vector<double> ingest_rate;  // per epoch
  std::vector<double> freshness_s;
  std::vector<double> topk_s;      // per call
  std::vector<double> allpairs_s;  // per call
  // Per-layer sums over the round (main lane).
  double update_batch_s = 0.0;
  double flush_s = 0.0;
  double refresh_s = 0.0;
  double plan_s = 0.0;
  size_t refresh_calls = 0;
  size_t refresh_incremental = 0;
  double dirty_fraction_sum = 0.0;
  size_t allpairs_pairs_out = 0;
  size_t window_pairs = 0;
  ShardedVosSketch::SpinStats spin_before;
  ShardedVosSketch::SpinStats spin_after;
};

// What the timed phase measures; reset after the warm-up round.
struct Samples {
  std::vector<RoundRecord> rounds;
  std::vector<Span> main_lane;
  std::vector<Span> side_lane;
};

struct RunState {
  Samples samples;
  // Results of the last epoch, re-checked by the gate.
  std::vector<std::pair<UserId, std::vector<QueryPlanner::Entry>>> last_topk;
  std::vector<QueryPlanner::Pair> last_allpairs;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void RunRound(const Workload& w, Pipeline& p, bool traced, uint64_t* epoch_id,
              Rng& rng, RunState* run) {
  const size_t epoch_elements =
      w.epoch_elements > 0 ? w.epoch_elements : p.source->pass_size();
  if (!ReversalRounds(w)) {
    const size_t round_elements = epoch_elements * w.epochs_per_round;
    p.round_input.clear();
    p.source->Copy(p.consumed, round_elements, &p.round_input);
    p.consumed += round_elements;
  }
  const std::vector<Element>& input = p.round_input;

  Samples& samples = run->samples;
  RoundRecord rec;
  rec.traced = traced;
  rec.spin_before = p.sketch->IngestSpinStats();
  std::vector<Span>* main_lane = traced ? &samples.main_lane : nullptr;
  std::vector<Span>* side_lane = traced ? &samples.side_lane : nullptr;
  Tracer tracer(main_lane);
  const size_t first_span = samples.main_lane.size();
  const auto round_start = Clock::now();
  const int64_t round_span = tracer.Open("bench.round", -1, *epoch_id);
  for (size_t e = 0; e < w.epochs_per_round; ++e) {
    const uint64_t epoch = (*epoch_id)++;
    const int64_t epoch_span = tracer.Open("bench.epoch", round_span, epoch);
    const auto ingest_start = Clock::now();
    run->attempted += Ingest(*p.sketch, input, e * epoch_elements,
                             epoch_elements, w.producers, main_lane,
                             side_lane, epoch_span, epoch);
    const auto last_update = Clock::now();
    vos::Status flushed;
    rec.flush_s += tracer.Time("sharded_vos_sketch.flush", epoch_span, epoch,
                               [&] { flushed = p.sketch->Flush(); });
    const auto flush_end = Clock::now();
    ++run->attempted;
    if (!flushed.ok() || p.sketch->dropped_elements() != 0) {
      ++run->failed;
      std::fprintf(stderr, "flush failed: %s, dropped %llu\n",
                   flushed.ToString().c_str(),
                   static_cast<unsigned long long>(
                       p.sketch->dropped_elements()));
    }
    bool incremental = false;
    rec.refresh_s += tracer.Time("query_planner.refresh", epoch_span, epoch,
                                 [&] { incremental = p.planner->Refresh(); });
    const auto refresh_end = Clock::now();
    ++run->attempted;
    ++rec.refresh_calls;
    rec.refresh_incremental += incremental ? 1 : 0;
    double dirty = 0.0;
    for (uint32_t s = 0; s < kShards; ++s) {
      dirty += p.planner->shard_index(s).last_refresh_dirty_fraction();
    }
    rec.dirty_fraction_sum += dirty / kShards;
    rec.freshness_s.push_back(Seconds(last_update, refresh_end));
    rec.ingest_rate.push_back(static_cast<double>(epoch_elements) /
                              Seconds(ingest_start, flush_end));

    const bool last_epoch = e + 1 == w.epochs_per_round;
    if (last_epoch) run->last_topk.clear();
    for (size_t q = 0; q < w.topk_per_epoch; ++q) {
      const UserId query = p.candidates[rng.NextBounded(p.candidates.size())];
      std::vector<QueryPlanner::Entry> result;
      rec.topk_s.push_back(
          tracer.Time("query_planner.topk", epoch_span, epoch,
                      [&] { result = p.planner->TopK(query, kTopK); }));
      ++run->attempted;
      if (last_epoch) run->last_topk.emplace_back(query, std::move(result));
    }
    if ((e + 1) % w.allpairs_every == 0) {
      std::vector<vos::core::optimizer::PassReport> reports;
      rec.plan_s += tracer.Time("query_optimizer.plan", epoch_span, epoch, [&] {
        reports = p.planner->PlanAllPairs(w.tau);
      });
      for (const auto& r : reports) rec.window_pairs += r.stats.exact_pairs;
      std::vector<QueryPlanner::Pair> pairs;
      rec.allpairs_s.push_back(
          tracer.Time("query_planner.allpairs", epoch_span, epoch,
                      [&] { pairs = p.planner->AllPairsAbove(w.tau); }));
      rec.allpairs_pairs_out += pairs.size();
      run->attempted += 2;
      if (last_epoch) run->last_allpairs = std::move(pairs);
    }
    tracer.Close(epoch_span);
  }
  tracer.Close(round_span);
  rec.wall_s = Seconds(round_start, Clock::now());
  rec.spin_after = p.sketch->IngestSpinStats();
  for (size_t i = first_span; i < samples.main_lane.size(); ++i) {
    const Span& s = samples.main_lane[i];
    if (std::strcmp(s.name, "sharded_vos_sketch.update_batch") == 0) {
      rec.update_batch_s += Seconds(s.start, s.end);
    }
  }
  samples.rounds.push_back(rec);
}

// ------------------------------------------------------------ gate

bool SameEntries(const std::vector<QueryPlanner::Entry>& a,
                 const std::vector<QueryPlanner::Entry>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].user != b[i].user || a[i].common != b[i].common ||
        a[i].jaccard != b[i].jaccard) {
      return false;
    }
  }
  return true;
}

bool SamePairs(const std::vector<QueryPlanner::Pair>& a,
               const std::vector<QueryPlanner::Pair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].u != b[i].u || a[i].v != b[i].v || a[i].common != b[i].common ||
        a[i].jaccard != b[i].jaccard) {
      return false;
    }
  }
  return true;
}

/// Checks the run's final state and last results. Every check is one
/// attempted operation; a miss is one failed operation.
void Gate(const Workload& w, const Args& args, const Pipeline& p,
          RunState* run) {
  auto check = [&](bool ok, const char* what) {
    ++run->attempted;
    if (!ok) {
      ++run->failed;
      std::fprintf(stderr, "gate: %s mismatch\n", what);
    }
  };

  // 1. Flushed shard arrays and cardinalities equal a synchronous replay.
  ShardedVosConfig sync_config = SketchConfig(w);
  sync_config.ingest_threads = 0;
  sync_config.ingest_producers = 1;
  ShardedVosSketch replay(sync_config, p.stream.num_users());
  auto feed = [&replay](const std::vector<Element>& input) {
    for (size_t t = 0; t < input.size(); t += kBatch) {
      replay.UpdateBatch(input.data() + t, std::min(kBatch, input.size() - t));
    }
  };
  for (size_t begin = 0; begin < p.consumed; begin += p.source->pass_size()) {
    std::vector<Element> input;
    p.source->Copy(begin, std::min(p.source->pass_size(), p.consumed - begin),
                   &input);
    feed(input);
  }
  // Reversal rounds all cancel out; replaying one of them stands for all.
  if (ReversalRounds(w)) feed(p.round_input);
  bool same_state = replay.Flush().ok();
  for (uint32_t s = 0; s < kShards; ++s) {
    std::vector<uint64_t> words = p.sketch->shard(s).array().words();
    if (args.corrupt == "array" && s == 0 && !words.empty()) words[0] ^= 1;
    same_state = same_state && words == replay.shard(s).array().words();
  }
  for (UserId u = 0; u < p.stream.num_users(); ++u) {
    same_state =
        same_state && p.sketch->Cardinality(u) == replay.Cardinality(u);
  }
  check(same_state, "sharded state vs synchronous replay");

  // 2. The last epoch's TopK results equal TopKReference on that state.
  for (size_t i = 0; i < run->last_topk.size() && i < w.gate_topk; ++i) {
    auto [query, result] = run->last_topk[i];
    if (args.corrupt == "topk" && i == 0 && !result.empty()) {
      result[0].jaccard = std::nextafter(result[0].jaccard, 2.0);
    }
    check(SameEntries(result, p.planner->TopKReference(query, kTopK)),
          "TopK vs TopKReference");
  }

  // 3. AllPairsAbove equals AllPairsAboveReference on a fixed candidate
  // subset, both on a subset planner and within the run's last result.
  Rng rng(args.seed ^ 0xa11ba1125ULL);
  std::vector<UserId> subset = p.candidates;
  for (size_t i = 0; i < subset.size(); ++i) {
    std::swap(subset[i], subset[i + rng.NextBounded(subset.size() - i)]);
  }
  subset.resize(std::min(subset.size(), kGateSubset));
  std::sort(subset.begin(), subset.end());
  QueryPlanner sub(*p.sketch, vos::core::VosEstimatorOptions{},
                   PlannerOptions());
  sub.Rebuild(subset);
  const auto reference = sub.AllPairsAboveReference(w.tau);
  check(SamePairs(sub.AllPairsAbove(w.tau), reference),
        "subset AllPairsAbove vs AllPairsAboveReference");
  std::vector<QueryPlanner::Pair> restricted;
  for (const auto& pair : run->last_allpairs) {
    if (std::binary_search(subset.begin(), subset.end(), pair.u) &&
        std::binary_search(subset.begin(), subset.end(), pair.v)) {
      restricted.push_back(pair);
    }
  }
  if (args.corrupt == "allpairs") {
    if (restricted.empty()) {
      restricted.push_back({subset[0], subset[1], 1.0, 1.0});
    } else {
      restricted.pop_back();
    }
  }
  check(SamePairs(restricted, reference),
        "run AllPairsAbove vs AllPairsAboveReference on the subset");
}

// ------------------------------------------------------------ reporting

std::string RoundTimes(const std::vector<RoundRecord>& rounds) {
  std::string out;
  for (const RoundRecord& r : rounds) {
    out += (out.empty() ? "" : ", ") + Num(r.wall_s);
  }
  return out;
}

double PeakRssMib() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double SerialUpdatesPerSecond(const Workload& w, const Pipeline& p) {
  vos::core::VosSketch serial(SketchConfig(w).base, p.stream.num_users());
  const auto& elements = p.stream.elements();
  const auto t0 = Clock::now();
  for (const Element& e : elements) serial.Update(e);
  const double s = Seconds(t0, Clock::now());
  return static_cast<double>(elements.size()) / s;
}

void WriteTrace(const std::string& path, const std::string& header,
                const Samples& samples) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const Clock::time_point origin = samples.main_lane.empty()
                                       ? Clock::now()
                                       : samples.main_lane.front().start;
  auto lane = [&](const std::vector<Span>& spans) {
    std::string s = "[";
    for (size_t i = 0; i < spans.size(); ++i) {
      if (i > 0) s += ",\n";
      s += "{\"name\": " + Quote(spans[i].name) +
           ", \"start_s\": " + Num(Seconds(origin, spans[i].start)) +
           ", \"end_s\": " + Num(Seconds(origin, spans[i].end)) +
           ", \"parent\": " + std::to_string(spans[i].parent) +
           ", \"epoch\": " + std::to_string(spans[i].epoch) + "}";
    }
    return s + "]";
  };
  out << "{" << header << ",\n\"main_lane\": " << lane(samples.main_lane)
      << ",\n\"side_lane\": " << lane(samples.side_lane) << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "e2e_bench: %s\n", error.c_str());
    return 2;
  }
  for (const char* var : {"VOS_PLAN", "VOS_FAULTS", "VOS_DISPATCH"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "e2e_bench: refusing to run with %s set: it changes the "
                   "program being measured\n",
                   var);
      return 2;
    }
  }
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "e2e_bench: unknown --workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const std::string host = HostStamp();

  // Set-up, kSetups times; the last pipeline is the one measured.
  std::unique_ptr<Pipeline> pipeline;
  std::vector<double> setup_s, rebuild_s;
  for (int i = 0; i < kSetups; ++i) {
    pipeline.reset();
    pipeline = std::make_unique<Pipeline>();
    const auto t0 = Clock::now();
    double rebuild = 0.0;
    if (!SetUp(w, args, pipeline.get(), &rebuild)) {
      std::fprintf(stderr, "e2e_bench: warm-up ingest failed\n");
      return 1;
    }
    setup_s.push_back(Seconds(t0, Clock::now()));
    rebuild_s.push_back(rebuild);
  }
  Pipeline& p = *pipeline;
  if (ReversalRounds(w)) PrepareReversalRound(&p);
  const double aape = Aape(p, args.seed);

  // Timed phase: whole rounds until --seconds have passed; a traced run
  // alternates untraced and traced rounds.
  RunState run;
  Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 1);
  uint64_t epoch_id = 0;
  RunRound(w, p, false, &epoch_id, rng, &run);  // warm-up, not measured
  run.samples = Samples{};
  const auto phase_start = Clock::now();
  for (size_t r = 0;; ++r) {
    const bool traced = args.trace && r % 2 == 1;
    RunRound(w, p, traced, &epoch_id, rng, &run);
    const bool enough = args.trace ? r % 2 == 1 && r >= 3 : r >= 2;
    if (enough && Seconds(phase_start, Clock::now()) >= args.seconds) break;
  }
  const Samples& m = run.samples;

  double beta_max = 0.0;
  for (uint32_t s = 0; s < kShards; ++s) {
    beta_max = std::max(beta_max, p.sketch->shard(s).beta());
  }
  Gate(w, args, p, &run);

  std::vector<double> untraced_s, traced_s;
  std::vector<std::vector<double>> ingest_rate, freshness, topk, allpairs;
  for (const RoundRecord& r : m.rounds) {
    (r.traced ? traced_s : untraced_s).push_back(r.wall_s);
    if (r.traced) continue;
    ingest_rate.push_back(r.ingest_rate);
    freshness.push_back(r.freshness_s);
    topk.push_back(r.topk_s);
    allpairs.push_back(r.allpairs_s);
  }
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"run_s", Median(untraced_s), "s"},
        {"ingest_updates_per_s", Median(Pooled(ingest_rate)), "1/s"},
        {"freshness_p50_ms", 1e3 * RoundQuantile(freshness, 0.5), "ms"},
        {"freshness_p90_ms", 1e3 * RoundQuantile(freshness, 0.9), "ms"},
        {"topk_p50_ms", 1e3 * RoundQuantile(topk, 0.5), "ms"},
        {"topk_p99_ms", 1e3 * RoundQuantile(topk, 0.99), "ms"},
        {"allpairs_p50_ms", 1e3 * RoundQuantile(allpairs, 0.5), "ms"},
        {"peak_rss_mib", PeakRssMib(), "MiB"},
        {"aape", aape, "ratio"},
    };
  } else {
    // Per traced round means, so the time metrics add up to bench.run_s.
    double n = 0, update = 0, flush = 0, refresh = 0, topk = 0, allpairs = 0,
           plan = 0, wall = 0, refresh_calls = 0, incremental = 0,
           dirty = 0, topk_calls = 0, pairs_out = 0, window = 0,
           push_parks = 0, idle_parks = 0, spin_saves = 0;
    for (const RoundRecord& r : m.rounds) {
      if (!r.traced) continue;
      ++n;
      update += r.update_batch_s;
      flush += r.flush_s;
      refresh += r.refresh_s;
      topk += std::accumulate(r.topk_s.begin(), r.topk_s.end(), 0.0);
      allpairs +=
          std::accumulate(r.allpairs_s.begin(), r.allpairs_s.end(), 0.0);
      plan += r.plan_s;
      wall += r.wall_s;
      refresh_calls += r.refresh_calls;
      incremental += r.refresh_incremental;
      dirty += r.dirty_fraction_sum;
      topk_calls += static_cast<double>(r.topk_s.size());
      pairs_out += r.allpairs_pairs_out;
      window += r.window_pairs;
      push_parks += r.spin_after.push_parks - r.spin_before.push_parks;
      idle_parks += r.spin_after.idle_parks - r.spin_before.idle_parks;
      spin_saves +=
          r.spin_after.push_spin_saves - r.spin_before.push_spin_saves;
    }
    const double gap =
        wall - (update + flush + refresh + topk + allpairs + plan);
    metrics = {
        {"sharded_vos_sketch.update_batch_s", update / n, "s"},
        {"sharded_vos_sketch.flush_s", flush / n, "s"},
        {"sharded_vos_sketch.push_parks", push_parks / n, "count"},
        {"sharded_vos_sketch.idle_parks", idle_parks / n, "count"},
        {"sharded_vos_sketch.push_spin_saves", spin_saves / n, "count"},
        {"sharded_vos_sketch.dropped_elements",
         static_cast<double>(p.sketch->dropped_elements()), "count"},
        {"sharded_vos_sketch.memory_bits",
         static_cast<double>(p.sketch->MemoryBits()), "bits"},
        {"vos_sketch.beta_max", beta_max, "ratio"},
        {"vos_sketch.serial_updates_per_s", SerialUpdatesPerSecond(w, p),
         "1/s"},
        {"query_planner.refresh_s", refresh / n, "s"},
        {"query_planner.refresh_incremental", incremental / n, "count"},
        {"query_planner.refresh_calls", refresh_calls / n, "count"},
        {"query_planner.rebuild_s", Median(rebuild_s), "s"},
        {"similarity_index.dirty_fraction_mean", dirty / refresh_calls,
         "ratio"},
        {"query_planner.topk_s", topk / n, "s"},
        {"query_planner.topk_calls", topk_calls / n, "count"},
        {"query_planner.allpairs_s", allpairs / n, "s"},
        {"query_planner.allpairs_pairs_out", pairs_out / n, "count"},
        {"query_optimizer.plan_s", plan / n, "s"},
        {"query_optimizer.window_pairs", window / n, "count"},
        {"bench.run_s", wall / n, "s"},
        {"bench.gap_s", gap / n, "s"},
        {"bench.trace_overhead", Mean(traced_s) / Mean(untraced_s), "ratio"},
    };
  }

  // Metadata that is never compared: host stamp and sample counts.
  std::string header =
      "\"workload\": " + Quote(w.name) + ", \"seed\": " +
      std::to_string(args.seed) + ", \"host\": " + host +
      ", \"users\": " + std::to_string(p.stream.num_users()) +
      ", \"pass_elements\": " + std::to_string(p.source->pass_size()) +
      ", \"candidates\": " + std::to_string(p.candidates.size()) +
      ", \"round_s\": [" + RoundTimes(m.rounds) + "]" +
      ", \"freshness_samples\": " + std::to_string(Pooled(freshness).size()) +
      ", \"topk_samples\": " + std::to_string(Pooled(topk).size()) +
      ", \"allpairs_samples\": " + std::to_string(Pooled(allpairs).size());
  std::printf("{%s}\n", header.c_str());
  if (!args.trace_out.empty()) {
    WriteTrace(args.trace_out,
               header + ", \"metrics\": " + MetricsJson(metrics), m);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              run.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed),
              MetricsJson(metrics).c_str());
  return 0;
}
