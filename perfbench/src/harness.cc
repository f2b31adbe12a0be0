#include "harness.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "base/stopwatch.h"
#include "stats.h"

namespace perfbench {

using educe::Engine;
using educe::EngineStats;
using educe::Session;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kSetups = 9;
/// The untraced window is sampled in slices of about this length, while
/// the clients run; throughput and CPU per operation are the medians over
/// the slices, so a stall of the host in one slice does not move them.
constexpr double kSliceSeconds = 2.0;
/// Spans kept per client thread; the trace of a long run keeps its start.
constexpr size_t kMaxSpansPerClient = 20000;

uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// Process CPU time (user + system, every thread) in seconds.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double Per(double total, double count) { return count > 0 ? total / count : 0; }

/// One slice of a measured window.
struct Slice {
  double wall_s = 0;
  uint64_t ops = 0;  // operations completed in the slice
  double cpu_s = 0;  // process CPU time spent in the slice
};

/// Closed-loop client threads, run in windows. Between windows every
/// client is parked at a barrier, so the main thread can read counters
/// and switch tracing without racing an operation in flight.
class ClosedLoop {
 public:
  ClosedLoop(Workload* workload, int clients)
      : workload_(workload),
        tallies_(static_cast<size_t>(clients)),
        completed_(static_cast<size_t>(clients)) {
    for (int c = 0; c < clients; ++c) {
      threads_.emplace_back([this, c] { ClientMain(c); });
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return paused_ == static_cast<int>(threads_.size()); });
  }

  ~ClosedLoop() { Stop(); }
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  /// Runs every client for `seconds`; `mid` (if set) runs halfway. With
  /// `slices`, the window is also cut into an even number of slices,
  /// each sampled without pausing the clients. Returns the window's wall
  /// time, resume to the last client parked.
  double RunWindow(double seconds, bool measured, bool traced,
                   const std::function<void()>& mid,
                   std::vector<Slice>* slices = nullptr) {
    for (ClientTally& t : tallies_) {
      t.window_ops = t.window_reads = t.window_writes = 0;
    }
    const int n =
        slices == nullptr
            ? 2
            : 2 * std::max(1, static_cast<int>(std::lround(
                                  seconds / (2 * kSliceSeconds))));
    const Clock::time_point start = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      measured_ = measured;
      traced_ = traced;
      paused_ = 0;
      pause_.store(false, std::memory_order_release);
      ++generation_;
    }
    cv_.notify_all();
    Clock::time_point last = start;
    uint64_t last_ops = CompletedOps();
    double last_cpu = ProcessCpuSeconds();
    for (int i = 1; i <= n; ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds * i / n)));
      if (slices != nullptr) {
        const Clock::time_point now = Clock::now();
        const uint64_t ops = CompletedOps();
        const double cpu = ProcessCpuSeconds();
        slices->push_back({std::chrono::duration<double>(now - last).count(),
                           ops - last_ops, cpu - last_cpu});
        last = now;
        last_ops = ops;
        last_cpu = cpu;
      }
      if (i == n / 2 && mid) mid();
    }
    pause_.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return paused_ == static_cast<int>(threads_.size()); });
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopped_) return;
      stopped_ = true;
      ++generation_;
    }
    cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  std::vector<ClientTally>& tallies() { return tallies_; }

  /// Operations completed by every client so far, every window.
  uint64_t CompletedOps() const {
    uint64_t ops = 0;
    for (const auto& c : completed_) {
      ops += c.load(std::memory_order_relaxed);
    }
    return ops;
  }
  void set_clock(educe::obs::Tracer* clock) { clock_ = clock; }

 private:
  void ClientMain(int c) {
    ClientTally& tally = tallies_[static_cast<size_t>(c)];
    uint64_t seq = 0;
    bool profiling = false;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      tally.thread_cpu_ns = ThreadCpuNs();
      ++paused_;
      cv_.notify_all();
      const uint64_t generation = generation_;
      cv_.wait(lock, [&] { return generation_ != generation; });
      if (stopped_) return;
      const bool measured = measured_;
      const bool traced = traced_;
      lock.unlock();
      if (traced != profiling) {
        workload_->SetClientProfiling(c, traced);
        profiling = traced;
      }
      while (!pause_.load(std::memory_order_acquire)) {
        {
          const Clock::time_point wait =
              traced ? Clock::now() : Clock::time_point();
          const bool go = workload_->Pace(c, pause_);
          if (traced) {
            tally.paced_ns += static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - wait)
                    .count());
          }
          if (!go) break;
        }
        OpCtx ctx;
        ctx.op_id = (static_cast<uint64_t>(c + 1) << 40) | (seq + 1);
        ctx.traced = traced;
        ctx.tally = &tally;
        ctx.clock = clock_;
        const Clock::time_point t0 = Clock::now();
        const OpKind kind = workload_->RunOp(c, seq, &ctx);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - t0)
                .count();
        ++seq;
        ++tally.ops;
        ++tally.window_ops;
        completed_[static_cast<size_t>(c)].fetch_add(1,
                                                     std::memory_order_relaxed);
        if (kind == OpKind::kWrite) {
          ++tally.window_writes;
          if (measured) tally.write_ms.push_back(ms);
        } else {
          ++tally.window_reads;
          if (measured) tally.read_ms.push_back(ms);
        }
      }
      lock.lock();
    }
  }

  Workload* workload_;
  educe::obs::Tracer* clock_ = nullptr;
  std::vector<ClientTally> tallies_;
  // Operations completed per client, read while the clients run.
  std::vector<std::atomic<uint64_t>> completed_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  int paused_ = 0;            // guarded by mu_
  uint64_t generation_ = 0;   // guarded by mu_
  bool stopped_ = false;      // guarded by mu_
  bool measured_ = false;     // guarded by mu_
  bool traced_ = false;       // guarded by mu_
  std::atomic<bool> pause_{true};
};

/// Counters diffed over a window: the engine-wide totals (exact under
/// concurrent sessions, unlike per-query profiles) plus the machines and
/// resolvers of the benchmark's own sessions.
struct Snapshot {
  EngineStats engine;
  educe::dict::DictionaryStats dict;
  educe::wam::MachineStats machine;
  educe::edb::ResolverStats resolver;
  std::vector<uint64_t> thread_cpu_ns;
};

Snapshot Take(Workload* workload, ClosedLoop* loop) {
  Snapshot s;
  s.engine = workload->engine()->Stats();
  s.dict = workload->engine()->dictionary()->stats();
  for (Session* session : workload->sessions()) {
    const educe::wam::MachineStats& m = session->machine()->stats();
    s.machine.instructions += m.instructions;
    s.machine.choice_points += m.choice_points;
    s.machine.choice_points_eliminated += m.choice_points_eliminated;
    s.resolver.resolve_ns += session->resolver()->stats().resolve_ns;
  }
  for (const ClientTally& t : loop->tallies()) {
    s.thread_cpu_ns.push_back(t.thread_cpu_ns);
  }
  return s;
}

struct Window {
  double wall_s = 0;
  uint64_t ops = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
};

Window Summarize(double wall_s, ClosedLoop* loop) {
  Window w;
  w.wall_s = wall_s;
  for (const ClientTally& t : loop->tallies()) {
    w.ops += t.window_ops;
    w.reads += t.window_reads;
    w.writes += t.window_writes;
  }
  return w;
}

class JsonMetrics {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", value);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
             "\"}";
  }
  const std::string& body() const { return body_; }

 private:
  std::string body_;
};

std::string SpanEvents(const std::vector<ClientTally>& tallies) {
  std::string out;
  char buf[320];
  for (size_t c = 0; c < tallies.size(); ++c) {
    for (const Span& s : tallies[c].spans) {
      std::snprintf(buf, sizeof(buf),
                    ",{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\","
                    "\"ts\":%llu.%03llu,\"dur\":%llu.%03llu,\"pid\":2,"
                    "\"tid\":%zu,\"args\":{\"trace_id\":\"%llu\"}}",
                    s.name,
                    static_cast<unsigned long long>(s.start_ns / 1000),
                    static_cast<unsigned long long>(s.start_ns % 1000),
                    static_cast<unsigned long long>(s.duration_ns / 1000),
                    static_cast<unsigned long long>(s.duration_ns % 1000),
                    c, static_cast<unsigned long long>(s.trace_id));
      out += buf;
    }
  }
  return out;
}

/// Writes the engine's drained spans and the benchmark's own as one
/// Chrome trace_event document (pid 1 = engine rings, pid 2 = clients).
void WriteTrace(Engine* engine, const std::vector<ClientTally>& tallies,
                const std::string& path) {
  std::string doc = engine->DrainSpansChromeTrace();
  std::string events = SpanEvents(tallies);
  const size_t close = doc.rfind("]}");
  if (close == std::string::npos) return;
  const bool engine_empty = doc[close - 1] == '[';
  if (engine_empty && !events.empty()) events.erase(0, 1);
  doc.insert(close, events);
  std::ofstream out(path);
  out << doc;
}

}  // namespace

Timed::Timed(OpCtx* ctx, const char* name, uint64_t* acc, bool span)
    : ctx_(ctx->traced ? ctx : nullptr), name_(name), acc_(acc), span_(span) {
  if (ctx_ != nullptr) start_ns_ = ctx_->clock->NowNanos();
}

Timed::~Timed() {
  if (ctx_ == nullptr) return;
  const uint64_t duration = ctx_->clock->NowNanos() - start_ns_;
  if (acc_ != nullptr) *acc_ += duration;
  if (span_ && ctx_->tally->spans.size() < kMaxSpansPerClient) {
    ctx_->tally->spans.push_back({name_, start_ns_, duration, ctx_->op_id});
  }
}

bool RunQuery(Session* session, const std::string& goal, OpCtx* ctx,
              const std::function<void(const educe::Solutions&)>& row) {
  std::unique_ptr<educe::Solutions> solutions;
  {
    Timed timed(ctx, "Session::Query", &ctx->tally->query_open_ns);
    auto opened = session->Query(goal, ctx->op_id);
    if (!opened.ok()) {
      ctx->tally->Fail(goal + ": " + opened.status().ToString());
      return false;
    }
    solutions = std::move(opened).value();
  }
  Timed pump(ctx, "Solutions (all answers)");
  while (true) {
    educe::base::Result<bool> next = false;
    {
      Timed timed(ctx, "Solutions::Next", &ctx->tally->next_ns, false);
      next = solutions->Next();
    }
    if (!next.ok()) {
      ctx->tally->Fail(goal + ": " + next.status().ToString());
      return false;
    }
    if (!*next) return true;
    row(*solutions);
  }
}

educe::base::Status TimeFrontEnd(Engine* engine,
                                 const std::vector<std::string_view>& texts,
                                 std::string_view rules, SetupLayers* layers) {
  {
    educe::dict::Dictionary parse_only;
    SetupTimer timer(&layers->parse_ms);
    for (std::string_view text : texts) {
      EDUCE_RETURN_IF_ERROR(educe::reader::ParseProgram(&parse_only, text).status());
    }
  }
  if (rules.empty()) return educe::base::Status::OK();
  EDUCE_ASSIGN_OR_RETURN(
      std::vector<educe::reader::ReadTerm> clauses,
      educe::reader::ParseProgram(engine->dictionary(), rules));
  SetupTimer timer(&layers->compile_ms);
  for (const educe::reader::ReadTerm& clause : clauses) {
    EDUCE_RETURN_IF_ERROR(
        engine->program()->compiler()->Compile(clause.term).status());
  }
  return educe::base::Status::OK();
}

SetupTimer::SetupTimer(double* acc)
    : acc_(acc), start_(std::chrono::steady_clock::now()) {}

SetupTimer::~SetupTimer() {
  if (acc_ == nullptr) return;
  *acc_ += std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
               .count();
}

int RunBenchmark(Workload* workload, const Args& args) {
  // --- Set-up, repeated: the reported figure is the median. -------------
  std::vector<double> setup_s;
  SetupLayers layers;
  for (int i = 0; i < kSetups; ++i) {
    if (i > 0) workload->Teardown();
    const bool last = i + 1 == kSetups;
    educe::base::Stopwatch watch;
    const educe::base::Status status =
        workload->Setup(args.trace && last ? &layers : nullptr);
    setup_s.push_back(watch.ElapsedSeconds());
    if (!status.ok()) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  std::fprintf(stderr, "perfbench: set-ups");
  for (double t : setup_s) std::fprintf(stderr, " %.4f", t);
  std::fprintf(stderr, " s\n");

  const double seconds = args.seconds;
  const double warmup_s = std::min(3.0, std::max(1.0, seconds / 5));
  FinishReport finish;
  ClosedLoop loop(workload, workload->clients());
  loop.set_clock(workload->engine()->tracer());
  auto mid = [&] { workload->MidWindow(&finish); };

  loop.RunWindow(warmup_s, /*measured=*/false, /*traced=*/false, nullptr);
  Window untraced;
  Window traced;
  Snapshot before;
  Snapshot after;
  std::vector<double> slice_qps;
  std::vector<double> slice_cpu_ms;
  size_t checkpoints_untraced = 0;
  if (!args.trace) {
    std::vector<Slice> slices;
    untraced = Summarize(loop.RunWindow(seconds, true, false, mid, &slices),
                         &loop);
    std::fprintf(stderr, "perfbench: slices (ops/s / CPU ms per op):");
    for (const Slice& slice : slices) {
      slice_qps.push_back(Per(static_cast<double>(slice.ops), slice.wall_s));
      slice_cpu_ms.push_back(
          Per(slice.cpu_s * 1e3, static_cast<double>(slice.ops)));
      std::fprintf(stderr, " %.1f/%.3f", slice_qps.back(), slice_cpu_ms.back());
    }
    std::fprintf(stderr, "\n");
  } else {
    // Half untraced, half traced, same clients and data: the ratio of
    // their wall time per operation is the tracing overhead.
    untraced =
        Summarize(loop.RunWindow(seconds / 2, true, false, mid), &loop);
    checkpoints_untraced = finish.checkpoint_ms.size();
    workload->engine()->SetProfiling(true);
    for (ClientTally& t : loop.tallies()) {
      t.query_open_ns = t.next_ns = t.first_reply_ns = t.stream_ns = 0;
      t.paced_ns = 0;
      t.bindings = 0;
    }
    before = Take(workload, &loop);
    traced = Summarize(loop.RunWindow(seconds / 2, false, true, mid),
                       &loop);
    after = Take(workload, &loop);
  }
  loop.Stop();
  // Read before Finish, which may close the engine and its sessions.
  const educe::EngineMemoryReport memory =
      workload->engine()->Stats().memory;
  std::fprintf(stderr,
               "perfbench: paged file %.2f MiB, buffer pool %.2f MiB, code "
               "cache %.3f of %.2f MiB resident\n",
               static_cast<double>(memory.paged_file_bytes) / (1 << 20),
               static_cast<double>(memory.buffer_capacity_bytes) / (1 << 20),
               static_cast<double>(memory.code_cache_resident_bytes) / (1 << 20),
               static_cast<double>(memory.code_cache_capacity_bytes) / (1 << 20));
  const bool own_sessions = !workload->sessions().empty();
  const std::vector<educe::obs::QueryProfile> profiles =
      args.trace ? workload->engine()->RecentProfiles()
                 : std::vector<educe::obs::QueryProfile>{};
  if (args.trace) {
    const std::string path = args.out_dir + "/trace_" + args.workload +
                             "_seed" + std::to_string(args.seed) + ".json";
    WriteTrace(workload->engine(), loop.tallies(), path);
    std::fprintf(stderr, "perfbench: trace written to %s\n", path.c_str());
  }
  workload->Finish(&finish);

  // --- Correctness -------------------------------------------------------
  uint64_t attempted = finish.checks;
  uint64_t failed = finish.check_failures;
  std::vector<double> reads;
  std::vector<double> writes;
  for (const ClientTally& t : loop.tallies()) {
    attempted += t.ops;
    failed += t.failed;
    reads.insert(reads.end(), t.read_ms.begin(), t.read_ms.end());
    writes.insert(writes.end(), t.write_ms.begin(), t.write_ms.end());
    if (!t.first_failure.empty()) {
      std::fprintf(stderr, "perfbench: failed operation: %s\n",
                   t.first_failure.c_str());
    }
  }
  if (!finish.first_failure.empty()) {
    std::fprintf(stderr, "perfbench: failed check: %s\n",
                 finish.first_failure.c_str());
  }

  JsonMetrics metrics;
  const std::optional<double> write_p50 = ReportablePercentile(writes, 0.5);
  const std::optional<double> write_p90 = ReportablePercentile(writes, 0.9);
  if (!args.trace) {
    const std::optional<double> p50 = ReportablePercentile(reads, 0.5);
    const std::optional<double> p90 = ReportablePercentile(reads, 0.9);
    metrics.Add("setup_s", Median(setup_s), "s");
    metrics.Add("throughput_qps", Median(slice_qps), "1/s");
    if (p50) metrics.Add("read_p50_ms", *p50, "ms");
    if (p90) metrics.Add("read_p90_ms", *p90, "ms");
    metrics.Add("cpu_ms_per_op", Median(slice_cpu_ms), "ms");
    metrics.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    std::fprintf(stderr,
                 "perfbench: %s seed %llu: %llu ops in %.3f s (%llu reads, "
                 "%llu writes, %zu read samples)\n",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 static_cast<unsigned long long>(untraced.ops), untraced.wall_s,
                 static_cast<unsigned long long>(untraced.reads),
                 static_cast<unsigned long long>(untraced.writes),
                 reads.size());
    if (untraced.writes > 0) {
      std::fprintf(stderr,
                   "perfbench: writes p50 %.4f ms p90 %.4f ms; recovery %.4f s "
                   "(%g records); disk %.3f MiB\n",
                   write_p50.value_or(0), write_p90.value_or(0),
                   finish.recovery_s, finish.records_replayed, finish.disk_mb);
    }
  } else {
    const EngineStats& e0 = before.engine;
    const EngineStats& e1 = after.engine;
    const double ops = static_cast<double>(traced.ops);
    const double nw = static_cast<double>(traced.writes);
    auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };

    // Machine and resolver counters: the benchmark's own sessions, or,
    // when the sessions live inside the server, the per-query profiles
    // the engine kept (the most recent ones; machines are per session, so
    // these counts are exact per query).
    double instructions = 0, choice_points = 0, eliminated = 0, resolve_ms = 0;
    if (own_sessions) {
      instructions = Per(d(before.machine.instructions,
                           after.machine.instructions), ops);
      choice_points = Per(d(before.machine.choice_points,
                            after.machine.choice_points), ops);
      eliminated = Per(d(before.machine.choice_points_eliminated,
                         after.machine.choice_points_eliminated), ops);
      resolve_ms = Per(d(before.resolver.resolve_ns,
                         after.resolver.resolve_ns) / 1e6, ops);
    } else {
      for (const educe::obs::QueryProfile& p : profiles) {
        instructions += static_cast<double>(p.instructions);
        choice_points += static_cast<double>(p.choice_points_created);
        eliminated += static_cast<double>(p.choice_points_eliminated);
        resolve_ms += static_cast<double>(p.resolve_ns) / 1e6;
      }
      const double n = static_cast<double>(profiles.size());
      instructions = Per(instructions, n);
      choice_points = Per(choice_points, n);
      eliminated = Per(eliminated, n);
      resolve_ms = Per(resolve_ms, n);
    }

    double offcpu_ns = 0;
    for (size_t c = 0; c < before.thread_cpu_ns.size(); ++c) {
      offcpu_ns += traced.wall_s * 1e9 -
                   d(before.thread_cpu_ns[c], after.thread_cpu_ns[c]) -
                   static_cast<double>(loop.tallies()[c].paced_ns);
    }
    uint64_t query_open_ns = 0, next_ns = 0, first_reply_ns = 0,
             stream_ns = 0, bindings = 0;
    for (const ClientTally& t : loop.tallies()) {
      query_open_ns += t.query_open_ns;
      next_ns += t.next_ns;
      first_reply_ns += t.first_reply_ns;
      stream_ns += t.stream_ns;
      bindings += t.bindings;
    }

    const auto& cc0 = e0.code_cache;
    const auto& cc1 = e1.code_cache;
    const double cache_hits =
        d(cc0.hits + cc0.pattern_hits + cc0.selection_hits,
          cc1.hits + cc1.pattern_hits + cc1.selection_hits);
    const double cache_misses =
        d(cc0.misses + cc0.pattern_misses, cc1.misses + cc1.pattern_misses);
    const double pool_hits = d(e0.buffer_pool.hits, e1.buffer_pool.hits);
    const double pool_misses = d(e0.buffer_pool.misses, e1.buffer_pool.misses);
    const double dl_queries =
        d(e0.datalog.queries_bottom_up, e1.datalog.queries_bottom_up);
    const double plan_hits =
        d(e0.datalog.plan_cache_hits, e1.datalog.plan_cache_hits);
    const double plans_compiled =
        d(e0.datalog.plans_compiled, e1.datalog.plans_compiled);
    std::vector<double> traced_checkpoints(
        finish.checkpoint_ms.begin() +
            static_cast<std::ptrdiff_t>(checkpoints_untraced),
        finish.checkpoint_ms.end());

    metrics.Add("reader.parse_ms", layers.parse_ms, "ms");
    metrics.Add("wam.compile_ms", layers.compile_ms, "ms");
    metrics.Add("wam.instructions_per_op", instructions, "count");
    metrics.Add("wam.choice_points_per_op", choice_points, "count");
    metrics.Add("wam.choice_points_eliminated_per_op", eliminated, "count");
    metrics.Add("edb.store_ms", layers.store_ms, "ms");
    metrics.Add("edb.write_p50_ms", write_p50.value_or(0), "ms");
    metrics.Add("edb.write_p90_ms", write_p90.value_or(0), "ms");
    metrics.Add("edb.resolve_ms_per_op", resolve_ms, "ms");
    metrics.Add("edb.fact_rows_fetched_per_op",
                Per(d(e0.clause_store.fact_rows_fetched,
                      e1.clause_store.fact_rows_fetched), ops), "count");
    metrics.Add("edb.rule_rows_scanned_per_op",
                Per(d(e0.clause_store.rule_rows_scanned,
                      e1.clause_store.rule_rows_scanned), ops), "count");
    metrics.Add("edb.rule_codes_fetched_per_op",
                Per(d(e0.clause_store.rule_codes_fetched,
                      e1.clause_store.rule_codes_fetched), ops), "count");
    metrics.Add("edb.preunify_filtered_per_op",
                Per(d(e0.clause_store.preunify_filtered,
                      e1.clause_store.preunify_filtered), ops), "count");
    metrics.Add("edb.clauses_decoded_per_op",
                Per(d(e0.loader.clauses_decoded, e1.loader.clauses_decoded),
                    ops), "count");
    metrics.Add("edb.decode_ms_per_op",
                Per(d(e0.loader.decode_ns, e1.loader.decode_ns) / 1e6, ops),
                "ms");
    metrics.Add("edb.link_ms_per_op",
                Per(d(e0.loader.link_ns, e1.loader.link_ns) / 1e6, ops), "ms");
    metrics.Add("edb.code_cache_hit_ratio",
                Per(cache_hits, cache_hits + cache_misses), "ratio");
    metrics.Add("edb.code_cache_invalidations_per_write",
                Per(d(cc0.invalidations, cc1.invalidations), nw), "count");
    metrics.Add("dict.lookups_per_op",
                Per(d(before.dict.lookups, after.dict.lookups), ops), "count");
    metrics.Add("dict.inserts_per_op",
                Per(d(before.dict.inserts, after.dict.inserts), ops), "count");
    metrics.Add("dict.probes_per_op",
                Per(d(before.dict.probes, after.dict.probes), ops), "count");
    metrics.Add("storage.pool_pins_per_op", Per(pool_hits + pool_misses, ops),
                "count");
    metrics.Add("storage.pool_hit_ratio",
                Per(pool_hits, pool_hits + pool_misses), "ratio");
    metrics.Add("storage.pool_evictions_per_op",
                Per(d(e0.buffer_pool.evictions, e1.buffer_pool.evictions), ops),
                "count");
    metrics.Add("storage.pages_read_per_op",
                Per(d(e0.paged_file.pages_read, e1.paged_file.pages_read), ops),
                "count");
    metrics.Add("storage.page_read_ms_per_op",
                Per(d(e0.paged_file.read_ns, e1.paged_file.read_ns) / 1e6, ops),
                "ms");
    metrics.Add("storage.wal_fsyncs_per_write",
                Per(d(e0.wal.fsyncs, e1.wal.fsyncs), nw), "count");
    metrics.Add("storage.wal_bytes_per_write",
                Per(d(e0.wal.bytes_appended, e1.wal.bytes_appended), nw),
                "bytes");
    metrics.Add("storage.wal_group_commits_per_write",
                Per(d(e0.wal.group_commits, e1.wal.group_commits), nw),
                "count");
    metrics.Add("storage.checkpoint_ms",
                traced_checkpoints.empty() ? 0 : Median(traced_checkpoints),
                "ms");
    metrics.Add("storage.pages_allocated",
                d(e0.paged_file.pages_allocated, e1.paged_file.pages_allocated),
                "count");
    metrics.Add("storage.wal_mb",
                static_cast<double>(e1.memory.wal_file_bytes) / (1 << 20),
                "MiB");
    metrics.Add("storage.disk_mb", finish.disk_mb, "MiB");
    metrics.Add("storage.records_replayed", finish.records_replayed, "count");
    metrics.Add("storage.recovery_s", finish.recovery_s, "s");
    metrics.Add("educe.query_open_ms_per_op",
                Per(static_cast<double>(query_open_ns) / 1e6, ops), "ms");
    metrics.Add("educe.next_ms_per_op",
                Per(static_cast<double>(next_ns) / 1e6, ops), "ms");
    metrics.Add("educe.offcpu_ms_per_op", Per(offcpu_ns / 1e6, ops), "ms");
    metrics.Add("educe.datalog.edb_rows_per_query",
                Per(d(e0.datalog.edb_rows, e1.datalog.edb_rows), dl_queries),
                "count");
    metrics.Add("educe.datalog.tuples_derived_per_query",
                Per(d(e0.datalog.tuples_derived, e1.datalog.tuples_derived),
                    dl_queries), "count");
    metrics.Add("educe.datalog.iterations_per_query",
                Per(d(e0.datalog.iterations, e1.datalog.iterations),
                    dl_queries), "count");
    metrics.Add("educe.datalog.join_probes_per_query",
                Per(d(e0.datalog.join_probes, e1.datalog.join_probes),
                    dl_queries), "count");
    metrics.Add("educe.datalog.index_builds_per_query",
                Per(d(e0.datalog.index_builds, e1.datalog.index_builds),
                    dl_queries), "count");
    metrics.Add("educe.datalog.plan_cache_hit_ratio",
                Per(plan_hits, plan_hits + plans_compiled), "ratio");
    metrics.Add("educe.datalog.plans_invalidated_per_write",
                Per(d(e0.datalog.plans_invalidated,
                      e1.datalog.plans_invalidated), nw), "count");
    metrics.Add("server.first_reply_ms_per_op",
                Per(static_cast<double>(first_reply_ns) / 1e6, ops), "ms");
    metrics.Add("server.stream_ms_per_op",
                Per(static_cast<double>(stream_ns) / 1e6, ops), "ms");
    metrics.Add("server.bindings_per_op",
                Per(static_cast<double>(bindings), ops), "count");
    metrics.Add("obs.traced_overhead_ratio",
                Per(Per(traced.wall_s, traced.ops),
                    Per(untraced.wall_s, untraced.ops)), "ratio");
  }

  workload->Teardown();
  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics.body().c_str());
  std::fflush(stdout);
  return correct ? 0 : 3;
}

}  // namespace perfbench
