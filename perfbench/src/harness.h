#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "base/status.h"
#include "educe/engine.h"

namespace perfbench {

/// Command line of one benchmark run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for files a run writes (on-disk images, the trace).
  std::string out_dir = ".";
  /// Self-check: the workload deliberately corrupts one expectation, so
  /// the run must report exactly that operation as failed.
  bool perturb = false;
};

/// One span the benchmark records around a call into the engine.
/// Timestamps are on the engine tracer's clock, so the benchmark's spans
/// and the engine's own land on one timeline.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  uint64_t trace_id = 0;
};

/// What one client thread did. Written only by its thread while the
/// clients run; read by the main thread while they are paused.
struct ClientTally {
  uint64_t ops = 0;     // every operation, every window
  uint64_t failed = 0;  // wrong answer or engine error
  std::string first_failure;

  // The current window.
  uint64_t window_ops = 0;
  uint64_t window_reads = 0;
  uint64_t window_writes = 0;
  std::vector<double> read_ms;   // per-operation latency, measured windows
  std::vector<double> write_ms;

  // Traced window only: time inside calls into the engine's public API.
  uint64_t query_open_ns = 0;   // Session::Query
  uint64_t next_ns = 0;         // Solutions::Next, all calls
  uint64_t first_reply_ns = 0;  // server: request sent -> first line
  uint64_t stream_ns = 0;       // server: first line -> done line
  uint64_t bindings = 0;        // server: binding lines received
  uint64_t paced_ns = 0;        // waiting in Workload::Pace, not in the engine

  /// Thread CPU time when the client last paused.
  uint64_t thread_cpu_ns = 0;
  std::vector<Span> spans;

  void Fail(std::string why) {
    ++failed;
    if (first_failure.empty()) first_failure = std::move(why);
  }
};

/// Per-operation context.
struct OpCtx {
  uint64_t op_id = 0;  // nonzero; the query's trace_id when traced
  bool traced = false;
  ClientTally* tally = nullptr;
  educe::obs::Tracer* clock = nullptr;  // span time base when traced
};

/// Times one call into the engine when the operation is traced: adds the
/// duration to `*acc` (if given) and, with `span`, records a span. Does
/// nothing, not even read a clock, on untraced operations.
class Timed {
 public:
  Timed(OpCtx* ctx, const char* name, uint64_t* acc = nullptr,
        bool span = true);
  ~Timed();
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  OpCtx* ctx_;
  const char* name_;
  uint64_t* acc_;
  bool span_;
  uint64_t start_ns_ = 0;
};

/// Runs `goal` on `session` with `ctx->op_id` as its trace id, calling
/// `row` once per solution. Session::Query and every Solutions::Next are
/// timed when traced (one span for the query, one for the whole pump).
/// An engine error is recorded as the operation's failure; returns false.
bool RunQuery(educe::Session* session, const std::string& goal, OpCtx* ctx,
              const std::function<void(const educe::Solutions&)>& row);

/// Adds the scope's wall time in milliseconds to `*acc`, if non-null.
class SetupTimer {
 public:
  explicit SetupTimer(double* acc);
  ~SetupTimer();
  SetupTimer(const SetupTimer&) = delete;
  SetupTimer& operator=(const SetupTimer&) = delete;

 private:
  double* acc_;
  std::chrono::steady_clock::time_point start_;
};

enum class OpKind { kRead, kWrite };

/// Set-up work timed apart in the traced run (milliseconds).
struct SetupLayers {
  double parse_ms = 0;    // reader::ParseProgram
  double compile_ms = 0;  // wam::Compiler::Compile
  double store_ms = 0;    // Engine store calls
};

/// Traced set-up only: times reader::ParseProgram over `texts` (into a
/// dictionary of its own, so the engine's own state is untouched) and
/// wam::Compiler::Compile over each clause of `rules` (the engine's
/// compiler; the compiled code is dropped).
educe::base::Status TimeFrontEnd(educe::Engine* engine,
                                 const std::vector<std::string_view>& texts,
                                 std::string_view rules, SetupLayers* layers);

/// End-of-run results a workload adds itself.
struct FinishReport {
  uint64_t checks = 0;  // verifications made, each counted as an operation
  uint64_t check_failures = 0;
  std::string first_failure;
  // kb_write only.
  double recovery_s = 0;
  double records_replayed = 0;
  double disk_mb = 0;
  std::vector<double> checkpoint_ms;

  void Check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) {
      ++check_failures;
      if (first_failure.empty()) first_failure = what;
    }
  }
};

/// One workload: builds its knowledge base, serves operations to a fixed
/// number of closed-loop clients, and checks every answer against an
/// oracle computed apart from the engine.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual int clients() const = 0;

  /// Builds everything up to ready-to-serve (engine, data, rules,
  /// sessions or server). `layers` is non-null on the traced run's last
  /// set-up: time the parse/compile/store layers into it.
  virtual educe::base::Status Setup(SetupLayers* layers) = 0;

  /// Destroys what Setup built (set-up is repeated and timed).
  virtual void Teardown() = 0;

  /// Runs operation `seq` of client `client` on the client's thread and
  /// checks its answer; failures go to ctx->tally->Fail.
  virtual OpKind RunOp(int client, uint64_t seq, OpCtx* ctx) = 0;

  /// Called on a client's own thread before each operation, outside its
  /// latency: a client that runs at a fixed rate waits here. Returns
  /// false, without running the operation, when `stop` is raised while
  /// it waits (the window is ending).
  virtual bool Pace(int /*client*/, const std::atomic<bool>& /*stop*/) {
    return true;
  }

  /// Called on the main thread halfway through every measured window,
  /// while the clients run.
  virtual void MidWindow(FinishReport* /*report*/) {}

  /// Called on a client's own thread when tracing switches on or off.
  virtual void SetClientProfiling(int /*client*/, bool /*on*/) {}

  virtual educe::Engine* engine() = 0;

  /// Worker sessions the benchmark owns (their machine and resolver
  /// counters are summed). Empty when sessions live inside the server.
  virtual std::vector<educe::Session*> sessions() { return {}; }

  /// After the clients stopped: end-of-run verification and figures.
  virtual void Finish(FinishReport* /*report*/) {}
};

std::unique_ptr<Workload> MakeWisconsinEdb(const Args& args);
std::unique_ptr<Workload> MakeMvvServer(const Args& args);
std::unique_ptr<Workload> MakeReachDatalog(const Args& args);
std::unique_ptr<Workload> MakeKbWrite(const Args& args);

/// Runs `workload` per `args` and prints the result; returns the exit
/// code (0 only when every operation was correct).
int RunBenchmark(Workload* workload, const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
