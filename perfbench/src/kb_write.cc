// kb_write: durable writes beside reads. The knowledge base is loaded
// in bulk into an on-disk image, which is then reopened with the WAL at
// its default per-commit fsync. A writer session, at a fixed rate,
// asserts batches of new facts through StoreFactsExternal (minting fresh
// atoms) and retracts facts with edb_retract, while reader sessions run
// key selections and magic-bound reachability over the relations being
// written. One online Checkpoint() runs mid-window, right after a
// crash-consistent copy of the database is taken. At the end the copy
// is recovered and checked, then the live engine is closed, reopened and
// checked again.
//
// Every acknowledged write goes into a ledger the benchmark keeps. The
// graph is split into components, each guarded by a benchmark-side
// reader/writer lock: a writer holds its component exclusively while it
// writes it, a reader holds it shared while it queries it, so each answer
// has exactly one correct value. Writers and readers of different
// components still meet inside the engine, which sees one relation.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <filesystem>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/stopwatch.h"
#include "harness.h"
#include "oracle.h"

namespace perfbench {
namespace {

using educe::Engine;
using educe::Session;
using educe::Solutions;

// One writer: with two, WAL redo of the crash-consistent copy fails now
// and then (see CHANGES.md, FOUND), and a benchmark run must not.
constexpr int kWriters = 1;
constexpr int kReaders = 2;
// The writer starts one write per period. Closed loop, its rate would
// follow fsync latency, which on a shared virtual disk swings two- to
// fourfold from minute to minute, and carry that into every figure of
// the run.
constexpr std::chrono::milliseconds kWritePeriod{20};
constexpr int64_t kComponents = 64;
constexpr int64_t kChainNodes = 30;       // base chain per component
constexpr int64_t kNodeStride = 1000000;  // node id = component*stride + j
constexpr int64_t kInitialTags = 10000;
constexpr int kDetours = 4;         // per assert batch: 2 edges each
constexpr int64_t kTagsPerBatch = 8;  // per assert batch, fresh atoms
constexpr int64_t kWriterTagBase = 1000000000;  // writer w: (w+1)*base + i

constexpr const char* kRules =
    "path(X, Y) :- edge(X, Y).\n"
    "path(X, Y) :- path(X, Z), edge(Z, Y).\n";

std::string TagAtom(int64_t key) { return "t" + std::to_string(key); }

std::string EdgeText(int64_t a, int64_t b) {
  return "edge(" + std::to_string(a) + ", " + std::to_string(b) + ")";
}

double FileMiB(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<double>(size) / (1 << 20);
}

struct Component {
  std::shared_mutex mu;
  Digraph graph;  // the acknowledged edges
  int64_t next_node = kChainNodes;
};

class KbWrite : public Workload {
 public:
  explicit KbWrite(const Args& args)
      : args_(args),
        dir_(args.out_dir + "/kb_write_" + std::to_string(::getpid())),
        live_path_(dir_ + "/live.edb"),
        copy_path_(dir_ + "/copy.edb") {}

  ~KbWrite() override {
    Teardown();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  int clients() const override { return kWriters + kReaders; }

  educe::base::Status Setup(SetupLayers* layers) override {
    ResetLedger();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    std::string facts;
    for (int64_t c = 0; c < kComponents; ++c) {
      for (int64_t j = 0; j + 1 < kChainNodes; ++j) {
        facts += EdgeText(c * kNodeStride + j, c * kNodeStride + j + 1) + ".\n";
      }
    }
    for (int64_t k = 0; k < kInitialTags; ++k) {
      facts += "tag(" + std::to_string(k) + ", " + TagAtom(k) + ").\n";
    }
    {
      // The bulk load logs to the WAL without a sync per fact; Close()
      // makes it durable in the image, which the engine then serves.
      educe::EngineOptions bulk = Options(live_path_);
      bulk.wal_sync = educe::storage::Wal::SyncPolicy::kNone;
      Engine loader(bulk);
      EDUCE_RETURN_IF_ERROR(loader.open_status());
      SetupTimer timer(layers != nullptr ? &layers->store_ms : nullptr);
      EDUCE_RETURN_IF_ERROR(loader.DeclareRelation("edge", 2, {0}));
      EDUCE_RETURN_IF_ERROR(loader.DeclareRelation("tag", 2, {0}));
      EDUCE_RETURN_IF_ERROR(loader.StoreFactsExternal(facts));
      EDUCE_RETURN_IF_ERROR(loader.Close());
    }
    engine_ = std::make_unique<Engine>(Options(live_path_));
    EDUCE_RETURN_IF_ERROR(engine_->open_status());
    EDUCE_RETURN_IF_ERROR(engine_->Consult(kRules));
    if (layers != nullptr) {
      EDUCE_RETURN_IF_ERROR(TimeFrontEnd(engine_.get(), {facts}, "", layers));
    }
    for (int c = 0; c < clients(); ++c) {
      EDUCE_ASSIGN_OR_RETURN(std::unique_ptr<Session> session,
                             engine_->OpenSession());
      sessions_.push_back(std::move(session));
    }
    return educe::base::Status::OK();
  }

  void Teardown() override {
    sessions_.clear();
    engine_.reset();
  }

  /// The writer waits for its next period; readers run closed loop.
  bool Pace(int client, const std::atomic<bool>& stop) override {
    if (client >= kWriters) return true;
    using Clock = std::chrono::steady_clock;
    Clock::time_point& due = write_due_[client];
    Clock::time_point now = Clock::now();
    // After a pause between windows, or a write slower than a period,
    // start afresh rather than catch up in a burst.
    if (due + kWritePeriod < now) due = now;
    while (now < due) {
      if (stop.load(std::memory_order_acquire)) return false;
      std::this_thread::sleep_for(
          std::min<Clock::duration>(due - now, std::chrono::milliseconds(1)));
      now = Clock::now();
    }
    due += kWritePeriod;
    return true;
  }

  // Clients 0..kWriters-1 write, the rest read. A writer alternates an
  // assert batch (16 facts: four detours through fresh nodes of one of
  // its own components, eight tags with fresh atoms) and the retract of
  // the oldest batch's edges, so the graph stays near its initial size. Per
  // three operations a reader runs two key selections on tag/2 and one
  // path(S, Y) from the head of a component: the median falls inside the
  // key selections and the p90 inside the reachability queries, away
  // from the edge between the two kinds.
  OpKind RunOp(int client, uint64_t seq, OpCtx* ctx) override {
    SeededRng rng(args_.seed ^ (static_cast<uint64_t>(client) << 48) ^
                  (seq * 0x2545f4914f6cdd1dull));
    const bool skew = args_.perturb && client == 0 && seq == 0;
    if (client < kWriters) {
      if (seq % 2 == 0) {
        Assert(client, rng, skew, ctx);
      } else {
        Retract(client, ctx);
      }
      return OpKind::kWrite;
    }
    Session* session = sessions_[static_cast<size_t>(client)].get();
    if (seq % 3 != 2) {
      SelectTag(session, rng, ctx);
    } else {
      Reach(session, static_cast<int64_t>(rng.Below(kComponents)), ctx);
    }
    return OpKind::kRead;
  }

  // Halfway through each measured window: the first time, a
  // crash-consistent copy of the database, then the online checkpoint.
  void MidWindow(FinishReport* report) override {
    if (copy_graphs_.empty()) TakeCrashCopy(report);
    educe::base::Stopwatch watch;
    const educe::base::Status status = engine_->Checkpoint();
    report->checkpoint_ms.push_back(watch.ElapsedMillis());
    report->Check(status.ok(), "checkpoint: " + status.ToString());
  }

  void SetClientProfiling(int client, bool on) override {
    sessions_[static_cast<size_t>(client)]->machine()->set_profiling(on);
  }

  Engine* engine() override { return engine_.get(); }

  std::vector<Session*> sessions() override {
    std::vector<Session*> out;
    for (auto& s : sessions_) out.push_back(s.get());
    return out;
  }

  void Finish(FinishReport* report) override {
    {
      educe::base::Stopwatch watch;
      Engine recovered(Options(copy_path_));
      report->Check(recovered.open_status().ok(),
                    "recovery open: " + recovered.open_status().ToString());
      report->Check(EdgesMatch(&recovered, copy_graphs_), "recovered edges");
      report->recovery_s = watch.ElapsedSeconds();
      report->records_replayed =
          static_cast<double>(recovered.Stats().wal_records_replayed);
      VerifyAll(&recovered, "recovered", copy_graphs_, copy_tags_, report);
    }
    sessions_.clear();
    const educe::base::Status closed = engine_->Close();
    report->Check(closed.ok(), "close: " + closed.ToString());
    report->disk_mb = FileMiB(live_path_) + FileMiB(live_path_ + ".wal");
    engine_.reset();
    std::vector<Digraph> graphs;
    for (const Component& comp : components_) graphs.push_back(comp.graph);
    Engine reopened(Options(live_path_));
    report->Check(reopened.open_status().ok(),
                  "reopen: " + reopened.open_status().ToString());
    report->Check(EdgesMatch(&reopened, graphs), "reopened edges");
    VerifyAll(&reopened, "reopened", graphs, TagsWritten(), report);
  }

 private:
  static educe::EngineOptions Options(const std::string& path) {
    educe::EngineOptions options;
    options.db_path = path;
    options.datalog = true;
    return options;
  }

  /// Copies the image, then the WAL, with every component lock held, so
  /// no write is in flight: the state a crash at this instant leaves. The
  /// ledger at that instant is kept with it. The copy is taken before the
  /// run's first online checkpoint, so its recovery replays every write
  /// since the bulk load's image (see CHANGES.md, FOUND, for why it is
  /// not taken after one).
  void TakeCrashCopy(FinishReport* report) {
    std::vector<std::unique_lock<std::shared_mutex>> locks;
    for (Component& comp : components_) locks.emplace_back(comp.mu);
    std::error_code image_error;
    std::error_code wal_error;
    std::filesystem::copy_file(live_path_, copy_path_, image_error);
    std::filesystem::copy_file(live_path_ + ".wal", copy_path_ + ".wal",
                               wal_error);
    report->Check(!image_error, "copy image: " + image_error.message());
    report->Check(!wal_error, "copy WAL: " + wal_error.message());
    for (const Component& comp : components_) {
      copy_graphs_.push_back(comp.graph);
    }
    copy_tags_ = TagsWritten();
  }

  uint64_t TagsWritten() const {
    uint64_t tags = kInitialTags;
    for (int w = 0; w < kWriters; ++w) {
      tags += static_cast<uint64_t>(tags_published_[w].load());
    }
    return tags;
  }

  void ResetLedger() {
    copy_graphs_.clear();
    components_ = std::vector<Component>(kComponents);
    for (int64_t c = 0; c < kComponents; ++c) {
      for (int64_t j = 0; j + 1 < kChainNodes; ++j) {
        components_[static_cast<size_t>(c)].graph.AddEdge(
            c * kNodeStride + j, c * kNodeStride + j + 1);
      }
    }
    for (int w = 0; w < kWriters; ++w) {
      tags_published_[w].store(0);
      added_[w].clear();
    }
  }

  void Assert(int writer, SeededRng& rng, bool skew, OpCtx* ctx) {
    // Writer w owns the components c with c % kWriters == w.
    const int64_t c = writer + kWriters * static_cast<int64_t>(rng.Below(
                                              kComponents / kWriters));
    Component& comp = components_[static_cast<size_t>(c)];
    std::unique_lock<std::shared_mutex> lock(comp.mu);
    const int64_t base = c * kNodeStride;
    Added added{c, {}};
    std::string batch;
    for (int d = 0; d < kDetours; ++d) {
      // A detour from -> fresh -> to around part of the base chain.
      const int64_t from =
          base + static_cast<int64_t>(rng.Below(kChainNodes - 1));
      const int64_t to =
          from + 1 +
          static_cast<int64_t>(rng.Below(
              static_cast<uint64_t>(base + kChainNodes - 1 - from)));
      const int64_t fresh = base + comp.next_node++;
      added.edges.emplace_back(from, fresh);
      added.edges.emplace_back(fresh, to);
    }
    for (const auto& [a, b] : added.edges) batch += EdgeText(a, b) + ". ";
    const int64_t published = tags_published_[writer].load();
    const int64_t first_key = (writer + 1) * kWriterTagBase + published;
    for (int64_t k = first_key; k < first_key + kTagsPerBatch; ++k) {
      batch += "tag(" + std::to_string(k) + ", " + TagAtom(k) + "). ";
    }
    educe::base::Status status;
    {
      Timed timed(ctx, "Engine::StoreFactsExternal");
      educe::obs::TraceIdScope trace(ctx->op_id);
      status = engine_->StoreFactsExternal(batch);
    }
    if (!status.ok()) {
      ctx->tally->Fail(batch + ": " + status.ToString());
      return;
    }
    for (const auto& [a, b] : added.edges) comp.graph.AddEdge(a, b);
    // Self-check: the ledger records an edge that was never written.
    if (skew) comp.graph.AddEdge(base, base + kNodeStride - 1);
    added_[writer].push_back(std::move(added));
    tags_published_[writer].store(published + kTagsPerBatch);
  }

  void Retract(int writer, OpCtx* ctx) {
    if (added_[writer].empty()) {
      ctx->tally->Fail("retract: no acknowledged batch to retract");
      return;
    }
    const Added oldest = std::move(added_[writer].front());
    added_[writer].pop_front();
    Component& comp = components_[static_cast<size_t>(oldest.component)];
    std::unique_lock<std::shared_mutex> lock(comp.mu);
    Session* session = sessions_[static_cast<size_t>(writer)].get();
    for (const auto& [a, b] : oldest.edges) {
      const std::string goal = "edb_retract(" + EdgeText(a, b) + ")";
      uint64_t rows = 0;
      if (!RunQuery(session, goal, ctx, [&](const Solutions&) { ++rows; })) {
        return;
      }
      if (rows != 1) {
        ctx->tally->Fail(goal + ": " + std::to_string(rows) + " solutions");
        return;
      }
      comp.graph.RemoveEdge(a, b);
    }
  }

  void SelectTag(Session* session, SeededRng& rng, OpCtx* ctx) {
    const uint64_t pick = rng.Below(kWriters + 1);
    int64_t key = static_cast<int64_t>(rng.Below(kInitialTags));
    if (pick < kWriters) {
      const int64_t published = tags_published_[pick].load();
      if (published > 0) {
        key = static_cast<int64_t>(pick + 1) * kWriterTagBase +
              static_cast<int64_t>(rng.Below(static_cast<uint64_t>(published)));
      }
    }
    const std::string goal = "tag(" + std::to_string(key) + ", A)";
    std::vector<std::string> rows;
    if (!RunQuery(session, goal, ctx,
                  [&](const Solutions& s) { rows.push_back(s.Binding("A")); })) {
      return;
    }
    if (rows.size() != 1 || rows[0] != TagAtom(key)) {
      ctx->tally->Fail(goal + ": " + std::to_string(rows.size()) + " rows");
    }
  }

  void Reach(Session* session, int64_t c, OpCtx* ctx) {
    Component& comp = components_[static_cast<size_t>(c)];
    std::shared_lock<std::shared_mutex> lock(comp.mu);
    const int64_t head = c * kNodeStride;
    const std::string goal = "path(" + std::to_string(head) + ", Y)";
    std::vector<int64_t> answers;
    if (!RunQuery(session, goal, ctx, [&](const Solutions& s) {
          educe::term::AstPtr y = s.BindingAst("Y");
          answers.push_back(y != nullptr &&
                                    y->kind == educe::term::Ast::Kind::kInt
                                ? y->int_value
                                : -1);
        })) {
      return;
    }
    std::sort(answers.begin(), answers.end());
    if (answers != comp.graph.Reach(head)) {
      ctx->tally->Fail(goal + ": " + std::to_string(answers.size()) +
                       " answers differ from the ledger");
    }
  }

  /// Every edge of the ledger `graphs`, and nothing else, is in `engine`.
  bool EdgesMatch(Engine* engine, const std::vector<Digraph>& graphs) {
    std::vector<std::pair<int64_t, int64_t>> got;
    auto q = engine->Query("edge(X, Y)");
    if (!q.ok()) return false;
    while (true) {
      auto next = (*q)->Next();
      if (!next.ok()) return false;
      if (!*next) break;
      got.emplace_back(std::stoll((*q)->Binding("X")),
                       std::stoll((*q)->Binding("Y")));
    }
    std::vector<std::pair<int64_t, int64_t>> want;
    for (const Digraph& g : graphs) {
      for (const auto& [from, tos] : g.adjacency()) {
        for (int64_t to : tos) want.emplace_back(from, to);
      }
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    return got == want;
  }

  /// Tags (every acknowledged one) and reachability from a sample of
  /// component heads, on a recovered or reopened engine.
  void VerifyAll(Engine* engine, const std::string& leg,
                 const std::vector<Digraph>& graphs, uint64_t expected_tags,
                 FinishReport* report) {
    uint64_t tags = 0;
    bool tags_ok = true;
    {
      auto q = engine->Query("tag(K, A)");
      tags_ok = q.ok();
      while (tags_ok) {
        auto next = (*q)->Next();
        if (!next.ok()) tags_ok = false;
        if (!tags_ok || !*next) break;
        ++tags;
        const int64_t key = std::stoll((*q)->Binding("K"));
        tags_ok = (*q)->Binding("A") == TagAtom(key);
      }
    }
    report->Check(tags_ok && tags == expected_tags, leg + " tags");
    report->Check(engine->Consult(kRules).ok(), leg + " consult");
    for (int64_t c = 0; c < kComponents; c += 8) {
      const int64_t head = c * kNodeStride;
      std::vector<int64_t> answers;
      auto q = engine->Query("path(" + std::to_string(head) + ", Y)");
      bool ok = q.ok();
      while (ok) {
        auto next = (*q)->Next();
        if (!next.ok()) ok = false;
        if (!ok || !*next) break;
        answers.push_back(std::stoll((*q)->Binding("Y")));
      }
      std::sort(answers.begin(), answers.end());
      report->Check(
          ok && answers == graphs[static_cast<size_t>(c)].Reach(head),
          leg + " path from " + std::to_string(head));
    }
  }

  /// The edges of one acknowledged assert batch, retracted together.
  struct Added {
    int64_t component;
    std::vector<std::pair<int64_t, int64_t>> edges;
  };

  Args args_;
  std::string dir_;
  std::string live_path_;
  std::string copy_path_;
  std::unique_ptr<Engine> engine_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<Component> components_;
  // The crash-consistent copy's ledger: graphs and tag count.
  std::vector<Digraph> copy_graphs_;
  uint64_t copy_tags_ = 0;
  // Per writer, touched only by its own thread while clients run.
  std::deque<Added> added_[kWriters];
  // Tags written by each writer, read by the readers.
  std::atomic<int64_t> tags_published_[kWriters];
  // When each writer's next write is due.
  std::chrono::steady_clock::time_point write_due_[kWriters];
};

}  // namespace

std::unique_ptr<Workload> MakeKbWrite(const Args& args) {
  return std::make_unique<KbWrite>(args);
}

}  // namespace perfbench
