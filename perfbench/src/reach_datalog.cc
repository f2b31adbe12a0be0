// reach_datalog: magic-bound transitive closure path(S, Y) over an
// edge/2 EDB graph (a seeded random DAG plus short chains), answered
// bottom-up by one session with Datalog on. Carries the plan cache, the
// magic rewrite, semi-naive rounds and the EDB scan that every
// evaluation repeats; the WAM and the fact-fetch path are nearly unused.

#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "oracle.h"
#include "workloads/graph.h"

namespace perfbench {
namespace {

using educe::Engine;
using educe::Session;
using educe::Solutions;
using educe::workloads::GraphWorkload;

// A layered DAG: each node has kFanOut edges to seeded nodes of the next
// layer, so a source's answer size is set by its layer (from none on the
// last layer to thousands on the first) and varies little with the seed.
constexpr int64_t kLayers = 30;
constexpr int64_t kLayerWidth = 100;
constexpr int64_t kFanOut = 2;
constexpr int64_t kDagNodes = kLayers * kLayerWidth;
// Short chains: EDB rows every evaluation scans, few answers each.
constexpr int64_t kChains = 600;
constexpr int64_t kChainLength = 10;  // edges per chain

// Left-recursive, so the magic rewrite of path(S, Y) derives only the
// tuples path(S, _) (the right-recursive form derives the closure of
// everything S reaches).
constexpr const char* kRules =
    "path(X, Y) :- edge(X, Y).\n"
    "path(X, Y) :- path(X, Z), edge(Z, Y).\n";

class ReachDatalog : public Workload {
 public:
  explicit ReachDatalog(const Args& args) : args_(args) {
    SeededRng rng(args.seed);
    for (int64_t u = 0; u + kLayerWidth < kDagNodes; ++u) {
      const int64_t next_layer = (u / kLayerWidth + 1) * kLayerWidth;
      for (int64_t f = 0; f < kFanOut; ++f) {
        edges_.emplace_back(
            u, next_layer + static_cast<int64_t>(rng.Below(kLayerWidth)));
      }
    }
    for (int64_t c = 0; c < kChains; ++c) {
      const int64_t base = kDagNodes + c * (kChainLength + 1);
      for (int64_t i = 0; i < kChainLength; ++i) {
        edges_.emplace_back(base + i, base + i + 1);
      }
    }
    for (const auto& [u, v] : edges_) graph_.AddEdge(u, v);
  }

  int clients() const override { return 1; }

  educe::base::Status Setup(SetupLayers* layers) override {
    educe::EngineOptions options;
    options.datalog = true;
    engine_ = std::make_unique<Engine>(options);
    {
      SetupTimer timer(layers != nullptr ? &layers->store_ms : nullptr);
      EDUCE_RETURN_IF_ERROR(GraphWorkload::StoreEdges(engine_.get(), "edge",
                                                      edges_));
      EDUCE_RETURN_IF_ERROR(engine_->Consult(kRules));
    }
    if (layers != nullptr) {
      // Edges are stored as ASTs, never parsed: only the rules are.
      EDUCE_RETURN_IF_ERROR(TimeFrontEnd(engine_.get(), {kRules}, "", layers));
    }
    EDUCE_ASSIGN_OR_RETURN(session_, engine_->OpenSession());
    return educe::base::Status::OK();
  }

  void Teardown() override {
    session_.reset();
    engine_.reset();
  }

  // Half the sources are DAG nodes (answers from none to thousands of
  // nodes, by position), half chain nodes (at most ten answers).
  OpKind RunOp(int /*client*/, uint64_t seq, OpCtx* ctx) override {
    SeededRng rng(args_.seed ^ (seq * 0x2545f4914f6cdd1dull));
    const int64_t source =
        seq % 2 == 0
            ? static_cast<int64_t>(rng.Below(kDagNodes))
            : kDagNodes + static_cast<int64_t>(
                              rng.Below(kChains * (kChainLength + 1)));
    const std::string goal = "path(" + std::to_string(source) + ", Y)";
    std::vector<int64_t> answers;
    bool ints = true;
    if (!RunQuery(session_.get(), goal, ctx, [&](const Solutions& s) {
          educe::term::AstPtr y = s.BindingAst("Y");
          if (y == nullptr || y->kind != educe::term::Ast::Kind::kInt) {
            ints = false;
            return;
          }
          answers.push_back(y->int_value);
        })) {
      return OpKind::kRead;
    }
    std::sort(answers.begin(), answers.end());
    std::vector<int64_t> expected = Expected(source);
    if (args_.perturb && seq == 0) expected.push_back(-1);
    if (!ints || answers != expected) {
      ctx->tally->Fail(goal + ": " + std::to_string(answers.size()) +
                       " answers, expected " +
                       std::to_string(expected.size()));
    }
    return OpKind::kRead;
  }

  void SetClientProfiling(int /*client*/, bool on) override {
    session_->machine()->set_profiling(on);
  }

  Engine* engine() override { return engine_.get(); }
  std::vector<Session*> sessions() override { return {session_.get()}; }

 private:
  const std::vector<int64_t>& Expected(int64_t source) {
    auto it = reach_.find(source);
    if (it == reach_.end()) {
      it = reach_.emplace(source, graph_.Reach(source)).first;
    }
    return it->second;
  }

  Args args_;
  std::vector<GraphWorkload::Edge> edges_;
  Digraph graph_;
  std::map<int64_t, std::vector<int64_t>> reach_;  // BFS answers by source
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Session> session_;
};

}  // namespace

std::unique_ptr<Workload> MakeReachDatalog(const Args& args) {
  return std::make_unique<ReachDatalog>(args);
}

}  // namespace perfbench
