// wisc_edb: Wisconsin-style selections and a join over an in-memory EDB
// larger than the buffer pool, from concurrent worker sessions. Carries
// the fact-fetch path (resolver -> clause store -> code codec symbol
// resolution -> dictionary -> buffer pool); no Datalog, WAL or server.

#include <string>
#include <vector>

#include "harness.h"
#include "oracle.h"

namespace perfbench {
namespace {

using educe::Engine;
using educe::Session;
using educe::Solutions;

constexpr int kClients = 2;
constexpr int64_t kRows = 20000;  // per relation; both together ~3x the pool

constexpr const char* kRules =
    "one_pct(C, X, S) :- wisc_a(X, _, _, C, S, _).\n"
    "key_join(K, S) :- wisc_a(K, U, _, _, _, _), wisc_b(U, _, _, _, S, _).\n"
    "pct_join(C, X, S) :- wisc_a(X, U, _, C, _, _), wisc_b(U, _, _, _, S, _).\n";

int64_t Int(const Solutions& s, const char* var) {
  educe::term::AstPtr ast = s.BindingAst(var);
  return ast != nullptr && ast->kind == educe::term::Ast::Kind::kInt
             ? ast->int_value
             : -1;
}

class WisconsinEdb : public Workload {
 public:
  explicit WisconsinEdb(const Args& args)
      : args_(args),
        a_("wisc_a", kRows, args.seed * 2 + 1),
        b_("wisc_b", kRows, args.seed * 2 + 2),
        facts_a_(a_.FactsText()),
        facts_b_(b_.FactsText()) {}

  int clients() const override { return kClients; }

  educe::base::Status Setup(SetupLayers* layers) override {
    engine_ = std::make_unique<Engine>();
    {
      SetupTimer timer(layers != nullptr ? &layers->store_ms : nullptr);
      EDUCE_RETURN_IF_ERROR(engine_->DeclareRelation("wisc_a", 6, {0, 3}));
      EDUCE_RETURN_IF_ERROR(engine_->DeclareRelation("wisc_b", 6, {0, 3}));
      EDUCE_RETURN_IF_ERROR(engine_->StoreFactsExternal(facts_a_));
      EDUCE_RETURN_IF_ERROR(engine_->StoreFactsExternal(facts_b_));
      EDUCE_RETURN_IF_ERROR(engine_->StoreRulesExternal(kRules));
    }
    if (layers != nullptr) {
      EDUCE_RETURN_IF_ERROR(
          TimeFrontEnd(engine_.get(), {facts_a_, facts_b_}, kRules, layers));
    }
    for (int c = 0; c < kClients; ++c) {
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

  // Per ten operations of a client: three exact-key selections (on
  // either relation), three key joins (one row each side), two 1%
  // selections through the compiled rule and two 1% joins (200 rows,
  // each probing the other relation by key). The mix puts the median
  // inside the key joins and the p90 inside the 1% joins, away from the
  // edges between operation kinds, where percentiles would jump.
  OpKind RunOp(int client, uint64_t seq, OpCtx* ctx) override {
    SeededRng rng(args_.seed ^ (static_cast<uint64_t>(client) << 48) ^
                  (seq * 0x2545f4914f6cdd1dull));
    const int64_t key = static_cast<int64_t>(rng.Below(kRows));
    const int64_t pct = key % 100;
    // Self-check: one expectation made wrong on purpose.
    const int64_t skew = args_.perturb && client == 0 && seq == 0 ? 1 : 0;
    Session* session = sessions_[static_cast<size_t>(client)].get();
    const uint64_t slot = seq % 10;
    if (slot < 3) {
      const WiscRelation& rel = slot % 2 == 0 ? a_ : b_;
      SelectKey(session, rel, key, skew, ctx);
    } else if (slot < 6) {
      KeyJoin(session, key, skew, ctx);
    } else if (slot < 8) {
      SelectPercent(session, "one_pct", pct, skew, ctx,
                    [](int64_t x) { return WiscRelation::StringU1(x); });
    } else {
      SelectPercent(session, "pct_join", pct, skew, ctx, [this](int64_t x) {
        return WiscRelation::StringU1(a_.Unique2(x));
      });
    }
    return OpKind::kRead;
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

 private:
  // Exactly one row, every column from the generator's arithmetic.
  void SelectKey(Session* session, const WiscRelation& rel, int64_t key,
                 int64_t skew, OpCtx* ctx) {
    const std::string goal =
        rel.name + "(" + std::to_string(key) + ", U, T, P, S, F)";
    uint64_t rows = 0;
    bool values_ok = true;
    if (!RunQuery(session, goal, ctx, [&](const Solutions& s) {
          ++rows;
          values_ok = values_ok && Int(s, "U") == rel.Unique2(key) + skew &&
                      Int(s, "T") == key % 10 && Int(s, "P") == key % 100 &&
                      s.Binding("S") == WiscRelation::StringU1(key) &&
                      s.Binding("F") == WiscRelation::String4(key);
        })) {
      return;
    }
    if (rows != 1 || !values_ok) {
      ctx->tally->Fail(goal + ": " + std::to_string(rows) +
                       " rows or wrong values");
    }
  }

  // wisc_b's StringU1 at row Unique2(key) of wisc_a: exactly one row.
  void KeyJoin(Session* session, int64_t key, int64_t skew, OpCtx* ctx) {
    const std::string goal = "key_join(" + std::to_string(key) + ", S)";
    uint64_t rows = 0;
    bool values_ok = true;
    if (!RunQuery(session, goal, ctx, [&](const Solutions& s) {
          ++rows;
          values_ok = values_ok && s.Binding("S") ==
                                       WiscRelation::StringU1(a_.Unique2(key));
        })) {
      return;
    }
    if (rows != static_cast<uint64_t>(1 + skew) || !values_ok) {
      ctx->tally->Fail(goal + ": " + std::to_string(rows) +
                       " rows or wrong values");
    }
  }

  // Every X with X mod 100 == pct, once each, with the expected S.
  template <typename ExpectS>
  void SelectPercent(Session* session, const char* pred, int64_t pct,
                     int64_t skew, OpCtx* ctx, ExpectS expect_s) {
    const std::string goal =
        std::string(pred) + "(" + std::to_string(pct) + ", X, S)";
    std::vector<bool> seen(static_cast<size_t>(kRows / 100), false);
    uint64_t rows = 0;
    bool values_ok = true;
    if (!RunQuery(session, goal, ctx, [&](const Solutions& s) {
          ++rows;
          const int64_t x = Int(s, "X");
          if (x < 0 || x >= kRows || x % 100 != pct ||
              seen[static_cast<size_t>(x / 100)] ||
              s.Binding("S") != expect_s(x)) {
            values_ok = false;
            return;
          }
          seen[static_cast<size_t>(x / 100)] = true;
        })) {
      return;
    }
    if (rows != static_cast<uint64_t>(kRows / 100 + skew) || !values_ok) {
      ctx->tally->Fail(goal + ": " + std::to_string(rows) +
                       " rows or wrong values");
    }
  }

  Args args_;
  WiscRelation a_;
  WiscRelation b_;
  std::string facts_a_;
  std::string facts_b_;
  std::unique_ptr<Engine> engine_;
  std::vector<std::unique_ptr<Session>> sessions_;
};

}  // namespace

std::unique_ptr<Workload> MakeWisconsinEdb(const Args& args) {
  return std::make_unique<WisconsinEdb>(args);
}

}  // namespace perfbench
