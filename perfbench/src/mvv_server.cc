// mvv_server: the MVV knowledge base with its route rules stored as
// compiled code in the EDB, queried over the server's JSON line protocol
// from a few closed-loop client connections. Carries decode and link of
// stored rules, the code-cache tiers, pre-unification, WAM emulation and
// the server front end; the data fits the buffer pool and code cache.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "oracle.h"
#include "server/server.h"
#include "workloads/mvv.h"

namespace perfbench {
namespace {

using educe::Engine;

constexpr int kClients = 1;

/// A blocking client connection speaking the server's line protocol.
class LineClient {
 public:
  LineClient() = default;
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  educe::base::Status Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return educe::base::Status::IOError("socket");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return educe::base::Status::IOError("connect");
    }
    return educe::base::Status::OK();
  }

  bool Send(const std::string& line) {
    size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Next '\n'-terminated line, without the terminator.
  bool ReadLine(std::string* line) {
    while (true) {
      const size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line->assign(buf_, pos_, nl - pos_);
        pos_ = nl + 1;
        return true;
      }
      buf_.erase(0, pos_);
      pos_ = 0;
      char chunk[16384];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

/// The value of binding `R` in a binding line (the values here contain
/// no characters JSON would escape).
bool ExtractR(const std::string& line, std::string* value) {
  constexpr std::string_view kKey = "\"bindings\":{\"R\":\"";
  const size_t at = line.find(kKey);
  if (at == std::string::npos) return false;
  const size_t start = at + kKey.size();
  const size_t end = line.find('"', start);
  if (end == std::string::npos) return false;
  value->assign(line, start, end - start);
  return true;
}

class MvvServer : public Workload {
 public:
  explicit MvvServer(const Args& args)
      : args_(args),
        mvv_(educe::workloads::MvvWorkload::Config{.seed = args.seed}),
        oracle_(ParseSchedule3(mvv_.facts())) {
    // The client and the server's handler take turns: one runs while the
    // other waits for its reply. Both go on the CPU the run started on
    // (threads inherit the affinity of the thread that starts them), so
    // each turn is a switch on one CPU rather than a wake-up of another,
    // whose latency on a virtual machine swings from run to run.
    const int cpu = sched_getcpu();
    if (cpu >= 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof(set), &set);
    }
    const std::vector<Segment>& s = oracle_.segments();
    for (size_t i = 0; i + 1 < s.size(); ++i) {
      // Consecutive segments of one trip: a two-leg journey exists.
      if (s[i].line == s[i + 1].line && s[i].to == s[i + 1].from &&
          s[i + 1].dep >= s[i].arr && s[i].from != s[i + 1].to) {
        pairs_.push_back(i);
      }
    }
  }

  int clients() const override { return kClients; }

  educe::base::Status Setup(SetupLayers* layers) override {
    engine_ = std::make_unique<Engine>();
    {
      SetupTimer timer(layers != nullptr ? &layers->store_ms : nullptr);
      EDUCE_RETURN_IF_ERROR(mvv_.Setup(engine_.get(), /*rules_external=*/true));
    }
    if (layers != nullptr) {
      EDUCE_RETURN_IF_ERROR(
          TimeFrontEnd(engine_.get(), {mvv_.facts()}, mvv_.rules(), layers));
    }
    educe::server::ServerOptions options;
    options.handler_threads = kClients;
    options.pool_sessions = kClients;
    server_ = std::make_unique<educe::server::QueryServer>(engine_.get(),
                                                           options);
    EDUCE_RETURN_IF_ERROR(server_->Start());
    for (int c = 0; c < kClients; ++c) {
      auto client = std::make_unique<LineClient>();
      EDUCE_RETURN_IF_ERROR(client->Connect(server_->port()));
      clients_.push_back(std::move(client));
    }
    return educe::base::Status::OK();
  }

  void Teardown() override {
    clients_.clear();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    engine_.reset();
  }

  // Per ten operations: four class 1 queries (one leg between adjacent
  // stops of a line) and six class 2 queries (two legs with one change),
  // so the median and p90 both fall inside the class 2 latencies.
  OpKind RunOp(int client, uint64_t seq, OpCtx* ctx) override {
    SeededRng rng(args_.seed ^ (static_cast<uint64_t>(client) << 48) ^
                  (seq * 0x2545f4914f6cdd1dull));
    const std::vector<Segment>& s = oracle_.segments();
    std::string goal;
    std::vector<std::string> expected;
    const int64_t slack = static_cast<int64_t>(rng.Below(31));
    if (seq % 10 < 4) {
      const Segment& leg = s[rng.Below(s.size())];
      const int64_t t0 = leg.dep - slack;
      goal = "route1(" + leg.from + ", " + leg.to + ", " +
             std::to_string(t0) + ", R)";
      expected = oracle_.Route1(leg.from, leg.to, t0);
    } else {
      const size_t i = pairs_[rng.Below(pairs_.size())];
      const int64_t t0 = s[i].dep - slack;
      goal = "route2(" + s[i].from + ", " + s[i + 1].to + ", " +
             std::to_string(t0) + ", R)";
      expected = oracle_.Route2(s[i].from, s[i + 1].to, t0);
    }
    if (args_.perturb && client == 0 && seq == 0) expected.push_back("[]");

    LineClient* conn = clients_[static_cast<size_t>(client)].get();
    std::vector<std::string> answers;
    std::string line;
    std::string value;
    bool done = false;
    {
      Timed request(ctx, "server.request");
      std::optional<Timed> first;
      std::optional<Timed> stream;
      first.emplace(ctx, "server.first_reply", &ctx->tally->first_reply_ns);
      const std::string request_line =
          "{\"op\":\"query\",\"id\":" + std::to_string(seq) + ",\"trace_id\":\"" +
          std::to_string(ctx->op_id) + "\",\"goal\":\"" + goal + "\"}\n";
      if (!conn->Send(request_line)) {
        ctx->tally->Fail(goal + ": send failed");
        return OpKind::kRead;
      }
      while (conn->ReadLine(&line)) {
        if (first) {
          first.reset();
          stream.emplace(ctx, "server.stream", &ctx->tally->stream_ns);
        }
        if (line.rfind("{\"type\":\"binding\"", 0) == 0) {
          ++ctx->tally->bindings;
          if (!ExtractR(line, &value)) break;
          answers.push_back(value);
        } else {
          done = line.rfind("{\"type\":\"done\"", 0) == 0;
          break;
        }
      }
    }
    if (!done) {
      ctx->tally->Fail(goal + ": " + line);
      return OpKind::kRead;
    }
    std::sort(answers.begin(), answers.end());
    if (answers != expected) {
      ctx->tally->Fail(goal + ": " + std::to_string(answers.size()) +
                       " answers, expected " +
                       std::to_string(expected.size()));
    }
    return OpKind::kRead;
  }

  Engine* engine() override { return engine_.get(); }

 private:
  Args args_;
  educe::workloads::MvvWorkload mvv_;
  MvvOracle oracle_;
  std::vector<size_t> pairs_;  // i: segments i, i+1 form a two-leg trip
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<educe::server::QueryServer> server_;
  std::vector<std::unique_ptr<LineClient>> clients_;
};

}  // namespace

std::unique_ptr<Workload> MakeMvvServer(const Args& args) {
  return std::make_unique<MvvServer>(args);
}

}  // namespace perfbench
