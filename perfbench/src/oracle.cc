#include "oracle.h"

#include <algorithm>
#include <numeric>
#include <set>

namespace perfbench {

WiscRelation::WiscRelation(std::string relation, int64_t n, uint64_t seed)
    : name(std::move(relation)), rows(n) {
  SeededRng rng(seed);
  do {
    mult = 1 + static_cast<int64_t>(rng.Below(static_cast<uint64_t>(n - 1)));
  } while (std::gcd(mult, n) != 1);
  add = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(n)));
}

std::string WiscRelation::StringU1(int64_t i) {
  // Seven letters, base 26, most significant first: unique per row.
  std::string s(7, 'a');
  for (int k = 6; k >= 0; --k) {
    s[static_cast<size_t>(k)] = static_cast<char>('a' + i % 26);
    i /= 26;
  }
  return "s" + s;
}

std::string WiscRelation::String4(int64_t i) {
  static const char* kFour[] = {"aaaa", "hhhh", "oooo", "vvvv"};
  return kFour[i % 4];
}

std::string WiscRelation::FactsText() const {
  std::string out;
  out.reserve(static_cast<size_t>(rows) * 48);
  for (int64_t i = 0; i < rows; ++i) {
    out += name + "(" + std::to_string(i) + "," + std::to_string(Unique2(i)) +
           "," + std::to_string(i % 10) + "," + std::to_string(i % 100) + "," +
           StringU1(i) + "," + String4(i) + ").\n";
  }
  return out;
}

void Digraph::RemoveEdge(int64_t from, int64_t to) {
  auto it = adj_.find(from);
  if (it == adj_.end()) return;
  auto pos = std::find(it->second.begin(), it->second.end(), to);
  if (pos != it->second.end()) it->second.erase(pos);
}

std::vector<int64_t> Digraph::Reach(int64_t source) const {
  std::set<int64_t> seen;
  std::vector<int64_t> frontier{source};
  while (!frontier.empty()) {
    const int64_t node = frontier.back();
    frontier.pop_back();
    auto it = adj_.find(node);
    if (it == adj_.end()) continue;
    for (int64_t next : it->second) {
      if (seen.insert(next).second) frontier.push_back(next);
    }
  }
  return {seen.begin(), seen.end()};
}

size_t Digraph::edges() const {
  size_t n = 0;
  for (const auto& [from, to] : adj_) n += to.size();
  return n;
}

std::vector<Segment> ParseSchedule3(std::string_view facts) {
  std::vector<Segment> out;
  constexpr std::string_view kHead = "schedule3(";
  size_t pos = 0;
  while ((pos = facts.find(kHead, pos)) != std::string_view::npos) {
    pos += kHead.size();
    const size_t close = facts.find(')', pos);
    std::vector<std::string> fields;
    size_t start = pos;
    while (start < close) {
      size_t comma = facts.find(',', start);
      if (comma == std::string_view::npos || comma > close) comma = close;
      std::string_view f = facts.substr(start, comma - start);
      while (!f.empty() && f.front() == ' ') f.remove_prefix(1);
      fields.emplace_back(f);
      start = comma + 1;
    }
    pos = close;
    if (fields.size() != 11) continue;
    out.push_back({fields[0], fields[2], fields[3], std::stoll(fields[4]),
                   std::stoll(fields[5])});
  }
  return out;
}

namespace {

std::string RenderLeg(const Segment& s) {
  return "leg(" + s.line + "," + s.from + "," + s.to + "," +
         std::to_string(s.dep) + "," + std::to_string(s.arr) + ")";
}

}  // namespace

MvvOracle::MvvOracle(std::vector<Segment> segments)
    : segments_(std::move(segments)) {
  for (const Segment& s : segments_) by_from_[s.from].push_back(&s);
}

std::vector<const Segment*> MvvOracle::Legs(const std::string& from,
                                            int64_t t0) const {
  std::vector<const Segment*> legs;
  auto it = by_from_.find(from);
  if (it == by_from_.end()) return legs;
  for (const Segment* s : it->second) {
    if (s->arr > s->dep && s->dep >= t0 && s->dep - t0 <= 240) {
      legs.push_back(s);
    }
  }
  return legs;
}

std::vector<std::string> MvvOracle::Route1(const std::string& from,
                                           const std::string& to,
                                           int64_t t0) const {
  std::vector<std::string> out;
  for (const Segment* s : Legs(from, t0)) {
    if (s->to == to) out.push_back("[" + RenderLeg(*s) + "]");
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> MvvOracle::Route2(const std::string& from,
                                           const std::string& to,
                                           int64_t t0) const {
  std::vector<std::string> out;
  for (const Segment* first : Legs(from, t0)) {
    if (first->to == to) continue;
    for (const Segment* second : Legs(first->to, first->arr)) {
      if (second->to != to) continue;
      out.push_back("[" + RenderLeg(*first) + "," + RenderLeg(*second) + "]");
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace perfbench
