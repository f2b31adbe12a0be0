#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// Expected answers computed apart from the engine: plain C++ over the
// generated inputs, sharing no code with the engine's evaluation paths.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Deterministic 64-bit generator for the benchmark's inputs (SplitMix64).
/// The benchmark's own, so engine changes cannot change its inputs.
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

/// A Wisconsin-style relation of `rows` tuples
///   name(Unique1, Unique2, Ten, OnePercent, StringU1, String4)
/// with Unique1 = i, Unique2 a seeded permutation of 0..rows-1,
/// Ten = i mod 10, OnePercent = i mod 100, StringU1 a unique atom and
/// String4 one of four atoms. Every value is arithmetic in i.
struct WiscRelation {
  std::string name;
  int64_t rows = 0;
  int64_t mult = 1;  // coprime with rows: i -> (i*mult + add) mod rows
  int64_t add = 0;

  WiscRelation(std::string name, int64_t rows, uint64_t seed);
  int64_t Unique2(int64_t i) const { return (i * mult + add) % rows; }
  static std::string StringU1(int64_t i);
  static std::string String4(int64_t i);
  /// The relation as Prolog facts.
  std::string FactsText() const;
};

/// Graph reachability by breadth-first search.
class Digraph {
 public:
  void AddEdge(int64_t from, int64_t to) { adj_[from].push_back(to); }
  void RemoveEdge(int64_t from, int64_t to);
  /// Every node reachable from `source` by one or more edges, sorted.
  std::vector<int64_t> Reach(int64_t source) const;
  size_t edges() const;
  const std::map<int64_t, std::vector<int64_t>>& adjacency() const {
    return adj_;
  }

 private:
  std::map<int64_t, std::vector<int64_t>> adj_;
};

/// One schedule3/11 row of the MVV facts.
struct Segment {
  std::string line;
  std::string from;
  std::string to;
  int64_t dep = 0;
  int64_t arr = 0;
};

/// Reads the schedule3 rows out of the generated MVV fact text with a
/// plain field split (no Prolog reader).
std::vector<Segment> ParseSchedule3(std::string_view facts);

/// Answers of the MVV route rules, rendered as the engine writes the
/// list R ("[leg(L,F,T,D,A),...]"), as a sorted multiset:
///   route1(F, T, T0, R): one leg F->T departing in [T0, T0+240];
///   route2(F, T, T0, R): a leg F->M (M != T) departing in [T0, T0+240],
///     then a leg M->T departing within 240 minutes of its arrival.
class MvvOracle {
 public:
  explicit MvvOracle(std::vector<Segment> segments);
  std::vector<std::string> Route1(const std::string& from,
                                  const std::string& to, int64_t t0) const;
  std::vector<std::string> Route2(const std::string& from,
                                  const std::string& to, int64_t t0) const;
  const std::vector<Segment>& segments() const { return segments_; }

 private:
  std::vector<const Segment*> Legs(const std::string& from, int64_t t0) const;
  std::vector<Segment> segments_;
  std::map<std::string, std::vector<const Segment*>> by_from_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
