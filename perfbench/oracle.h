// The benchmark's own answers, computed from the generated rectangles
// without the engine: a plane sweep for overlaps, a uniform grid for
// within-distance, and brute force for window selects. Every engine and
// service result is compared against these.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// A closed axis-parallel box; tuple i of a relation is box i.
struct Box {
  double x0, y0, x1, y1;
};

using Pair = std::pair<int64_t, int64_t>;

/// All (i, j) with r[i] and s[j] sharing a point (touching edges count),
/// sorted.
std::vector<Pair> OverlapPairs(const std::vector<Box>& r,
                               const std::vector<Box>& s);

/// All (i, j) whose box centres lie at Euclidean distance <= d, sorted.
std::vector<Pair> WithinDistancePairs(const std::vector<Box>& r,
                                      const std::vector<Box>& s, double d);

/// Indices of the boxes of `s` that share a point with `window`, sorted.
std::vector<int64_t> WindowAnswer(const std::vector<Box>& s,
                                  const Box& window);

/// Compares a result's pairs with a sorted oracle answer. Sorts `got` in
/// place; on a mismatch (duplicates included) fills `why` and returns
/// false.
bool SameAsOracle(std::vector<Pair>* got, const std::vector<Pair>& expected,
                  std::string* why);

/// Pins the oracle on a tiny hand-checked case: touching edges and
/// corners overlap, and a centre distance of exactly d matches.
bool OracleSelfTest(std::string* why);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
