#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

namespace perfbench {

namespace {

bool YOverlap(const Box& a, const Box& b) {
  return a.y0 <= b.y1 && b.y0 <= a.y1;
}

std::vector<int64_t> ByMinX(const std::vector<Box>& boxes) {
  std::vector<int64_t> order(boxes.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return boxes[static_cast<size_t>(a)].x0 < boxes[static_cast<size_t>(b)].x0;
  });
  return order;
}

double Centre(double lo, double hi) { return (lo + hi) / 2.0; }

}  // namespace

std::vector<Pair> OverlapPairs(const std::vector<Box>& r,
                               const std::vector<Box>& s) {
  // Forward plane sweep on x: the box with the smaller left edge scans
  // the other list for boxes starting no later than its right edge. Ties
  // go to r, so each pair is found exactly once.
  const std::vector<int64_t> ro = ByMinX(r);
  const std::vector<int64_t> so = ByMinX(s);
  std::vector<Pair> out;
  size_t i = 0, j = 0;
  while (i < ro.size() && j < so.size()) {
    const Box& a = r[static_cast<size_t>(ro[i])];
    const Box& b = s[static_cast<size_t>(so[j])];
    if (a.x0 <= b.x0) {
      for (size_t k = j; k < so.size(); ++k) {
        const Box& c = s[static_cast<size_t>(so[k])];
        if (c.x0 > a.x1) break;
        if (YOverlap(a, c)) out.emplace_back(ro[i], so[k]);
      }
      ++i;
    } else {
      for (size_t k = i; k < ro.size(); ++k) {
        const Box& c = r[static_cast<size_t>(ro[k])];
        if (c.x0 > b.x1) break;
        if (YOverlap(c, b)) out.emplace_back(ro[k], so[j]);
      }
      ++j;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Pair> WithinDistancePairs(const std::vector<Box>& r,
                                      const std::vector<Box>& s, double d) {
  // Bucket s's centres into square cells of side d; a centre within d of
  // a point lies in that point's cell or one of its eight neighbours.
  auto key = [](int64_t cx, int64_t cy) {
    return (static_cast<uint64_t>(cx) << 32) ^
           static_cast<uint64_t>(static_cast<uint32_t>(cy));
  };
  auto cell = [d](double v) { return static_cast<int64_t>(std::floor(v / d)); };
  std::unordered_map<uint64_t, std::vector<int64_t>> grid;
  for (size_t j = 0; j < s.size(); ++j) {
    grid[key(cell(Centre(s[j].x0, s[j].x1)), cell(Centre(s[j].y0, s[j].y1)))]
        .push_back(static_cast<int64_t>(j));
  }
  std::vector<Pair> out;
  for (size_t i = 0; i < r.size(); ++i) {
    const double px = Centre(r[i].x0, r[i].x1);
    const double py = Centre(r[i].y0, r[i].y1);
    const int64_t cx = cell(px), cy = cell(py);
    for (int64_t gx = cx - 1; gx <= cx + 1; ++gx) {
      for (int64_t gy = cy - 1; gy <= cy + 1; ++gy) {
        auto it = grid.find(key(gx, gy));
        if (it == grid.end()) continue;
        for (int64_t j : it->second) {
          const Box& b = s[static_cast<size_t>(j)];
          const double dx = px - Centre(b.x0, b.x1);
          const double dy = py - Centre(b.y0, b.y1);
          if (std::sqrt(dx * dx + dy * dy) <= d) {
            out.emplace_back(static_cast<int64_t>(i), j);
          }
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<int64_t> WindowAnswer(const std::vector<Box>& s,
                                  const Box& window) {
  std::vector<int64_t> out;
  for (size_t j = 0; j < s.size(); ++j) {
    const Box& b = s[j];
    if (b.x0 <= window.x1 && window.x0 <= b.x1 && YOverlap(b, window)) {
      out.push_back(static_cast<int64_t>(j));
    }
  }
  return out;
}

bool SameAsOracle(std::vector<Pair>* got, const std::vector<Pair>& expected,
                  std::string* why) {
  std::sort(got->begin(), got->end());
  if (std::adjacent_find(got->begin(), got->end()) != got->end()) {
    *why = "duplicate pair in result";
    return false;
  }
  if (*got != expected) {
    *why = "result has " + std::to_string(got->size()) + " pairs, oracle " +
           std::to_string(expected.size());
    return false;
  }
  return true;
}

bool OracleSelfTest(std::string* why) {
  // r0 = [0,1]x[0,1]. s0 shares r0's right edge, s1 only its top-right
  // corner, s2 is clear of it by 0.5, s3 lies inside it.
  const std::vector<Box> r = {{0, 0, 1, 1}, {10, 10, 12, 12}};
  const std::vector<Box> s = {
      {1, 0, 2, 1}, {1, 1, 3, 3}, {1.5, 1.5, 2, 2}, {0.25, 0.25, 0.5, 0.5}};
  const std::vector<Pair> overlaps = {{0, 0}, {0, 1}, {0, 3}};
  if (OverlapPairs(r, s) != overlaps) {
    *why = "oracle self-test: overlaps";
    return false;
  }
  if (WindowAnswer(s, Box{1, 1, 1, 1}) != std::vector<int64_t>{0, 1}) {
    *why = "oracle self-test: window";
    return false;
  }
  // Centres (0, 0) and (3, 4) lie exactly 5 apart; (0, 0) and (3, 4.5)
  // do not lie within 5.
  const std::vector<Box> p = {{-1, -1, 1, 1}};
  const std::vector<Box> q = {{2, 3, 4, 5}, {2, 3.5, 4, 5.5}};
  if (WithinDistancePairs(p, q, 5.0) != std::vector<Pair>{{0, 0}}) {
    *why = "oracle self-test: within distance";
    return false;
  }
  return true;
}

}  // namespace perfbench
