#include <string>

#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/value.h"
#include "workloads.h"

namespace perfbench {

using namespace spatialjoin;

Box ToBox(const Rectangle& rect) {
  return Box{rect.min_x(), rect.min_y(), rect.max_x(), rect.max_y()};
}

std::vector<Box> ToBoxes(const std::vector<Rectangle>& rects) {
  std::vector<Box> boxes;
  boxes.reserve(rects.size());
  for (const Rectangle& rect : rects) boxes.push_back(ToBox(rect));
  return boxes;
}

StoredPair LoadPair(const std::vector<Rectangle>& r,
                    const std::vector<Rectangle>& s,
                    const StorageConfig& config, Report* report) {
  StoredPair p;
  p.disk = std::make_unique<DiskManager>(config.page_size);
  p.pool = std::make_unique<BufferPool>(p.disk.get(), config.pool_frames);
  const Schema schema({{"id", ValueType::kInt64},
                       {"box", ValueType::kRectangle}});
  p.r = std::make_unique<Relation>("r", schema, p.pool.get(), config.layout,
                                   config.pad_tuples_to, config.fill_factor);
  p.s = std::make_unique<Relation>("s", schema, p.pool.get(), config.layout,
                                   config.pad_tuples_to, config.fill_factor);
  p.r_rtree = std::make_unique<RTree>(p.pool.get(), RTreeSplit::kQuadratic,
                                      config.max_entries);
  p.s_rtree = std::make_unique<RTree>(p.pool.get(), RTreeSplit::kQuadratic,
                                      config.max_entries);
  const size_t n = std::max(r.size(), s.size());
  for (size_t i = 0; i < n; ++i) {
    const int64_t id = static_cast<int64_t>(i);
    if (i < r.size()) {
      const TupleId tid = p.r->Insert(Tuple({Value(id), Value(r[i])}));
      report->Check(tid == id, "R tuple " + std::to_string(i) + " got id " +
                                   std::to_string(tid));
      p.r_rtree->Insert(r[i], tid);
    }
    if (i < s.size()) {
      const TupleId tid = p.s->Insert(Tuple({Value(id), Value(s[i])}));
      report->Check(tid == id, "S tuple " + std::to_string(i) + " got id " +
                                   std::to_string(tid));
      p.s_rtree->Insert(s[i], tid);
    }
  }
  p.r_tree = std::make_unique<RTreeGenTree>(p.r_rtree.get(), p.r.get(), 1);
  p.s_tree = std::make_unique<RTreeGenTree>(p.s_rtree.get(), p.s.get(), 1);
  return p;
}

}  // namespace perfbench
