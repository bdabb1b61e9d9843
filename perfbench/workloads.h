// The three workloads and the load path they share.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>
#include <vector>

#include "geometry/rectangle.h"
#include "oracle.h"
#include "relational/relation.h"
#include "rtree/rtree.h"
#include "rtree/rtree_gentree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "support.h"

namespace perfbench {

/// How a workload stores its two relations and their R-trees.
struct StorageConfig {
  size_t page_size = 4000;
  int64_t pool_frames = 1024;
  spatialjoin::RelationLayout layout = spatialjoin::RelationLayout::kHeap;
  size_t pad_tuples_to = 0;
  double fill_factor = 1.0;
  int max_entries = 0;  // 0 = derived from the page size
};

/// Two stored relations (id, box) with an R-tree on each box column,
/// presented as disk-backed generalization trees.
struct StoredPair {
  std::unique_ptr<spatialjoin::DiskManager> disk;
  std::unique_ptr<spatialjoin::BufferPool> pool;
  std::unique_ptr<spatialjoin::Relation> r, s;
  std::unique_ptr<spatialjoin::RTree> r_rtree, s_rtree;
  std::unique_ptr<spatialjoin::RTreeGenTree> r_tree, s_tree;
};

/// Inserts tuple i of each side with Relation::Insert and RTree::Insert,
/// checking that tuple i gets id i (the oracle's numbering).
StoredPair LoadPair(const std::vector<spatialjoin::Rectangle>& r,
                    const std::vector<spatialjoin::Rectangle>& s,
                    const StorageConfig& config, Report* report);

std::vector<Box> ToBoxes(const std::vector<spatialjoin::Rectangle>& rects);
Box ToBox(const spatialjoin::Rectangle& rect);

void RunInmemUniform(const Options& options, Tracer* tracer, Report* report);
void RunPagedClustered(const Options& options, Tracer* tracer,
                       Report* report);
void RunServiceMixed(const Options& options, Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
