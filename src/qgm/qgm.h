// The Query Graph Model (paper Sec. 2). A query is a rooted DAG of boxes:
//  - BASE boxes are base-table leaves,
//  - SELECT boxes perform select-project-join (WHERE/HAVING predicates and
//    all scalar computation),
//  - GROUPBY boxes group and compute aggregate functions; their grouping
//    predicates are simple input columns (QNCs) or grouping sets thereof.
//
// Input columns (QNCs) are referenced from expressions as
// expr::ColRef(quantifier_index, column_index_within_child_outputs).
// Output columns (QCLs) are the box's `outputs`.
//
// A GROUPBY box's outputs are its grouping columns first (simple column
// refs, in grouping-item order) followed by its aggregate QCLs (aggregate
// functions over simple input columns). `grouping_sets` holds the canonical
// gs(GS1..GSk) form over grouping-output indexes; a simple GROUP BY has one
// set containing all of them (Sec. 5).
#ifndef SUMTAB_QGM_QGM_H_
#define SUMTAB_QGM_QGM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "common/value.h"
#include "expr/expr.h"

namespace sumtab {
namespace qgm {

using BoxId = int;
constexpr BoxId kInvalidBox = -1;

/// Edge from a box to one child (producer). Scalar quantifiers carry the
/// single row of an uncorrelated scalar subquery (0 rows -> NULL row).
struct Quantifier {
  enum class Kind { kForeach, kScalar };
  BoxId child = kInvalidBox;
  Kind kind = Kind::kForeach;
};

/// One QCL. For BASE boxes expr is null (the column is the stored column at
/// the same index); otherwise expr is over the box's QNCs.
struct OutputColumn {
  std::string name;
  expr::ExprPtr expr;
};

/// Static type/nullability of one output column (filled by InferColumnInfo).
struct ColumnInfo {
  Type type = Type::kInt;
  bool nullable = false;
};

struct Box {
  enum class Kind { kBase, kSelect, kGroupBy };

  BoxId id = kInvalidBox;
  Kind kind = Kind::kSelect;

  // kBase only.
  std::string table_name;

  std::vector<Quantifier> quantifiers;

  // kSelect only: conjunctive predicates (WHERE or HAVING).
  std::vector<expr::ExprPtr> predicates;
  // kSelect only: duplicate elimination.
  bool distinct = false;

  std::vector<OutputColumn> outputs;

  // kGroupBy only: canonical grouping sets over *output indexes* of grouping
  // outputs. A simple GROUP BY has exactly one set listing every grouping
  // output; scalar aggregation has one empty set. Grouping outputs are the
  // non-aggregate outputs (simple input-column refs); they usually precede
  // the aggregates but compensation boxes may append more.
  std::vector<std::vector<int>> grouping_sets;

  // Cached analysis results (InferColumnInfo).
  std::vector<ColumnInfo> column_info;

  bool IsGroupBy() const { return kind == Kind::kGroupBy; }
  bool IsSimpleGroupBy() const {
    return IsGroupBy() && grouping_sets.size() == 1 &&
           static_cast<int>(grouping_sets[0].size()) == NumGroupingOutputs();
  }
  int NumOutputs() const { return static_cast<int>(outputs.size()); }

  /// For GROUPBY boxes: true if output index i is a grouping column.
  bool IsGroupingOutput(int i) const {
    return IsGroupBy() && outputs[i].expr != nullptr &&
           outputs[i].expr->kind != expr::Expr::Kind::kAggregate;
  }

  int NumGroupingOutputs() const {
    int n = 0;
    for (int i = 0; i < NumOutputs(); ++i) n += IsGroupingOutput(i) ? 1 : 0;
    return n;
  }

  /// Output indexes of all grouping outputs, in output order.
  std::vector<int> GroupingOutputs() const {
    std::vector<int> out;
    for (int i = 0; i < NumOutputs(); ++i) {
      if (IsGroupingOutput(i)) out.push_back(i);
    }
    return out;
  }

  /// Index of the output named `name` (case-sensitive; names are stored
  /// lower-case), or -1.
  int OutputIndex(const std::string& name) const;
};

/// Result ordering requested at the top level (ORDER BY); carried on the
/// graph because QGM boxes model semantics, not presentation.
struct OrderSpec {
  int output_index = 0;
  bool ascending = true;
};

class Graph {
 public:
  Graph() = default;
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  Box* AddBox(Box::Kind kind);
  Box* box(BoxId id) { return boxes_[id].get(); }
  const Box* box(BoxId id) const { return boxes_[id].get(); }
  int size() const { return static_cast<int>(boxes_.size()); }

  BoxId root() const { return root_; }
  void set_root(BoxId id) { root_ = id; }

  const std::vector<OrderSpec>& order_by() const { return order_by_; }
  void set_order_by(std::vector<OrderSpec> spec) {
    order_by_ = std::move(spec);
  }

  /// Boxes that consume `id` via a quantifier.
  std::vector<BoxId> Parents(BoxId id) const;

  /// Children-before-parents order over boxes reachable from root.
  std::vector<BoxId> TopologicalOrder() const;

  /// Max distance to a leaf (BASE boxes have rank 0).
  int Rank(BoxId id) const;

  /// Deep-copies the subgraph rooted at src_root (from graph src, which may
  /// be *this) into this graph; returns the new root's id. `mapping`, when
  /// given, receives each copied src box id -> its copy's id.
  BoxId CloneSubgraph(const Graph& src, BoxId src_root,
                      std::map<BoxId, BoxId>* mapping = nullptr);

  /// Deep-copies an entire graph including root and order-by.
  static Graph CloneGraph(const Graph& src);

  /// Removes boxes unreachable from the root and renumbers ids (used after
  /// normalization; Parents() must never surface orphaned boxes).
  void Compact();

 private:
  friend Graph BindSlots(const Graph& graph, const std::vector<Value>& params);

  // Shared only between a cached plan and the graphs BindSlots makes from
  // it, all of which stay immutable.
  std::vector<std::shared_ptr<Box>> boxes_;
  BoxId root_ = kInvalidBox;
  std::vector<OrderSpec> order_by_;
};

/// Computes column_info for every box reachable from the root, bottom-up.
/// BASE boxes take their info from the catalog (summary tables included).
Status InferColumnInfo(Graph* graph, const catalog::Catalog& catalog);

/// Computes column_info for one non-BASE box whose children already carry
/// info (used for compensation boxes assembled by the matcher).
Status ComputeBoxColumnInfo(Graph* graph, Box* box);

/// True when grouping output `output` of GROUP-BY box `gb` can be NULL in
/// the data, judged by its source column in the child (the box's own
/// column_info folds in grouping-set padding, so it cannot tell). A grouping
/// output that is not a plain input column counts as nullable. Under several
/// grouping sets such a column's data NULL and a coarser cuboid's padding
/// NULL look alike, so neither cuboid slicing nor a keyed delta merge may
/// rely on IS NULL there.
bool NullableGroupingSource(const Graph& graph, const Box& gb, int output);

/// `graph` with every slot literal bound to params[slot] (DESIGN.md §8): a
/// cached template plan made executable for one query's literals. Boxes
/// without a slot literal are shared with `graph`, not copied, so neither
/// graph may be mutated afterwards.
Graph BindSlots(const Graph& graph, const std::vector<Value>& params);

/// QGM normalization (paper footnote 6: consecutive SELECT boxes can almost
/// always be merged): inlines every non-DISTINCT SELECT child with a single
/// consumer into its SELECT parent, splicing quantifiers and predicates.
/// Derived tables then match as if written in one block.
Status MergeSelectChains(Graph* graph);

/// Type/nullability of an expression evaluated inside `box` (whose children
/// must already carry column_info).
StatusOr<ColumnInfo> ExprInfo(const expr::ExprPtr& e, const Box& box,
                              const Graph& graph);

}  // namespace qgm
}  // namespace sumtab

#endif  // SUMTAB_QGM_QGM_H_
