// Internal helpers shared by the GROUP-BY patterns (paper 4.1.2 / 4.2.1 /
// 4.2.2) and the cube patterns (5.1 / 5.2). Not part of the public API.
#ifndef SUMTAB_MATCHING_GROUPBY_CORE_H_
#define SUMTAB_MATCHING_GROUPBY_CORE_H_

#include <vector>

#include "common/status.h"
#include "matching/column_equivalence.h"
#include "matching/derive.h"
#include "matching/match_fn.h"

namespace sumtab {
namespace matching {

/// Shape of the compensation between the subsumee's child and the subsumer's
/// child, as the GROUP-BY patterns see it.
struct GBChildComp {
  /// Exact child match: colmap maps E-child QCLs to R-child QCLs.
  bool trivial = true;
  const std::vector<int>* colmap = nullptr;  // null = identity
  /// Single compensation SELECT box (pattern 4.2.1); kInvalidBox when trivial.
  qgm::BoxId select_box = qgm::kInvalidBox;
};

/// Everything AnalyzeGroupByMatch learns about one (E cuboid, R cuboid)
/// candidate; enough to build the compensation or declare exactness.
struct GBMatchInfo {
  bool needs_regroup = false;
  bool exact = false;  // 4.1.2 no-compensation case
  /// Per E output index: derived expr over the comp-select vocabulary
  /// (ColRef{0,k} = subsumer output k; RejoinRef leaves). For aggregates in
  /// the no-regroup case this is the direct ColRef to the matched R QCL.
  std::vector<expr::ExprPtr> derived_outputs;  // indexed by E output index
  /// Per E output index: R output index when the derivation is a direct
  /// column, else -1 (used for exact colmaps).
  std::vector<int> direct_map;
  /// Per E aggregate output index: regrouping derivation (valid when
  /// needs_regroup).
  std::vector<std::pair<int, AggDerivation>> agg_derivations;
  /// Pulled-up child-compensation predicates, derived (comp-select vocab).
  std::vector<expr::ExprPtr> pulled_preds;
  /// Rejoin clone roots that must be attached to the comp select.
  std::vector<qgm::BoxId> rejoin_boxes;
};

/// Classifies the child compensation of the (e, r) GROUP-BY pair. NotFound
/// when the children were never matched; `chain_out` receives the comp chain
/// when it contains a GROUP-BY box (pattern 4.2.2 takes over then).
StatusOr<GBChildComp> GetGBChildComp(MatchSession* session, const qgm::Box& e,
                                     const qgm::Box& r, bool* has_gb,
                                     CompChain* chain_out);

/// Runs the matching conditions of 4.1.2 / 4.2.1, restricted to one subsumee
/// cuboid (`e_set`, output indexes; null = all grouping outputs) against one
/// subsumer cuboid (`r_set`, output indexes; null = all).
StatusOr<GBMatchInfo> AnalyzeGroupByMatch(MatchSession* session,
                                          const qgm::Box& e,
                                          const std::vector<int>* e_set,
                                          const qgm::Box& r,
                                          const std::vector<int>* r_set,
                                          const GBChildComp& child_comp);

/// Assembles the compensation for an analyzed GROUP-BY match: a SELECT box
/// (slicing predicates + pulled-up predicates + rejoins + derivations),
/// followed by a GROUP-BY box when info.needs_regroup. The comp GROUP-BY
/// reuses the subsumee's grouping sets (E output indexes == comp output
/// indexes by construction).
StatusOr<qgm::BoxId> BuildGroupByComp(MatchSession* session, const qgm::Box& e,
                                      const qgm::Box& r,
                                      const GBMatchInfo& info,
                                      std::vector<expr::ExprPtr> slicing_preds);

/// The NULL-slicing predicate selecting cuboid `r_set` out of a
/// multidimensional subsumer (paper Sec. 5.1): conjunction over the
/// subsumer's grouping outputs of IS [NOT] NULL tests, in the comp-select
/// vocabulary. Rejects (nullable_grouping_slice) when any of those outputs
/// can be NULL in the data (qgm::NullableGroupingSource): the slice would
/// mix its rows up with other cuboids'.
StatusOr<std::vector<expr::ExprPtr>> SlicingPredicates(
    const MatchSession& session, const qgm::Box& r,
    const std::vector<int>& r_set);

/// AnalyzeGroupByMatch with regrouping forced on (5.2 fallback: a
/// multidimensional subsumee must regroup by its own gs function even when
/// its union grouping set coincides with the chosen subsumer cuboid).
StatusOr<GBMatchInfo> AnalyzeGroupByMatchForced(
    MatchSession* session, const qgm::Box& e, const std::vector<int>* e_set,
    const qgm::Box& r, const std::vector<int>* r_set,
    const GBChildComp& child_comp, bool force_regroup);

/// Patterns 5.1 and 5.2 (implemented in cube.cc).
StatusOr<MatchResult> MatchCube(MatchSession* session, const qgm::Box& e,
                                const qgm::Box& r,
                                const GBChildComp& child_comp);

}  // namespace matching
}  // namespace sumtab

#endif  // SUMTAB_MATCHING_GROUPBY_CORE_H_
