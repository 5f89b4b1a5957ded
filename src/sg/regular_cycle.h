#ifndef O2PC_SG_REGULAR_CYCLE_H_
#define O2PC_SG_REGULAR_CYCLE_H_

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/types.h"
#include "sg/serialization_graph.h"

/// \file
/// Detection of *regular cycles* (paper §5). A regular cycle is a global
/// cyclic path whose **minimal representation** — the decomposition into
/// the fewest single-site path segments — includes at least one regular
/// (non-compensating) global transaction. Cycles whose minimal
/// representations only switch sites at compensating transactions are
/// benign and allowed by the correctness criterion.
///
/// Algorithm. Conceptually, build the *reduced multigraph* over global
/// nodes (T's and CT's): an edge A --s--> B exists iff B is reachable from
/// A inside site s's local SG (through any intermediate nodes). A segment
/// endpoint of a minimal representation is always a point where the cycle
/// switches sites (same-site adjacent segments merge, which is exactly how
/// the paper's Example 1 drops the interior T_2). Hence:
///
///   a regular cycle exists  iff  some regular node T lies on a cycle of
///   the reduced multigraph with its entering segment at site s1 and its
///   leaving segment at site s2, s1 != s2.
///
/// Only edges inside one strongly connected component can lie on a cycle,
/// so the detector first runs one Tarjan pass over the whole global SG
/// (locals included) and materializes the per-site closure only between
/// global nodes of the same non-trivial SCC, following only edges whose
/// two ends are in that SCC. This loses nothing:
///
///   * A local transaction touches one site, so every edge into or out of
///     a local carries that site; a path changes site only at a global
///     node, and any global-SG path between global nodes splits into
///     reduced edges. The SCCs of the reduced graph are therefore the
///     global SG's SCCs restricted to global nodes.
///   * Every path between two nodes of one SCC stays inside that SCC, so
///     the intra-SCC closure edges are exactly those of the full closure.
///
/// On a near-serial history every SCC is a single node and the closure is
/// never built; the full closure would have O(N^2) entries.
///
/// T is a *pivot* iff it has an in-edge (X --s1--> T) and an out-edge
/// (T --s2--> Y) with s1 != s2 (X and Y are in T's SCC by construction),
/// **and no single-site closure edge X --s--> Y exists** — if one does,
/// re-routing through it costs one segment where the route through T costs
/// two, so every minimal representation drops T (this is exactly the
/// paper's Example 1, where the direct SG2 segment CT1 => CT3 shortcuts
/// the interior T2). When no one-segment bypass exists, the route through
/// T is minimal (possibly tied) and T appears on a minimal representation.
///
/// The bypass test examines single closure edges only; in rare tie
/// configurations where a two-segment bypass merges with neighbouring
/// segments, this errs toward *not* reporting a cycle (the permissive
/// direction). The strict variant (every site-switching pivot counts) is
/// available through Options for sensitivity analysis.

namespace o2pc::sg {

/// A demonstrable regular cycle: the pivot and one concrete cyclic path.
struct RegularCycleWitness {
  NodeRef pivot;                 // the regular transaction that is included
  SiteId in_site = kInvalidSite;   // site of the segment entering the pivot
  SiteId out_site = kInvalidSite;  // site of the segment leaving the pivot
  /// Reduced-graph cycle, starting and ending at `pivot` conceptually;
  /// stored as pivot, Y, ..., X (each consecutive pair is a reduced edge).
  std::vector<NodeRef> cycle;

  std::string ToString() const;
};

class RegularCycleDetector {
 public:
  struct Options {
    /// If true (default; matches the paper's Example 1), a pivot whose
    /// neighbours are directly connected by a single-site closure edge is
    /// not reported. If false, every site-switching pivot counts (a
    /// strictly stronger criterion).
    bool drop_bypassable_pivots = true;
  };

  /// Computes the global SG's SCCs and the intra-SCC reduced multigraph.
  explicit RegularCycleDetector(const SerializationGraph& global);
  RegularCycleDetector(const SerializationGraph& global, Options options);

  /// True iff the global SG contains a regular cycle.
  bool HasRegularCycle() const { return !pivots_.empty(); }

  /// All regular transactions that pivot some regular cycle.
  const std::vector<NodeRef>& pivots() const { return pivots_; }

  /// Materializes one witness cycle, if any exist.
  std::optional<RegularCycleWitness> FindWitness() const;

  /// True iff every SCC of the global SG is a single node: the global SG
  /// is acyclic outright (SerializationGraph never stores self-edges).
  bool acyclic() const { return acyclic_; }

  /// The intra-SCC reduced multigraph: A -> (B -> sites with a local path
  /// A=>B), only for global nodes A and B in the same non-trivial SCC of
  /// the global SG — the only closure edges that can lie on a cycle.
  using Reduced = std::map<NodeRef, std::map<NodeRef, std::set<SiteId>>>;
  const Reduced& reduced() const { return reduced_; }

  /// Global-SG SCC index of each global node (T or CT); nodes share an
  /// index iff they lie on a common cycle.
  const std::map<NodeRef, int>& scc() const { return scc_; }

 private:
  void BuildReduced(const SerializationGraph& global);
  void FindPivots();
  /// True if a single-site closure edge X -> Y exists (any site).
  bool HasDirectEdge(const NodeRef& from, const NodeRef& to) const;

  Options options_;
  Reduced reduced_;
  std::map<NodeRef, int> scc_;
  bool acyclic_ = true;
  std::vector<NodeRef> pivots_;
};

}  // namespace o2pc::sg

#endif  // O2PC_SG_REGULAR_CYCLE_H_
