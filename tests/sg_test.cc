// Unit tests for the serialization-graph toolkit, including executable
// reproductions of the paper's Figure 1 (regular cycles) and Example 1
// (minimal representations dropping interior transactions).

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/system.h"
#include "sg/conflict_tracker.h"
#include "sg/correctness.h"
#include "sg/regular_cycle.h"
#include "sg/serialization_graph.h"
#include "sg_reference_detector.h"
#include "workload/generator.h"

namespace o2pc::sg {
namespace {

TEST(SerializationGraphTest, AddAndQueryEdges) {
  SerializationGraph graph;
  graph.AddEdge(GlobalNode(1), GlobalNode(2), 0);
  EXPECT_TRUE(graph.HasEdge(GlobalNode(1), GlobalNode(2)));
  EXPECT_FALSE(graph.HasEdge(GlobalNode(2), GlobalNode(1)));
  EXPECT_EQ(graph.nodes().size(), 2u);
  EXPECT_EQ(graph.edge_count(), 1u);
}

TEST(SerializationGraphTest, SelfEdgesIgnored) {
  SerializationGraph graph;
  graph.AddEdge(GlobalNode(1), GlobalNode(1), 0);
  EXPECT_EQ(graph.edge_count(), 0u);
}

TEST(SerializationGraphTest, CycleDetection) {
  SerializationGraph graph;
  graph.AddEdge(GlobalNode(1), GlobalNode(2), 0);
  graph.AddEdge(GlobalNode(2), GlobalNode(3), 0);
  EXPECT_FALSE(graph.HasCycle());
  graph.AddEdge(GlobalNode(3), GlobalNode(1), 1);
  EXPECT_TRUE(graph.HasCycle());
  EXPECT_EQ(graph.FindCycle().size(), 3u);
}

TEST(SerializationGraphTest, TAndCtAreDistinctNodes) {
  SerializationGraph graph;
  graph.AddEdge(GlobalNode(1), CompNode(1), 0);
  EXPECT_EQ(graph.nodes().size(), 2u);
  EXPECT_FALSE(graph.HasCycle());
}

TEST(SerializationGraphTest, MergeUnionsEdgesAndSites) {
  SerializationGraph a;
  a.AddEdge(GlobalNode(1), GlobalNode(2), 0);
  SerializationGraph b;
  b.AddEdge(GlobalNode(1), GlobalNode(2), 1);
  b.AddEdge(GlobalNode(2), GlobalNode(3), 1);
  a.Merge(b);
  EXPECT_EQ(a.edge_count(), 2u);
  EXPECT_EQ(a.adjacency().at(GlobalNode(1)).at(GlobalNode(2)).size(), 2u);
}

// --- Figure 1: regular cycles -------------------------------------------

TEST(RegularCycleTest, FigureOneA_TwoSiteCycleThroughRegularPivot) {
  // SG1: CT1 -> T2 ;  SG2: T2 -> CT1. The cyclic path switches sites at
  // T2 (a regular transaction), so this is a regular cycle.
  SerializationGraph global;
  global.AddEdge(CompNode(1), GlobalNode(2), 1);
  global.AddEdge(GlobalNode(2), CompNode(1), 2);
  RegularCycleDetector detector(global);
  EXPECT_TRUE(detector.HasRegularCycle());
  ASSERT_EQ(detector.pivots().size(), 1u);
  EXPECT_EQ(detector.pivots()[0], GlobalNode(2));
  auto witness = detector.FindWitness();
  ASSERT_TRUE(witness.has_value());
  EXPECT_EQ(witness->pivot, GlobalNode(2));
  EXPECT_NE(witness->in_site, witness->out_site);
}

TEST(RegularCycleTest, FigureOneB_ThreeSiteCycleWithTwoRegulars) {
  // SG1: T2 -> CT1 ; SG2: CT1 -> T3 ; SG3: T3 -> T2.
  SerializationGraph global;
  global.AddEdge(GlobalNode(2), CompNode(1), 1);
  global.AddEdge(CompNode(1), GlobalNode(3), 2);
  global.AddEdge(GlobalNode(3), GlobalNode(2), 3);
  RegularCycleDetector detector(global);
  EXPECT_TRUE(detector.HasRegularCycle());
  EXPECT_EQ(detector.pivots().size(), 2u);  // T2 and T3 both pivot
}

TEST(RegularCycleTest, FigureOneC_CycleThroughForwardAndItsCt) {
  // SG1: T1 -> T2 ; SG2: T2 -> T1 -> CT1 (T2 ran between T1 and its CT at
  // site 2). Cyclic path T1 -> T2 -> T1 pivots at both regulars.
  SerializationGraph global;
  global.AddEdge(GlobalNode(1), GlobalNode(2), 1);
  global.AddEdge(GlobalNode(2), GlobalNode(1), 2);
  global.AddEdge(GlobalNode(1), CompNode(1), 2);
  RegularCycleDetector detector(global);
  EXPECT_TRUE(detector.HasRegularCycle());
}

TEST(RegularCycleTest, CompensationOnlyCycleIsAllowed) {
  // Cycles whose only global transactions are CTs are explicitly allowed
  // (§4: compensating subtransactions are independent).
  SerializationGraph global;
  global.AddEdge(CompNode(1), CompNode(2), 1);
  global.AddEdge(CompNode(2), CompNode(1), 2);
  RegularCycleDetector detector(global);
  EXPECT_FALSE(detector.HasRegularCycle());
  EXPECT_TRUE(global.HasCycle());  // but it is a cycle
}

TEST(RegularCycleTest, CtCycleThroughLocalsIsAllowed) {
  SerializationGraph global;
  global.AddEdge(CompNode(1), LocalNode(7), 1);
  global.AddEdge(LocalNode(7), CompNode(2), 1);
  global.AddEdge(CompNode(2), CompNode(1), 2);
  RegularCycleDetector detector(global);
  EXPECT_FALSE(detector.HasRegularCycle());
}

// --- Example 1: minimal representations ---------------------------------

TEST(RegularCycleTest, ExampleOne_InteriorRegularNotIncluded) {
  // Local paths (paper Example 1):
  //   CT1 -> T2            in SG1
  //   CT1 -> T2 -> CT3     in SG2
  //   CT3 -> CT1           in SG3
  // The global cyclic path CT1 -> CT3 -> CT1 exists, but its minimal
  // representation uses the direct SG2 segment CT1 -> CT3, which does NOT
  // include the interior T2 — so there is no regular cycle.
  SerializationGraph global;
  global.AddEdge(CompNode(1), GlobalNode(2), 1);
  global.AddEdge(CompNode(1), GlobalNode(2), 2);
  global.AddEdge(GlobalNode(2), CompNode(3), 2);
  global.AddEdge(CompNode(3), CompNode(1), 3);
  RegularCycleDetector detector(global);
  EXPECT_TRUE(global.HasCycle());
  EXPECT_FALSE(detector.HasRegularCycle())
      << "T2 is interior to a single-site segment and must be dropped by "
         "the minimal representation";
  // The reduced graph has the direct closure edge CT1 -> CT3 at site 2;
  // both ends lie in the one cyclic SCC, so it is materialized.
  EXPECT_FALSE(detector.acyclic());
  EXPECT_TRUE(detector.reduced().at(CompNode(1)).contains(CompNode(3)));
}

TEST(RegularCycleTest, SameSiteInOutDoesNotPivot) {
  // X -> T and T -> Y both inside site 1 merge into one segment; the
  // return path Y -> X at site 2 closes a cycle that never switches sites
  // at T.
  SerializationGraph global;
  global.AddEdge(CompNode(1), GlobalNode(5), 1);
  global.AddEdge(GlobalNode(5), CompNode(2), 1);
  global.AddEdge(CompNode(2), CompNode(1), 2);
  RegularCycleDetector detector(global);
  EXPECT_FALSE(detector.HasRegularCycle());
}

TEST(RegularCycleTest, DifferentSiteInOutPivots) {
  SerializationGraph global;
  global.AddEdge(CompNode(1), GlobalNode(5), 1);
  global.AddEdge(GlobalNode(5), CompNode(2), 2);  // note: site 2
  global.AddEdge(CompNode(2), CompNode(1), 3);
  RegularCycleDetector detector(global);
  EXPECT_TRUE(detector.HasRegularCycle());
  ASSERT_EQ(detector.pivots().size(), 1u);
  EXPECT_EQ(detector.pivots()[0], GlobalNode(5));
}

TEST(RegularCycleTest, ClosureWalksThroughLocalTransactions) {
  // CT1 -> L9 -> T2 within site 1 yields reduced edge CT1 -> T2.
  SerializationGraph global;
  global.AddEdge(CompNode(1), LocalNode(9), 1);
  global.AddEdge(LocalNode(9), GlobalNode(2), 1);
  global.AddEdge(GlobalNode(2), CompNode(1), 2);
  RegularCycleDetector detector(global);
  EXPECT_TRUE(detector.HasRegularCycle());
  EXPECT_EQ(detector.pivots()[0], GlobalNode(2));
}

TEST(RegularCycleTest, AcyclicGraphHasNoPivots) {
  SerializationGraph global;
  global.AddEdge(GlobalNode(1), GlobalNode(2), 1);
  global.AddEdge(GlobalNode(2), CompNode(3), 2);
  RegularCycleDetector detector(global);
  EXPECT_FALSE(detector.HasRegularCycle());
  EXPECT_FALSE(detector.FindWitness().has_value());
  // Every SCC is a single node, so no closure edge is materialized.
  EXPECT_TRUE(detector.acyclic());
  EXPECT_TRUE(detector.reduced().empty());
}

TEST(RegularCycleTest, WitnessDescribesTheCycle) {
  SerializationGraph global;
  global.AddEdge(CompNode(1), GlobalNode(2), 1);
  global.AddEdge(GlobalNode(2), CompNode(1), 2);
  RegularCycleDetector detector(global);
  auto witness = detector.FindWitness();
  ASSERT_TRUE(witness.has_value());
  const std::string text = witness->ToString();
  EXPECT_NE(text.find("T2"), std::string::npos);
  EXPECT_NE(text.find("CT1"), std::string::npos);
}

// --- SCC-first detection against the full-closure reference model --------

// A random global SG over `sites` sites: regular globals, some of their
// CTs, and locals bound to one site each (so every edge touching a local
// carries that local's site). Dense enough to form non-trivial SCCs.
SerializationGraph RandomMultiSiteSg(std::uint64_t seed) {
  Rng rng(seed);
  const int sites = static_cast<int>(rng.Uniform(2, 4));
  std::vector<NodeRef> nodes;
  std::map<NodeRef, SiteId> local_site;
  const int globals = static_cast<int>(rng.Uniform(3, 10));
  for (TxnId id = 1; id <= static_cast<TxnId>(globals); ++id) {
    nodes.push_back(GlobalNode(id));
    if (rng.Bernoulli(0.4)) nodes.push_back(CompNode(id));
  }
  const int locals = static_cast<int>(rng.Uniform(0, 8));
  for (TxnId id = 100; id < 100 + static_cast<TxnId>(locals); ++id) {
    nodes.push_back(LocalNode(id));
    local_site[LocalNode(id)] = static_cast<SiteId>(rng.Uniform(0, sites - 1));
  }
  const int last = static_cast<int>(nodes.size()) - 1;
  const int edges = static_cast<int>(nodes.size() * rng.Uniform(1, 3));
  SerializationGraph graph;
  for (int i = 0; i < edges; ++i) {
    const NodeRef from = nodes[rng.Uniform(0, last)];
    const NodeRef to = nodes[rng.Uniform(0, last)];
    SiteId site = static_cast<SiteId>(rng.Uniform(0, sites - 1));
    if (from.kind == TxnKind::kLocal) site = local_site.at(from);
    if (to.kind == TxnKind::kLocal) {
      if (from.kind == TxnKind::kLocal && local_site.at(to) != site) continue;
      site = local_site.at(to);
    }
    graph.AddEdge(from, to, site);
  }
  return graph;
}

// Everything the detector reports must equal the reference model's
// output, and its intra-SCC closure must be exactly the reference
// closure's same-component edges.
void ExpectMatchesReference(const SerializationGraph& global,
                            RegularCycleDetector::Options options) {
  const RegularCycleDetector detector(global, options);
  const testing::ReferenceRegularCycleDetector reference(global, options);
  EXPECT_EQ(detector.acyclic(), !global.HasCycle());
  EXPECT_EQ(detector.pivots(), reference.pivots());
  EXPECT_EQ(detector.HasRegularCycle(), reference.HasRegularCycle());
  const auto witness = detector.FindWitness();
  const auto reference_witness = reference.FindWitness();
  ASSERT_EQ(witness.has_value(), reference_witness.has_value());
  if (witness.has_value()) {
    EXPECT_EQ(witness->ToString(), reference_witness->ToString());
  }
  RegularCycleDetector::Reduced intra_scc;
  for (const auto& [from, targets] : reference.reduced()) {
    for (const auto& [to, sites] : targets) {
      if (reference.scc().at(from) == reference.scc().at(to)) {
        intra_scc[from][to] = sites;
      }
    }
  }
  EXPECT_EQ(detector.reduced(), intra_scc);
}

TEST(RegularCyclePropertyTest, MatchesFullClosureReferenceOnRandomGraphs) {
  int regular = 0;
  int cyclic_without_regular = 0;
  int acyclic = 0;
  for (std::uint64_t seed = 1; seed <= 600; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    const SerializationGraph global = RandomMultiSiteSg(seed);
    for (bool drop : {true, false}) {
      ExpectMatchesReference(global, {.drop_bypassable_pivots = drop});
    }
    const RegularCycleDetector detector(global);
    if (detector.HasRegularCycle()) {
      ++regular;
    } else if (!detector.acyclic()) {
      ++cyclic_without_regular;
    } else {
      ++acyclic;
    }
  }
  // The generator must reach every verdict, or the comparison shows little.
  EXPECT_GT(regular, 50);
  EXPECT_GT(cyclic_without_regular, 20);
  EXPECT_GT(acyclic, 20);
}

TEST(RegularCyclePropertyTest, AnalyzeHistoryMatchesReferenceOnTrackers) {
  int serializable = 0;
  int not_serializable = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    const int sites = static_cast<int>(rng.Uniform(2, 4));
    std::vector<std::unique_ptr<ConflictTracker>> trackers;
    std::vector<const ConflictTracker*> views;
    for (int s = 0; s < sites; ++s) {
      trackers.push_back(
          std::make_unique<ConflictTracker>(static_cast<SiteId>(s)));
      views.push_back(trackers.back().get());
    }
    const int accesses = static_cast<int>(rng.Uniform(10, 60));
    for (int i = 0; i < accesses; ++i) {
      ConflictTracker& tracker = *trackers[rng.Uniform(0, sites - 1)];
      const TxnId id = static_cast<TxnId>(rng.Uniform(1, 8));
      NodeRef node = rng.Bernoulli(0.25) ? CompNode(id) : GlobalNode(id);
      if (rng.Bernoulli(0.2)) {
        // Local ids are per-site, like LocalDb's.
        node = LocalNode(100 * (tracker.site() + 1) + id);
        tracker.MarkLocalCommitted(node.id);
      }
      tracker.RecordAccess(node, static_cast<DataKey>(rng.Uniform(0, 5)),
                           rng.Bernoulli(0.5));
    }
    const CorrectnessReport report = AnalyzeHistory(views);
    std::vector<SerializationGraph> locals;
    for (const ConflictTracker* tracker : views) {
      locals.push_back(tracker->BuildGraph());
    }
    const SerializationGraph global = MergeLocalGraphs(locals);
    EXPECT_EQ(report.fully_serializable, !global.HasCycle());
    ++(report.fully_serializable ? serializable : not_serializable);
    const testing::ReferenceRegularCycleDetector reference(
        global, RegularCycleDetector::Options{});
    EXPECT_EQ(report.regular_pivots, reference.pivots());
    EXPECT_EQ(report.has_regular_cycle, reference.HasRegularCycle());
    const auto reference_witness = reference.FindWitness();
    ASSERT_EQ(report.witness.has_value(), reference_witness.has_value());
    if (report.witness.has_value()) {
      EXPECT_EQ(report.witness->ToString(), reference_witness->ToString());
    }
  }
  EXPECT_GT(serializable, 20);
  EXPECT_GT(not_serializable, 20);
}

// Deterministic scale guard: a generated 2PC history of ~300 globals on
// 100k keys per site is near-serial, so its global SG has only singleton
// SCCs and the detector materializes no closure edge at all (the full
// closure would have O(N^2) entries here).
TEST(RegularCycleScaleTest, NearSerialTwoPhaseCommitHistoryBuildsNoClosure) {
  core::SystemOptions options;
  options.keys_per_site = 100000;
  options.protocol.protocol = core::CommitProtocol::kTwoPhaseCommit;
  workload::WorkloadOptions load;
  load.num_global_txns = 300;
  load.min_sites_per_txn = 2;
  load.max_sites_per_txn = 2;
  load.vote_abort_probability = 0.2;
  load.mean_global_interarrival = Millis(8);
  load.mean_local_interarrival = Millis(4);
  core::DistributedSystem system(options);
  workload::WorkloadGenerator generator(options.num_sites,
                                        options.keys_per_site, load);
  generator.Drive(system);
  system.Run();

  std::vector<SerializationGraph> locals;
  for (int s = 0; s < options.num_sites; ++s) {
    locals.push_back(
        system.db(static_cast<SiteId>(s)).tracker().BuildGraph());
  }
  const SerializationGraph global = MergeLocalGraphs(locals);
  std::size_t global_nodes = 0;
  for (const NodeRef& node : global.nodes()) {
    if (node.kind != TxnKind::kLocal) ++global_nodes;
  }
  EXPECT_GE(global_nodes, 300u);
  EXPECT_GT(global.edge_count(), 0u);
  const RegularCycleDetector detector(global);
  EXPECT_TRUE(detector.acyclic());
  EXPECT_TRUE(detector.reduced().empty());
  EXPECT_TRUE(detector.pivots().empty());
}

// --- ConflictTracker -----------------------------------------------------

TEST(ConflictTrackerTest, WriteWriteChain) {
  ConflictTracker tracker(0);
  tracker.RecordAccess(GlobalNode(1), 5, true);
  tracker.RecordAccess(GlobalNode(2), 5, true);
  tracker.RecordAccess(GlobalNode(3), 5, true);
  SerializationGraph graph = tracker.BuildGraph();
  EXPECT_TRUE(graph.HasEdge(GlobalNode(1), GlobalNode(2)));
  EXPECT_TRUE(graph.HasEdge(GlobalNode(2), GlobalNode(3)));
  // Transitive reduction: no direct 1 -> 3 edge needed.
  EXPECT_FALSE(graph.HasEdge(GlobalNode(1), GlobalNode(3)));
}

TEST(ConflictTrackerTest, ReadersHangBetweenWrites) {
  ConflictTracker tracker(0);
  tracker.RecordAccess(GlobalNode(1), 5, true);
  tracker.RecordAccess(GlobalNode(2), 5, false);
  tracker.RecordAccess(GlobalNode(3), 5, false);
  tracker.RecordAccess(GlobalNode(4), 5, true);
  SerializationGraph graph = tracker.BuildGraph();
  EXPECT_TRUE(graph.HasEdge(GlobalNode(1), GlobalNode(2)));
  EXPECT_TRUE(graph.HasEdge(GlobalNode(1), GlobalNode(3)));
  EXPECT_TRUE(graph.HasEdge(GlobalNode(2), GlobalNode(4)));
  EXPECT_TRUE(graph.HasEdge(GlobalNode(3), GlobalNode(4)));
  // Two reads do not conflict.
  EXPECT_FALSE(graph.HasEdge(GlobalNode(2), GlobalNode(3)));
}

TEST(ConflictTrackerTest, UncommittedLocalsExcluded) {
  ConflictTracker tracker(0);
  tracker.RecordAccess(GlobalNode(1), 5, true);
  tracker.RecordAccess(LocalNode(9), 5, true);   // never commits
  tracker.RecordAccess(GlobalNode(2), 5, true);
  SerializationGraph graph = tracker.BuildGraph();
  EXPECT_FALSE(graph.HasNode(LocalNode(9)));
  // The chain closes over the dropped local.
  EXPECT_TRUE(graph.HasEdge(GlobalNode(1), GlobalNode(2)));
}

TEST(ConflictTrackerTest, CommittedLocalsIncluded) {
  ConflictTracker tracker(0);
  tracker.RecordAccess(GlobalNode(1), 5, true);
  tracker.RecordAccess(LocalNode(9), 5, true);
  tracker.MarkLocalCommitted(9);
  SerializationGraph graph = tracker.BuildGraph();
  EXPECT_TRUE(graph.HasEdge(GlobalNode(1), LocalNode(9)));
}

TEST(ConflictTrackerTest, ReadsFromFiltering) {
  ConflictTracker tracker(0);
  tracker.RecordReadFrom(LocalNode(9), GlobalNode(1));   // reader uncommitted
  tracker.RecordReadFrom(GlobalNode(2), GlobalNode(1));
  tracker.RecordReadFrom(GlobalNode(2), NodeRef{kInvalidTxn, TxnKind::kLocal});
  EXPECT_EQ(tracker.CommittedReadsFrom().size(), 1u);
  tracker.MarkLocalCommitted(9);
  EXPECT_EQ(tracker.CommittedReadsFrom().size(), 2u);
}

// --- Correctness oracle ---------------------------------------------------

TEST(CorrectnessTest, LocalCycleMakesHistoryIncorrect) {
  ConflictTracker tracker(0);
  // Artificial local cycle between two globals at one site (cannot occur
  // under 2PL, but the oracle must catch it).
  tracker.RecordAccess(GlobalNode(1), 5, true);
  tracker.RecordAccess(GlobalNode(2), 5, true);
  tracker.RecordAccess(GlobalNode(2), 6, true);
  tracker.RecordAccess(GlobalNode(1), 6, true);
  CorrectnessReport report = AnalyzeHistory({&tracker});
  EXPECT_FALSE(report.locally_serializable);
  EXPECT_FALSE(report.correct);
  EXPECT_FALSE(report.violations.empty());
}

TEST(CorrectnessTest, DualReadViolatesAtomicityOfCompensation) {
  ConflictTracker site0(0);
  ConflictTracker site1(1);
  site0.RecordReadFrom(GlobalNode(5), GlobalNode(1));  // T5 reads from T1
  site1.RecordReadFrom(GlobalNode(5), CompNode(1));    // and from CT1
  CorrectnessReport report = AnalyzeHistory({&site0, &site1});
  EXPECT_FALSE(report.atomic_compensation);
}

TEST(CorrectnessTest, CleanHistoryPassesEverything) {
  ConflictTracker site0(0);
  site0.RecordAccess(GlobalNode(1), 5, true);
  site0.RecordAccess(GlobalNode(2), 5, false);
  site0.RecordReadFrom(GlobalNode(2), GlobalNode(1));
  CorrectnessReport report = AnalyzeHistory({&site0});
  EXPECT_TRUE(report.correct);
  EXPECT_TRUE(report.fully_serializable);
  EXPECT_TRUE(report.atomic_compensation);
  EXPECT_NE(report.Summary().find("correct=yes"), std::string::npos);
}

}  // namespace
}  // namespace o2pc::sg
