#include "sg/correctness.h"

#include <map>
#include <set>

#include "common/string_util.h"

namespace o2pc::sg {

std::string CorrectnessReport::Summary() const {
  std::vector<std::string> parts;
  parts.push_back(StrCat("correct=", correct ? "yes" : "NO"));
  parts.push_back(
      StrCat("locally-serializable=", locally_serializable ? "yes" : "NO"));
  parts.push_back(StrCat("regular-cycles=", has_regular_cycle ? "YES" : "no"));
  parts.push_back(
      StrCat("fully-serializable=", fully_serializable ? "yes" : "no"));
  parts.push_back(
      StrCat("atomic-compensation=", atomic_compensation ? "yes" : "NO"));
  return Join(parts, ", ");
}

SerializationGraph MergeLocalGraphs(
    const std::vector<SerializationGraph>& locals) {
  SerializationGraph global;
  for (const SerializationGraph& local : locals) global.Merge(local);
  return global;
}

CorrectnessReport AnalyzeHistory(
    const std::vector<const ConflictTracker*>& sites,
    const std::set<TxnId>& excluded_globals) {
  CorrectnessReport report;

  std::vector<SerializationGraph> locals;
  locals.reserve(sites.size());
  for (const ConflictTracker* tracker : sites) {
    locals.push_back(tracker->BuildGraph(excluded_globals));
    const std::vector<NodeRef> cycle = locals.back().FindCycle();
    if (!cycle.empty()) {
      report.locally_serializable = false;
      std::vector<std::string> names;
      for (const NodeRef& node : cycle) names.push_back(NodeName(node));
      report.violations.push_back(StrCat("local cycle at site ",
                                         tracker->site(), ": ",
                                         Join(names, " -> ")));
    }
  }

  const SerializationGraph global = MergeLocalGraphs(locals);
  RegularCycleDetector detector(global);
  report.fully_serializable = detector.acyclic();
  report.has_regular_cycle = detector.HasRegularCycle();
  report.regular_pivots = detector.pivots();
  if (report.has_regular_cycle) {
    report.witness = detector.FindWitness();
    if (report.witness.has_value()) {
      report.violations.push_back(
          StrCat("regular cycle: ", report.witness->ToString()));
    }
  }

  report.correct = report.locally_serializable && !report.has_regular_cycle;

  // Atomicity of compensation: no reader may observe versions from both
  // T_i and CT_i (merged across sites; the dual reads may happen at two
  // different sites).
  std::map<NodeRef, std::set<NodeRef>> observed;
  for (const ConflictTracker* tracker : sites) {
    for (const ReadsFrom& rf : tracker->CommittedReadsFrom(excluded_globals)) {
      observed[rf.reader].insert(rf.writer);
    }
  }
  for (const auto& [reader, writers] : observed) {
    for (const NodeRef& writer : writers) {
      if (writer.kind != TxnKind::kGlobal) continue;
      if (writers.contains(CompNode(writer.id))) {
        report.atomic_compensation = false;
        report.violations.push_back(
            StrCat(NodeName(reader), " read from both ", NodeName(writer),
                   " and ", NodeName(CompNode(writer.id))));
      }
    }
  }

  return report;
}

}  // namespace o2pc::sg
